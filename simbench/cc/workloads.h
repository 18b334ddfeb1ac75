// The benchmark's named workloads.  Each one builds its inputs from the seed
// at set-up, runs an untraced pass through the simulator's public entry
// points, and hands the traced pass one job per simulated array.
#ifndef SIMBENCH_CC_WORKLOADS_H_
#define SIMBENCH_CC_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simbench/cc/traced_run.h"
#include "src/harness/experiment.h"

namespace simbench {

// kSmoke shrinks every horizon so the benchmark's own smoke test runs in
// seconds; host numbers from it are not comparable with kFull ones.
enum class Scale { kFull, kSmoke };

// Correctness checks; the share that failed is the benchmark's failed_pct.
class Checks {
 public:
  // Counts one check; prints it when it fails.
  void Expect(bool ok, const std::string& what);
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

// Wraps job i's policy before its run starts (a ShardSpanPolicy, in the
// shard pass).
using PolicyWrap = std::function<std::unique_ptr<hib::PowerPolicy>(
    int job, std::unique_ptr<hib::PowerPolicy> policy)>;

// Wall time of one set-up, and of the parts the per-layer metrics name.
struct SetupTiming {
  double total_s = 0.0;
  double calibrate_s = 0.0;  // hib::MeasureBaseResponseMs
  double compile_s = 0.0;    // hib::CompileTrace
  // Digest of what the set-up produced (goal, specs, compiled bytes); every
  // set-up of one seed must give the same one.  Taken after the timer stops.
  std::uint64_t fingerprint = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Worker threads the untraced and traced passes use.
  virtual int threads() const = 0;
  // Hibernator's response-time goal, fixed by the last set-up.
  virtual hib::Duration goal() const = 0;
  // One-line statement of the input size.
  virtual std::string Describe() const = 0;

  // Everything a user pays before the first simulated event.  Each call
  // rebuilds the inputs from the seed, replacing the previous set-up.
  virtual SetupTiming SetUp(Checks& checks) = 0;

  // Records each run's workload yields, counted on fresh sources outside any
  // timed span: every run must complete exactly this many requests.
  virtual std::vector<std::int64_t> ExpectedRequests() = 0;

  // The untraced pass, in a fixed run order.  Calls only public entry points
  // and adds the workload's own checks.
  virtual std::vector<hib::ExperimentResult> RunUntraced(Checks& checks) = 0;

  // The untraced pass's runs through the harness call the workload is built
  // on (RunAll, or RunExperiment for ml_replay; FleetSimulator::Run takes no
  // policy wrapper, so oltp_fleet calls RunAll on its fleet's specs), with
  // every policy wrapped.  Run i is run i of the untraced pass.
  virtual std::vector<hib::ExperimentResult> RunShardPass(const PolicyWrap& wrap,
                                                          Checks& checks) = 0;

  // The traced pass: job i reproduces run i of the untraced pass through
  // RunTraced.  Jobs with distinct indices may run concurrently when
  // threads() > 1.
  virtual int num_jobs() const = 0;
  virtual TracedRun RunTracedJob(int i) = 0;
};

// Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed, Scale scale);
std::vector<std::string> WorkloadNames();

// Digest of a run's simulated outputs, metrics snapshot included: equal
// digests mean bit-identical results.
std::uint64_t ResultDigest(const hib::ExperimentResult& r);

}  // namespace simbench

#endif  // SIMBENCH_CC_WORKLOADS_H_
