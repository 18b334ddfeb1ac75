// The benchmark's traced pass: a copy of hib::RunExperiment's replay loop
// that keeps host-time spans around the calls it makes into each layer.
//
// The loop makes the same public calls in the same order as RunExperiment
// (the same event-capacity hint, Attach, pull-driven ScheduleAt injection,
// RunUntil to the same horizon, Finish, FlushObs), so a traced run's
// simulated results are bit-identical to the untraced run's; the benchmark
// checks that.  The only difference is that RunUntil is called in one-hour
// simulated slices, which fires the same events in the same order.
//
// Spans kept in memory per run:
//   * WorkloadSource::Next and ArrayController::Submit — timed on every
//     kSampleEvery-th call (the totals are scaled up by calls / sampled);
//   * every RunUntil slice, with the events it fired.
//
// Shard spans are taken apart from this loop: ShardSpanPolicy wraps the
// policies of the workload's own RunAll / RunExperiment calls, so the shard
// seconds and the harness wall time they are set against are the real
// harness's.
#ifndef SIMBENCH_CC_TRACED_RUN_H_
#define SIMBENCH_CC_TRACED_RUN_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/experiment.h"
#include "src/policy/policy.h"
#include "src/trace/trace.h"

namespace simbench {

using Clock = std::chrono::steady_clock;

// One Next / Submit call in kSampleEvery is timed (a power of two): two clock
// reads on every call would add a large share to a ~1 us request.
inline constexpr int kSampleEvery = 8;

inline std::int64_t NsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// Host time of one layer's calls: every call is counted, every sampled call
// is timed.
struct CallSpans {
  std::int64_t calls = 0;
  std::int64_t sampled = 0;
  std::int64_t sampled_ns = 0;

  // Estimated host ns over all calls.
  double TotalNs() const {
    return sampled > 0 ? static_cast<double>(sampled_ns) * static_cast<double>(calls) /
                             static_cast<double>(sampled)
                       : 0.0;
  }
};

// PowerPolicy::Attach entered .. PowerPolicy::Finish returned: one run, which
// is one shard of RunAll.
struct ShardSpan {
  Clock::time_point attach;
  Clock::time_point finish;

  double Seconds() const { return static_cast<double>(NsBetween(attach, finish)) * 1e-9; }
};

// Forwards every call to the policy it owns; its Attach and Finish record
// the shard's span.
class ShardSpanPolicy : public hib::PowerPolicy {
 public:
  ShardSpanPolicy(std::unique_ptr<hib::PowerPolicy> inner, ShardSpan* span)
      : inner_(std::move(inner)), span_(span) {}

  std::string Name() const override { return inner_->Name(); }
  std::string Describe() const override { return inner_->Describe(); }
  void Attach(hib::Simulator* sim, hib::ArrayController* array) override {
    span_->attach = Clock::now();
    inner_->Attach(sim, array);
  }
  void Finish() override {
    inner_->Finish();
    span_->finish = Clock::now();
  }

 private:
  std::unique_ptr<hib::PowerPolicy> inner_;
  ShardSpan* span_;
};

struct SliceSpan {
  hib::SimTime until;
  std::uint64_t events = 0;
  std::int64_t ns = 0;
};

// Everything the traced pass records for one run.
struct RunSpans {
  CallSpans next;    // WorkloadSource::Next
  CallSpans submit;  // ArrayController::Submit (including Disk::Submit)
  std::vector<SliceSpan> slices;
  int thread = 0;  // worker that ran the job

  std::int64_t SliceNs() const;
  std::uint64_t SliceEvents() const;
};

struct TracedRun {
  hib::ExperimentResult result;
  RunSpans spans;
  std::int64_t injected = 0;       // records handed to ArrayController::Submit
  std::size_t in_flight_end = 0;   // ArrayController::InFlightRequests() at drain
  std::int64_t lost_accesses = 0;  // ArrayStats::lost_accesses at drain
};

// Replays `workload` through a new array under `policy`, exactly as
// hib::RunExperiment does, recording Next/Submit/RunUntil spans.
TracedRun RunTraced(hib::WorkloadSource& workload, hib::PowerPolicy& policy,
                    const hib::ArrayParams& array_params,
                    const hib::ExperimentOptions& options);

}  // namespace simbench

#endif  // SIMBENCH_CC_TRACED_RUN_H_
