#include "simbench/cc/workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#include "src/harness/fleet.h"
#include "src/harness/parallel.h"
#include "src/harness/schemes.h"
#include "src/trace/format.h"
#include "src/trace/synthetic.h"
#include "src/trace/zoo.h"

namespace simbench {

namespace {

// splitmix64: independent sub-seeds for the array and the workload stream.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename T>
std::uint64_t Mix(std::uint64_t state, const T& v) {
  return hib::Fnv1a64(&v, sizeof(v), state);
}

std::uint64_t MixSpec(std::uint64_t state, const hib::ExperimentSpec& spec) {
  state = hib::Fnv1a64(spec.name.data(), spec.name.size(), state);
  state = Mix(state, spec.array.seed);
  state = Mix(state, spec.array.num_disks);
  state = Mix(state, spec.array.group_width);
  return Mix(state, spec.options.event_capacity_hint);
}

std::uint64_t SnapshotDigest(const hib::MetricsSnapshot& m, std::uint64_t state) {
  for (const auto& c : m.counters) {
    state = hib::Fnv1a64(c.name.data(), c.name.size(), state);
    state = Mix(state, c.count);
  }
  for (const auto& g : m.gauges) {
    state = hib::Fnv1a64(g.name.data(), g.name.size(), state);
    state = Mix(state, g.current);
  }
  for (const auto& h : m.histograms) {
    state = hib::Fnv1a64(h.name.data(), h.name.size(), state);
    state = Mix(Mix(Mix(Mix(state, h.count), h.sum), h.min_seen), h.max_seen);
    state = hib::Fnv1a64(h.buckets.data(), h.buckets.size() * sizeof(std::int64_t), state);
  }
  return state;
}

std::int64_t CountRecords(hib::WorkloadSource& source) {
  std::int64_t n = 0;
  hib::TraceRecord rec;
  while (source.Next(&rec)) {
    ++n;
  }
  return n;
}

std::vector<hib::ExperimentSpec> WrapPolicies(std::vector<hib::ExperimentSpec> specs,
                                             const PolicyWrap& wrap) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].make_policy = [make = std::move(specs[i].make_policy), wrap,
                            job = static_cast<int>(i)] { return wrap(job, make()); };
  }
  return specs;
}

// Records each spec's workload yields, counted on `threads` threads.
std::vector<std::int64_t> CountSpecRecords(const std::vector<hib::ExperimentSpec>& specs,
                                           int threads) {
  std::vector<std::int64_t> counts(specs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&specs, &counts, &next] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < specs.size();) {
      counts[i] = CountRecords(*specs[i].make_workload(specs[i].array));
    }
  };
  {
    std::vector<std::jthread> pool;
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    worker();
  }  // joins
  return counts;
}

// --- cello_schemes ----------------------------------------------------------
// The paper's scheme comparison on the 12-disk Cello array: the six main
// schemes one after another on one thread, goal = 2.5x a Base probe.
class CelloSchemes : public Workload {
 public:
  CelloSchemes(std::uint64_t seed, Scale scale)
      : seed_(seed),
        duration_(scale == Scale::kFull ? hib::Hours(24.0) : hib::Hours(2.0)),
        probe_(scale == Scale::kFull ? hib::Hours(2.0) : hib::Hours(0.5)) {}

  int threads() const override { return 1; }
  hib::Duration goal() const override { return goal_; }
  std::string Describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "12-disk Cello array, %.0f simulated h, %zu schemes, 1 thread",
                  hib::ToSeconds(duration_) / 3600.0, specs_.size());
    return buf;
  }

  SetupTiming SetUp(Checks& checks) override {
    SetupTiming t;
    Clock::time_point t0 = Clock::now();
    hib::CelloSetup setup = hib::MakeCelloSetup();
    hib::ArrayParams base_array = setup.array;
    base_array.seed = SubSeed(seed_, 1);
    hib::CelloWorkloadParams params;
    params.duration_ms = duration_;
    params.peak_iops = setup.peak_iops;
    params.trough_iops = setup.trough_iops;
    params.seed = SubSeed(seed_, 2);
    auto make_workload =
        [params](const hib::ArrayParams& array) -> std::unique_ptr<hib::WorkloadSource> {
      hib::CelloWorkloadParams p = params;
      p.address_space_sectors = array.DataSectors();
      return std::make_unique<hib::CelloWorkload>(p);
    };

    Clock::time_point c0 = Clock::now();
    hib::Duration base_ms;
    {
      auto probe = make_workload(base_array);
      base_ms = hib::MeasureBaseResponseMs(*probe, base_array, probe_);
    }
    t.calibrate_s = SecondsSince(c0);
    goal_ = 2.5 * base_ms;

    specs_.clear();
    for (hib::Scheme scheme : hib::MainComparisonSchemes()) {
      hib::SchemeConfig cfg;
      cfg.scheme = scheme;
      cfg.goal_ms = goal_;
      specs_.push_back(hib::SpecForScheme(cfg, base_array, make_workload));
    }
    t.total_s = SecondsSince(t0);

    checks.Expect(base_ms > hib::Duration{}, "cello Base probe measured a response time");
    t.fingerprint = Mix(0, goal_.value());
    for (const hib::ExperimentSpec& spec : specs_) {
      t.fingerprint = MixSpec(t.fingerprint, spec);
    }
    return t;
  }

  std::vector<std::int64_t> ExpectedRequests() override {
    return CountSpecRecords(specs_, threads());
  }

  std::vector<hib::ExperimentResult> RunUntraced(Checks&) override {
    return hib::RunAll(specs_, threads());
  }

  std::vector<hib::ExperimentResult> RunShardPass(const PolicyWrap& wrap, Checks&) override {
    return hib::RunAll(WrapPolicies(specs_, wrap), threads());
  }

  int num_jobs() const override { return static_cast<int>(specs_.size()); }
  TracedRun RunTracedJob(int i) override {
    const hib::ExperimentSpec& spec = specs_[static_cast<std::size_t>(i)];
    std::unique_ptr<hib::PowerPolicy> policy = spec.make_policy();
    std::unique_ptr<hib::WorkloadSource> workload = spec.make_workload(spec.array);
    return RunTraced(*workload, *policy, spec.array, spec.options);
  }

 private:
  std::uint64_t seed_;
  hib::Duration duration_;
  hib::Duration probe_;
  hib::Duration goal_;
  std::vector<hib::ExperimentSpec> specs_;
};

// --- oltp_fleet ---------------------------------------------------------------
// bench_fleet's fleet (20-disk RAID5 arrays under Hibernator, goal 20 ms,
// rates +-25%, diurnal phases staggered over 24 h) on two worker threads.
// The horizon passes Hibernator's first two-hour epoch, so every array runs
// one CR reconfiguration and the migration it starts.
class OltpFleet : public Workload {
 public:
  OltpFleet(std::uint64_t seed, Scale scale)
      : seed_(seed),
        arrays_(scale == Scale::kFull ? 12 : 4),
        duration_(scale == Scale::kFull ? hib::Hours(2.5) : hib::Hours(0.1)),
        probe_(scale == Scale::kFull ? hib::Hours(0.25) : hib::Hours(0.02)) {}

  int threads() const override { return 2; }
  hib::Duration goal() const override { return hib::Ms(20.0); }
  std::string Describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%d arrays x 20 disks under Hibernator, %.2f simulated h, %d threads",
                  arrays_, hib::ToSeconds(duration_) / 3600.0, threads());
    return buf;
  }

  SetupTiming SetUp(Checks& checks) override {
    SetupTiming t;
    Clock::time_point t0 = Clock::now();
    hib::OltpSetup setup = hib::MakeOltpSetup();
    hib::FleetSpec spec;
    spec.num_arrays = arrays_;
    spec.base_array = setup.array;
    spec.base_array.seed = SubSeed(seed_, 1);
    spec.scheme.scheme = hib::Scheme::kHibernator;
    spec.scheme.goal_ms = goal();
    spec.peak_iops = setup.peak_iops;
    spec.trough_iops = setup.trough_iops;
    spec.duration_ms = duration_;
    spec.rate_spread = 0.5;
    spec.phase_spread_ms = hib::Hours(24.0);
    spec.seed = SubSeed(seed_, 2);
    fleet_ = std::make_unique<hib::FleetSimulator>(spec);

    // The goal is fixed, so the calibration probe checks it instead: each
    // array's Base mean response over the start of its stream must be under
    // the goal before the fleet is worth running.
    Clock::time_point c0 = Clock::now();
    hib::Duration worst_base;
    for (const hib::ExperimentSpec& es : fleet_->specs()) {
      auto probe = es.make_workload(es.array);
      worst_base = std::max(worst_base, hib::MeasureBaseResponseMs(*probe, es.array, probe_));
    }
    t.calibrate_s = SecondsSince(c0);
    t.total_s = SecondsSince(t0);

    checks.Expect(worst_base > hib::Duration{} && worst_base < goal(),
                  "fleet: every array's Base probe is under the 20 ms goal");
    t.fingerprint = Mix(0, worst_base.value());
    for (const hib::ExperimentSpec& es : fleet_->specs()) {
      t.fingerprint = MixSpec(t.fingerprint, es);
    }
    return t;
  }

  std::vector<std::int64_t> ExpectedRequests() override {
    return CountSpecRecords(fleet_->specs(), threads());
  }

  std::vector<hib::ExperimentResult> RunUntraced(Checks& checks) override {
    hib::FleetResult fleet = fleet_->Run(threads());

    // The aggregate is exactly the spec-order fold of the per-array results.
    std::uint64_t events = 0;
    std::int64_t requests = 0;
    hib::Joules energy;
    hib::Duration weighted;
    hib::Duration worst_p99;
    for (const hib::ExperimentResult& r : fleet.per_array) {
      events += r.events;
      requests += r.requests;
      energy += r.energy_total;
      weighted += r.mean_response_ms * static_cast<double>(r.requests);
      worst_p99 = std::max(worst_p99, r.p99_response_ms);
    }
    hib::Duration mean = requests > 0 ? weighted / static_cast<double>(requests) : hib::Duration{};
    checks.Expect(fleet.arrays == arrays_ &&
                      fleet.per_array.size() == static_cast<std::size_t>(arrays_) &&
                      fleet.events == events && fleet.requests == requests &&
                      fleet.energy_total == energy && fleet.mean_response_ms == mean &&
                      fleet.worst_p99_response_ms == worst_p99 &&
                      SnapshotDigest(fleet.metrics, 0) ==
                          SnapshotDigest(hib::MergeMetrics(fleet.per_array), 0),
                  "fleet aggregate equals the sum over per_array");
    return std::move(fleet.per_array);
  }

  std::vector<hib::ExperimentResult> RunShardPass(const PolicyWrap& wrap, Checks&) override {
    return hib::RunAll(WrapPolicies(fleet_->specs(), wrap), threads());
  }

  int num_jobs() const override { return arrays_; }
  TracedRun RunTracedJob(int i) override {
    const hib::ExperimentSpec& spec = fleet_->specs()[static_cast<std::size_t>(i)];
    std::unique_ptr<hib::PowerPolicy> policy = spec.make_policy();
    std::unique_ptr<hib::WorkloadSource> workload = spec.make_workload(spec.array);
    return RunTraced(*workload, *policy, spec.array, spec.options);
  }

 private:
  std::uint64_t seed_;
  int arrays_;
  hib::Duration duration_;
  hib::Duration probe_;
  std::unique_ptr<hib::FleetSimulator> fleet_;
};

// --- ml_replay ----------------------------------------------------------------
// The ML-training zoo stream, compiled in memory at set-up and replayed
// through CompiledTraceReader under Base and Hibernator on the OLTP array.
class MlReplay : public Workload {
 public:
  MlReplay(std::uint64_t seed, Scale scale)
      : seed_(seed),
        duration_(scale == Scale::kFull ? hib::Hours(3.25) : hib::Hours(0.1)),
        probe_(scale == Scale::kFull ? hib::Hours(0.5) : hib::Hours(0.02)) {}

  int threads() const override { return 1; }
  hib::Duration goal() const override { return goal_; }
  std::string Describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "ML-training stream, %.2f simulated h, %lld records in %.1f MB compiled, "
                  "Base + Hibernator on the 20-disk OLTP array, 1 thread",
                  hib::ToSeconds(duration_) / 3600.0, static_cast<long long>(records_),
                  static_cast<double>(bytes_) / 1e6);
    return buf;
  }

  SetupTiming SetUp(Checks& checks) override {
    reader_.reset();
    SetupTiming t;
    Clock::time_point t0 = Clock::now();
    array_ = hib::MakeOltpSetup().array;
    array_.seed = SubSeed(seed_, 1);
    hib::MlTrainingWorkloadParams params;
    params.address_space_sectors = array_.DataSectors();
    params.duration_ms = duration_;
    params.seed = SubSeed(seed_, 2);
    hib::MlTrainingWorkload generator(params);

    Clock::time_point k0 = Clock::now();
    std::string bytes;
    hib::TraceCompileResult compiled = hib::CompileTrace(generator, &bytes);
    t.compile_s = SecondsSince(k0);
    records_ = compiled.records;
    bytes_ = compiled.bytes;
    // The digest is the benchmark's own work: its time is left out of total_s.
    Clock::time_point h0 = Clock::now();
    std::uint64_t bytes_digest = hib::Fnv1a64(bytes.data(), bytes.size());
    double hash_s = SecondsSince(h0);

    reader_ = hib::CompiledTraceReader::FromBuffer(std::move(bytes));
    // One full pass verifies every block checksum (the reader remembers
    // this), so each timed run decodes blocks that are already verified.
    std::int64_t drained = 0;
    hib::TraceRecord rec;
    while (reader_->Next(&rec)) {
      ++drained;
    }
    reader_->Reset();

    Clock::time_point c0 = Clock::now();
    hib::Duration base_ms = hib::MeasureBaseResponseMs(*reader_, array_, probe_);
    t.calibrate_s = SecondsSince(c0);
    goal_ = 2.5 * base_ms;
    t.total_s = SecondsSince(t0) - hash_s;

    checks.Expect(compiled.ok && records_ > 0, "ml: CompileTrace succeeded: " + compiled.error);
    checks.Expect(reader_->ok() && drained == records_ && reader_->num_records() == records_,
                  "ml: the reader decodes exactly the compiled record count");
    checks.Expect(base_ms > hib::Duration{}, "ml: Base probe measured a response time");
    t.fingerprint = Mix(Mix(bytes_digest, records_), goal_.value());
    return t;
  }

  std::vector<std::int64_t> ExpectedRequests() override {
    return std::vector<std::int64_t>(static_cast<std::size_t>(num_jobs()), records_);
  }

  std::vector<hib::ExperimentResult> RunUntraced(Checks& checks) override {
    return Run(nullptr, checks);
  }

  std::vector<hib::ExperimentResult> RunShardPass(const PolicyWrap& wrap,
                                                  Checks& checks) override {
    return Run(wrap, checks);
  }

  int num_jobs() const override { return 2; }
  TracedRun RunTracedJob(int i) override {
    hib::SchemeConfig cfg = Config(i);
    std::unique_ptr<hib::PowerPolicy> policy = hib::MakePolicy(cfg);
    reader_->Reset();
    return RunTraced(*reader_, *policy, hib::ArrayFor(cfg, array_), {});
  }

 private:
  std::vector<hib::ExperimentResult> Run(const PolicyWrap& wrap, Checks& checks) {
    std::vector<hib::ExperimentResult> results;
    for (int i = 0; i < num_jobs(); ++i) {
      hib::SchemeConfig cfg = Config(i);
      std::unique_ptr<hib::PowerPolicy> policy = hib::MakePolicy(cfg);
      if (wrap) {
        policy = wrap(i, std::move(policy));
      }
      reader_->Reset();
      results.push_back(hib::RunExperiment(*reader_, *policy, hib::ArrayFor(cfg, array_)));
      checks.Expect(reader_->ok(), results.back().policy_name + ": the reader stayed ok");
    }
    return results;
  }

  hib::SchemeConfig Config(int i) const {
    hib::SchemeConfig cfg;
    cfg.scheme = i == 0 ? hib::Scheme::kBase : hib::Scheme::kHibernator;
    cfg.goal_ms = goal_;
    return cfg;
  }

  std::uint64_t seed_;
  hib::Duration duration_;
  hib::Duration probe_;
  hib::Duration goal_;
  hib::ArrayParams array_;
  std::int64_t records_ = 0;
  std::int64_t bytes_ = 0;
  std::unique_ptr<hib::CompiledTraceReader> reader_;
};

}  // namespace

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("check FAILED: %s\n", what.c_str());
  }
}

std::vector<std::string> WorkloadNames() { return {"cello_schemes", "oltp_fleet", "ml_replay"}; }

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       Scale scale) {
  if (name == "cello_schemes") {
    return std::make_unique<CelloSchemes>(seed, scale);
  }
  if (name == "oltp_fleet") {
    return std::make_unique<OltpFleet>(seed, scale);
  }
  if (name == "ml_replay") {
    return std::make_unique<MlReplay>(seed, scale);
  }
  return nullptr;
}

std::uint64_t ResultDigest(const hib::ExperimentResult& r) {
  std::uint64_t s = hib::Fnv1a64(r.policy_name.data(), r.policy_name.size());
  for (double v : {r.sim_duration_ms.value(), r.energy_total.value(), r.energy.active.value(),
                   r.energy.idle.value(), r.energy.standby.value(),
                   r.energy.transition.value(), r.energy.active_ms.value(),
                   r.energy.idle_ms.value(), r.energy.standby_ms.value(),
                   r.energy.transition_ms.value(), r.mean_response_ms.value(),
                   r.p95_response_ms.value(), r.p99_response_ms.value(),
                   r.max_response_ms.value(), r.cache_hit_rate}) {
    s = Mix(s, v);
  }
  for (std::int64_t v : {r.requests, static_cast<std::int64_t>(r.events), r.spin_ups,
                         r.spin_downs, r.rpm_changes, r.migrations, r.migrated_sectors}) {
    s = Mix(s, v);
  }
  return SnapshotDigest(r.metrics, s);
}

}  // namespace simbench
