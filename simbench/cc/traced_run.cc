#include "simbench/cc/traced_run.h"

#include "src/array/array.h"
#include "src/sim/simulator.h"

namespace simbench {

namespace {

// RunExperiment's pull-driven injector, with sampled spans around the calls
// into the trace layer (Next) and the array layer (Submit).
class TracedInjector {
 public:
  TracedInjector(hib::Simulator* sim, hib::ArrayController* array,
                 hib::WorkloadSource* workload, RunSpans* spans)
      : sim_(sim), array_(array), workload_(workload), spans_(spans) {}

  void Start() { ScheduleNext(); }
  std::int64_t injected() const { return injected_; }

 private:
  static constexpr std::int64_t kMask = kSampleEvery - 1;

  void ScheduleNext() {
    hib::TraceRecord rec;
    bool more;
    if ((spans_->next.calls++ & kMask) == 0) {
      Clock::time_point t0 = Clock::now();
      more = workload_->Next(&rec);
      spans_->next.sampled_ns += NsBetween(t0, Clock::now());
      ++spans_->next.sampled;
    } else {
      more = workload_->Next(&rec);
    }
    if (!more) {
      return;
    }
    sim_->ScheduleAt(rec.time, [this, rec] {
      Submit(rec);
      ScheduleNext();
    });
  }

  void Submit(const hib::TraceRecord& rec) {
    ++injected_;
    if ((spans_->submit.calls++ & kMask) == 0) {
      Clock::time_point t0 = Clock::now();
      array_->Submit(rec);
      spans_->submit.sampled_ns += NsBetween(t0, Clock::now());
      ++spans_->submit.sampled;
    } else {
      array_->Submit(rec);
    }
  }

  hib::Simulator* sim_;
  hib::ArrayController* array_;
  hib::WorkloadSource* workload_;
  RunSpans* spans_;
  std::int64_t injected_ = 0;
};

void RunSlice(hib::Simulator& sim, hib::SimTime until, RunSpans& spans) {
  Clock::time_point t0 = Clock::now();
  std::uint64_t fired = sim.RunUntil(until);
  spans.slices.push_back({until, fired, NsBetween(t0, Clock::now())});
}

}  // namespace

std::int64_t RunSpans::SliceNs() const {
  std::int64_t ns = 0;
  for (const SliceSpan& s : slices) {
    ns += s.ns;
  }
  return ns;
}

std::uint64_t RunSpans::SliceEvents() const {
  std::uint64_t events = 0;
  for (const SliceSpan& s : slices) {
    events += s.events;
  }
  return events;
}

TracedRun RunTraced(hib::WorkloadSource& workload, hib::PowerPolicy& policy,
                    const hib::ArrayParams& array_params,
                    const hib::ExperimentOptions& options) {
  TracedRun out;
  RunSpans& spans = out.spans;

  hib::Simulator sim;
  sim.ReserveEvents(options.event_capacity_hint > 0
                        ? options.event_capacity_hint
                        : hib::EventCapacityHintFor(array_params, workload.PeakIopsHint()));
  hib::ArrayController array(&sim, array_params);
  policy.Attach(&sim, &array);

  TracedInjector injector(&sim, &array, &workload, &spans);
  injector.Start();

  hib::ExperimentResult& result = out.result;
  result.policy_name = policy.Name();
  result.policy_desc = policy.Describe();

  // RunExperiment's horizon, walked in one-hour slices.
  const hib::Duration slice = hib::Hours(1.0);
  hib::Duration hint = workload.DurationHint();
  if (hint > hib::Duration{}) {
    hib::SimTime end = hint + options.drain_ms;
    for (hib::SimTime t = slice; t < end; t += slice) {
      RunSlice(sim, t, spans);
    }
    RunSlice(sim, end, spans);
  } else {
    std::int64_t last_completed = -1;
    hib::SimTime horizon;
    while (true) {
      horizon += slice;
      RunSlice(sim, horizon, spans);
      std::int64_t completed = array.stats().total_responses;
      if (completed == last_completed) {
        break;
      }
      last_completed = completed;
    }
    RunSlice(sim, sim.Now() + options.drain_ms, spans);
  }
  policy.Finish();
  array.FlushObs();

  result.sim_duration_ms = sim.Now();
  result.events = sim.events_fired();
  hib::DiskEnergy energy = array.TotalEnergy();
  result.energy = energy;
  result.energy_total = energy.Total();

  hib::ArrayStats& st = array.stats();
  result.requests = st.total_responses;
  result.mean_response_ms = hib::Ms(st.response_ms.mean());
  result.p95_response_ms = hib::Ms(st.response_pct.Percentile(95.0));
  result.p99_response_ms = hib::Ms(st.response_pct.Percentile(99.0));
  result.max_response_ms = hib::Ms(st.response_ms.max());
  result.cache_hit_rate = array.cache().HitRate();
  result.migrations = st.migrations_completed;
  result.migrated_sectors = st.migrated_sectors;
  for (int i = 0; i < array.num_disks_total(); ++i) {
    const hib::DiskStats& ds = array.disk(i).stats();
    result.spin_ups += ds.spin_ups;
    result.spin_downs += ds.spin_downs;
    result.rpm_changes += ds.rpm_changes;
  }
  result.metrics = sim.obs().metrics.Snapshot();

  out.injected = injector.injected();
  out.in_flight_end = array.InFlightRequests();
  out.lost_accesses = st.lost_accesses;
  return out;
}

}  // namespace simbench
