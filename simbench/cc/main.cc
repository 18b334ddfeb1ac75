// simbench: the repository's end-to-end benchmark.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scale full|smoke] [--spans-out <file>]
//
// Runs one named workload (cello_schemes, oltp_fleet, ml_replay; see
// workloads.cc and NOTES.md).  The untraced pass repeats for about --seconds
// (at least two reps) through the simulator's public entry points; its host
// metrics are medians over reps.  Set-up slots come before, between and after
// the reps, so a change in the machine's load reaches set-up and reps alike;
// each slot repeats set-up until it has taken half a second, and setup_s is
// the median over every set-up.  With --trace 1 two traced passes follow: a
// shard pass, the workload's own harness call with every policy wrapped in a
// ShardSpanPolicy, and a span pass (traced_run.h); the per-layer metrics
// replace the end-to-end ones.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where attempted/failed count
// the correctness checks.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simbench/cc/traced_run.h"
#include "simbench/cc/workloads.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/util/json.h"

namespace {

using simbench::Clock;
using simbench::SecondsSince;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  simbench::Scale scale = simbench::Scale::kFull;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale full|smoke] [--spans-out <file>]\n"
               "workloads:",
               why);
  for (const std::string& name : simbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") {
        Usage("--scale must be full or smoke");
      }
      o.scale = value == "full" ? simbench::Scale::kFull : simbench::Scale::kSmoke;
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(o.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return o;
}

// Median and quartiles by linear interpolation between order statistics.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&v](double p) {
    double pos = p * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

void PrintSeries(const char* name, const char* unit, const std::vector<double>& v) {
  Quartiles q = QuartilesOf(v);
  std::printf("%-22s n=%zu  q1 %.6g  median %.6g  q3 %.6g %s  | per rep:", name, v.size(), q.q1,
              q.median, q.q3, unit);
  for (double x : v) {
    std::printf(" %.6g", x);
  }
  std::printf("\n");
}

double Share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// Ordered metric list for the result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  hib::JsonObject Json() const {
    hib::JsonObject o;
    for (const Item& it : items_) {
      hib::JsonObject m;
      m.Set("value", it.value).Set("unit", it.unit);
      o.Set(it.name, m);
    }
    return o;
  }
  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Item& it : items_) {
      std::printf("  %-28s %16.6f %s\n", it.name.c_str(), it.value, it.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

std::int64_t CounterValue(const hib::MetricsSnapshot& m, const std::string& name) {
  for (const auto& c : m.counters) {
    if (c.name == name) {
      return c.count;
    }
  }
  return 0;
}

const hib::MetricsSnapshot::HistogramPoint* FindHistogram(const hib::MetricsSnapshot& m,
                                                          const std::string& name) {
  for (const auto& h : m.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

// Quantile of a merged log-linear histogram, interpolated linearly inside the
// bucket it falls in, so it moves smoothly rather than in bucket steps.
double HistogramQuantile(const hib::MetricsSnapshot::HistogramPoint& h, double q) {
  if (h.count == 0) {
    return 0.0;
  }
  hib::LogLinearHistogram shape(h.options);
  double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    auto in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket > 0.0 && seen + in_bucket >= target) {
      double lo = shape.BucketLowerBound(static_cast<int>(i));
      double hi = i + 1 < h.buckets.size() ? shape.BucketLowerBound(static_cast<int>(i) + 1) : lo;
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h.max_seen;
}

bool IsHibernator(const hib::ExperimentResult& r) { return r.policy_name == "Hibernator"; }

// Simulated (deterministic per seed) end-to-end metrics.  The p99 pools every
// request of the workload's runs (their merged response histograms).
void AddSimulatedMetrics(const std::vector<hib::ExperimentResult>& runs, hib::Duration goal,
                         Metrics& m) {
  double energy_j = 0.0;
  double weighted_ms = 0.0;
  std::int64_t requests = 0;
  const hib::ExperimentResult* worst = nullptr;
  hib::MetricsSnapshot merged;
  int hib_runs = 0;
  int hib_met = 0;
  for (const hib::ExperimentResult& r : runs) {
    energy_j += r.energy_total.value();
    weighted_ms += r.mean_response_ms.value() * static_cast<double>(r.requests);
    requests += r.requests;
    merged.MergeFrom(r.metrics);
    if (worst == nullptr || r.p99_response_ms > worst->p99_response_ms) {
      worst = &r;
    }
    if (IsHibernator(r)) {
      ++hib_runs;
      // The goal-met rule of bench/bench_common.h.
      hib_met += r.mean_response_ms <= goal * 1.05 ? 1 : 0;
    }
  }
  const auto* response = FindHistogram(merged, "array.response_ms");
  double p99 = response != nullptr ? HistogramQuantile(*response, 0.99) : 0.0;
  std::printf("simulated: p99 %.4f ms over all %" PRId64 " requests of %zu runs; worst per-run "
              "p99 %.4f ms (%s, %" PRId64 " requests); goal %.4f ms met by %d of %d "
              "Hibernator runs\n",
              p99, requests, runs.size(), worst != nullptr ? worst->p99_response_ms.value() : 0.0,
              worst != nullptr ? worst->policy_name.c_str() : "-",
              worst != nullptr ? worst->requests : 0, goal.value(), hib_met, hib_runs);
  m.Add("energy_kj", energy_j / 1000.0, "kJ");
  m.Add("mean_response_ms", Share(weighted_ms, static_cast<double>(requests)), "ms");
  m.Add("p99_response_ms", p99, "ms");
  m.Add("goal_met_pct", 100.0 * Share(hib_met, hib_runs), "%");
}

// The span pass: every job through RunTraced, on the workload's thread count.
std::vector<simbench::TracedRun> RunSpanPass(simbench::Workload& wl, double* wall_s) {
  const int n = wl.num_jobs();
  std::vector<simbench::TracedRun> runs(static_cast<std::size_t>(n));
  std::atomic<int> next{0};
  // RunAll's claim order: each worker takes the next unclaimed job.
  auto worker = [&](int thread) {
    for (;;) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      simbench::TracedRun run = wl.RunTracedJob(i);
      run.spans.thread = thread;
      runs[static_cast<std::size_t>(i)] = std::move(run);
    }
  };
  Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (int t = 1; t < std::min(wl.threads(), n); ++t) {
      pool.emplace_back(worker, t);
    }
    worker(0);
  }  // joins
  *wall_s = SecondsSince(t0);
  return runs;
}

std::string PolicyKey(const std::string& policy_name) {
  std::string key;
  for (char c : policy_name) {
    key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return key == "hibernator" ? "hibernator.ns_per_req" : "policy." + key + ".ns_per_req";
}

// The host time the traced passes measured.
struct TracedPasses {
  std::vector<simbench::ShardSpan> shards;  // shard pass, one per run
  double shard_wall_s = 0.0;                // the shard pass's harness call
  std::vector<simbench::TracedRun> spans;   // span pass
  double span_wall_s = 0.0;
};

// `compile_s` and `calibrate_s` are medians over set-ups.  The trace overhead
// sets the span pass against the shard pass just before it, which runs the
// same jobs with no per-call spans, so a drift in the machine's speed between
// the untraced reps and the traced passes does not show as overhead.
void AddLayerMetrics(const TracedPasses& traced,
                     const std::vector<hib::ExperimentResult>& untraced, double compile_s,
                     double calibrate_s, int threads, Metrics& m) {
  double next_ns = 0.0;
  double submit_ns = 0.0;
  double self_ns = 0.0;
  std::int64_t next_calls = 0;
  std::int64_t submit_calls = 0;
  std::uint64_t slice_events = 0;
  for (const simbench::TracedRun& t : traced.spans) {
    const simbench::RunSpans& s = t.spans;
    next_ns += s.next.TotalNs();
    submit_ns += s.submit.TotalNs();
    next_calls += s.next.calls;
    submit_calls += s.submit.calls;
    self_ns += static_cast<double>(s.SliceNs()) - s.next.TotalNs() - s.submit.TotalNs();
    slice_events += s.SliceEvents();
  }
  double shard_sum = 0.0;
  double shard_max = 0.0;
  std::map<std::string, std::pair<double, std::int64_t>> policy_cost;  // ns, requests
  for (std::size_t i = 0; i < traced.shards.size(); ++i) {
    double shard_s = traced.shards[i].Seconds();
    shard_sum += shard_s;
    shard_max = std::max(shard_max, shard_s);
    auto& [ns, reqs] = policy_cost[PolicyKey(untraced[i].policy_name)];
    ns += shard_s * 1e9;
    reqs += untraced[i].requests;
  }

  hib::MetricsSnapshot merged;
  std::int64_t requests = 0;
  std::uint64_t events = 0;
  std::int64_t migrated_sectors = 0;
  hib::DiskEnergy residency;
  for (const hib::ExperimentResult& r : untraced) {
    merged.MergeFrom(r.metrics);
    requests += r.requests;
    events += r.events;
    migrated_sectors += r.migrated_sectors;
    residency.active_ms += r.energy.active_ms;
    residency.idle_ms += r.energy.idle_ms;
    residency.standby_ms += r.energy.standby_ms;
    residency.transition_ms += r.energy.transition_ms;
  }
  double submitted = static_cast<double>(CounterValue(merged, "array.reads") +
                                         CounterValue(merged, "array.writes"));
  const auto* service = FindHistogram(merged, "disk.service_ms");
  const auto* queue_wait = FindHistogram(merged, "disk.queue_wait_ms");
  double total_ms = residency.TotalMs().value();

  m.Add("trace.next_ns", Share(next_ns, static_cast<double>(next_calls)), "ns");
  m.Add("trace.compile_s", compile_s, "s");
  m.Add("harness.calibrate_s", calibrate_s, "s");
  m.Add("array.submit_ns", Share(submit_ns, static_cast<double>(submit_calls)), "ns");
  m.Add("sim.ns_per_event", Share(self_ns, static_cast<double>(slice_events)), "ns");
  m.Add("sim.events_per_req", Share(static_cast<double>(events), static_cast<double>(requests)),
        "count");
  for (const char* key : {"policy.base.ns_per_req", "policy.tpm.ns_per_req",
                          "policy.drpm.ns_per_req", "policy.pdc.ns_per_req",
                          "policy.maid.ns_per_req", "hibernator.ns_per_req"}) {
    auto it = policy_cost.find(key);
    m.Add(key,
          it == policy_cost.end()
              ? 0.0
              : Share(it->second.first, static_cast<double>(it->second.second)),
          "ns");
  }
  m.Add("hibernator.cr_candidates",
        static_cast<double>(CounterValue(merged, "hibernator.cr_candidates")), "count");
  m.Add("hibernator.boosts",
        static_cast<double>(CounterValue(merged, "hibernator.boosts")), "count");
  m.Add("array.cache_hit_pct",
        100.0 * Share(static_cast<double>(CounterValue(merged, "array.cache_hits")),
                      submitted),
        "%");
  m.Add("array.subops_per_req",
        Share(static_cast<double>(CounterValue(merged, "array.subops")), submitted),
        "count");
  m.Add("array.migrated_gb",
        static_cast<double>(migrated_sectors) * hib::kSectorBytes / (1024.0 * 1024.0 * 1024.0),
        "GiB");
  m.Add("disk.service_ms_mean",
        service != nullptr ? Share(service->sum, static_cast<double>(service->count)) : 0.0,
        "ms");
  m.Add("disk.queue_wait_ms_p99",
        queue_wait != nullptr ? HistogramQuantile(*queue_wait, 0.99) : 0.0, "ms");
  m.Add("disk.spin_ups", static_cast<double>(CounterValue(merged, "disk.spin_ups")),
        "count");
  m.Add("disk.rpm_changes",
        static_cast<double>(CounterValue(merged, "disk.rpm_changes")), "count");
  m.Add("disk.active_pct", 100.0 * Share(residency.active_ms.value(), total_ms), "%");
  m.Add("disk.idle_pct", 100.0 * Share(residency.idle_ms.value(), total_ms), "%");
  m.Add("disk.standby_pct", 100.0 * Share(residency.standby_ms.value(), total_ms), "%");
  m.Add("disk.transition_pct", 100.0 * Share(residency.transition_ms.value(), total_ms), "%");
  m.Add("harness.parallel_efficiency",
        Share(shard_sum, static_cast<double>(threads) * traced.shard_wall_s), "ratio");
  m.Add("harness.shard_imbalance",
        Share(shard_max,
              shard_sum / static_cast<double>(std::max<std::size_t>(1, traced.shards.size()))),
        "ratio");
  m.Add("bench.trace_overhead_pct",
        100.0 * (Share(traced.span_wall_s, traced.shard_wall_s) - 1.0), "%");
}

void WriteSpans(const std::string& path, const Options& o, const TracedPasses& traced) {
  hib::JsonArray runs;
  for (std::size_t i = 0; i < traced.spans.size(); ++i) {
    const simbench::RunSpans& s = traced.spans[i].spans;
    auto calls = [](const simbench::CallSpans& c) {
      hib::JsonObject json;
      json.Set("calls", hib::JsonValue::Int(c.calls))
          .Set("sampled", hib::JsonValue::Int(c.sampled))
          .Set("sampled_ns", hib::JsonValue::Int(c.sampled_ns));
      return json;
    };
    hib::JsonArray slices;
    for (const simbench::SliceSpan& sl : s.slices) {
      hib::JsonObject so;
      so.Set("until_ms", sl.until.value())
          .Set("events", hib::JsonValue::UInt(sl.events))
          .Set("ns", hib::JsonValue::Int(sl.ns));
      slices.Push(hib::JsonValue::Raw(so.Dump()));
    }
    hib::JsonObject run;
    run.Set("run", hib::JsonValue::Int(static_cast<std::int64_t>(i)))
        .Set("policy", traced.spans[i].result.policy_name)
        .Set("thread", hib::JsonValue::Int(s.thread))
        .Set("shard_s", traced.shards[i].Seconds())
        .Set("requests", hib::JsonValue::Int(traced.spans[i].result.requests))
        .Set("next", calls(s.next))
        .Set("submit", calls(s.submit))
        .Set("run_until_slices", slices);
    runs.Push(hib::JsonValue::Raw(run.Dump()));
  }
  hib::JsonObject doc;
  doc.Set("workload", o.workload)
      .Set("seed", hib::JsonValue::UInt(o.seed))
      .Set("shard_pass_wall_s", traced.shard_wall_s)
      .Set("span_pass_wall_s", traced.span_wall_s)
      .Set("runs", runs);
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o = ParseArgs(argc, argv);
  std::unique_ptr<simbench::Workload> wl = simbench::MakeWorkload(o.workload, o.seed, o.scale);
  if (!wl) {
    Usage(("unknown workload " + o.workload).c_str());
  }
  const int min_reps = 2;
  const int max_reps = 200;
  const double setup_slot_s = 0.5;
  const int max_setups_per_slot = 40;

#if defined(HIB_VALIDATE) && HIB_VALIDATE
  const bool validate = true;
#else
  const bool validate = false;
#endif
  const std::string build_type = SIMBENCH_BUILD_TYPE;
  const bool comparable =
      build_type == "Release" && !validate && HIB_OBS && o.scale == simbench::Scale::kFull;
  unsigned nproc = std::thread::hardware_concurrency();

  std::printf("simbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", o.workload.c_str(), o.seed,
              o.seconds, o.trace ? 1 : 0);
  Clock::time_point start = Clock::now();
  simbench::Checks checks;

  // A set-up slot: set-up, repeated until the slot has taken setup_slot_s.
  // Every set-up must produce the same inputs.
  std::vector<simbench::SetupTiming> setups;
  auto setup_slot = [&] {
    double slot_s = 0.0;
    for (int i = 0; i < max_setups_per_slot && (i == 0 || slot_s < setup_slot_s); ++i) {
      setups.push_back(wl->SetUp(checks));
      slot_s += setups.back().total_s;
      if (setups.size() > 1) {
        checks.Expect(setups.back().fingerprint == setups[0].fingerprint,
                      "set-up " + std::to_string(setups.size()) + " reproduces set-up 1");
      }
    }
  };

  Clock::time_point measure_start = Clock::now();
  setup_slot();
  // Not timed: counts every record the runs must complete.
  double count_s = 0.0;
  const std::vector<std::int64_t> expected = [&] {
    Clock::time_point t0 = Clock::now();
    std::vector<std::int64_t> e = wl->ExpectedRequests();
    count_s = SecondsSince(t0);
    return e;
  }();
  std::printf("input: %s\n", wl->Describe().c_str());

  // Untraced pass, repeated for about --seconds, between set-up slots.
  std::vector<hib::ExperimentResult> results;
  std::vector<std::uint64_t> digests;
  std::vector<double> rep_s;
  std::vector<double> rep_rps;
  for (int rep = 0; rep < max_reps; ++rep) {
    if (rep > 0) {
      setup_slot();
    }
    Clock::time_point t0 = Clock::now();
    std::vector<hib::ExperimentResult> r = wl->RunUntraced(checks);
    double wall = SecondsSince(t0);
    std::int64_t requests = 0;
    bool complete = r.size() == expected.size();
    bool identical = rep == 0 || r.size() == results.size();
    for (std::size_t i = 0; i < r.size(); ++i) {
      requests += r[i].requests;
      complete = complete && r[i].requests == expected[i];
      if (rep == 0) {
        digests.push_back(simbench::ResultDigest(r[i]));
      } else if (identical) {
        identical = simbench::ResultDigest(r[i]) == digests[i];
      }
    }
    checks.Expect(complete, "untraced rep " + std::to_string(rep + 1) +
                                ": every run completed every record its workload yields");
    if (rep == 0) {
      results = std::move(r);
    } else {
      checks.Expect(identical, "untraced rep " + std::to_string(rep + 1) +
                                   " is bit-identical to rep 1");
    }
    rep_s.push_back(wall);
    rep_rps.push_back(static_cast<double>(requests) / wall);
    double elapsed = SecondsSince(measure_start) - count_s;
    double per_rep = elapsed / static_cast<double>(rep + 1);
    if (rep + 1 >= min_reps && elapsed + per_rep > o.seconds) {
      break;
    }
  }
  setup_slot();
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  hib::JsonObject manifest;
  manifest.Set("build_type", build_type)
      .Set("HIB_OBS", hib::JsonValue::Int(HIB_OBS))
      .Set("HIB_VALIDATE", hib::JsonValue::Int(validate ? 1 : 0))
      .Set("compiler", std::string(SIMBENCH_COMPILER))
      .Set("nproc", hib::JsonValue::Int(nproc))
      .Set("threads", hib::JsonValue::Int(wl->threads()))
      .Set("workload", o.workload)
      .Set("seed", hib::JsonValue::UInt(o.seed))
      .Set("scale", std::string(o.scale == simbench::Scale::kFull ? "full" : "smoke"))
      .Set("setups", hib::JsonValue::Int(static_cast<std::int64_t>(setups.size())))
      .Set("setup_slots", hib::JsonValue::Int(static_cast<std::int64_t>(rep_s.size()) + 1))
      .Set("untraced_reps", hib::JsonValue::Int(static_cast<std::int64_t>(rep_s.size())))
      .Set("trace_sample_every", hib::JsonValue::Int(simbench::kSampleEvery))
      .Set("host_numbers_comparable", hib::JsonValue::Bool(comparable));
  std::printf("manifest: %s\n", manifest.Dump().c_str());
  if (!comparable) {
    std::printf("WARNING: host numbers below come from a %s build (HIB_VALIDATE=%d, HIB_OBS=%d, "
                "scale %s); compare them only with runs of the same configuration\n",
                build_type.c_str(), validate ? 1 : 0, HIB_OBS,
                o.scale == simbench::Scale::kFull ? "full" : "smoke");
  }

  std::vector<double> setup_s;
  std::vector<double> calibrate_s;
  std::vector<double> compile_s;
  for (const simbench::SetupTiming& s : setups) {
    setup_s.push_back(s.total_s);
    calibrate_s.push_back(s.calibrate_s);
    compile_s.push_back(s.compile_s);
  }
  PrintSeries("setup_s", "s", setup_s);
  PrintSeries("  calibrate_s", "s", calibrate_s);
  PrintSeries("  compile_s", "s", compile_s);
  PrintSeries("untraced rep wall", "s", rep_s);
  PrintSeries("requests_per_s", "1/s", rep_rps);
  for (const hib::ExperimentResult& r : results) {
    std::printf("  run %-11s requests %10" PRId64 "  events %11" PRIu64
                "  energy %10.3f kJ  mean %9.4f ms  p99 %9.4f ms\n",
                r.policy_name.c_str(), r.requests, r.events, r.energy_total.value() / 1000.0,
                r.mean_response_ms.value(), r.p99_response_ms.value());
  }

  Metrics metrics;
  if (!o.trace) {
    metrics.Add("requests_per_s", QuartilesOf(rep_rps).median, "1/s");
    metrics.Add("setup_s", QuartilesOf(setup_s).median, "s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    AddSimulatedMetrics(results, wl->goal(), metrics);
  } else {
    auto reproduces = [&digests](const std::vector<hib::ExperimentResult>& runs) {
      bool same = runs.size() == digests.size();
      for (std::size_t i = 0; same && i < runs.size(); ++i) {
        same = simbench::ResultDigest(runs[i]) == digests[i];
      }
      return same;
    };
    TracedPasses traced;
    traced.shards.resize(static_cast<std::size_t>(wl->num_jobs()));
    Clock::time_point t0 = Clock::now();
    std::vector<hib::ExperimentResult> sharded = wl->RunShardPass(
        [&traced](int job, std::unique_ptr<hib::PowerPolicy> policy) {
          return std::make_unique<simbench::ShardSpanPolicy>(
              std::move(policy), &traced.shards[static_cast<std::size_t>(job)]);
        },
        checks);
    traced.shard_wall_s = SecondsSince(t0);
    checks.Expect(reproduces(sharded),
                  "shard pass reproduces the untraced simulated results bit for bit");

    traced.spans = RunSpanPass(*wl, &traced.span_wall_s);
    std::vector<hib::ExperimentResult> spanned;
    for (const simbench::TracedRun& t : traced.spans) {
      spanned.push_back(t.result);
      checks.Expect(t.in_flight_end == 0 && t.lost_accesses == 0 &&
                        t.injected == t.result.requests,
                    t.result.policy_name + ": traced run drained every injected record");
    }
    checks.Expect(reproduces(spanned),
                  "span pass reproduces the untraced simulated results bit for bit");
    std::printf("shard pass wall %.4f s, span pass wall %.4f s, untraced rep median %.4f s\n",
                traced.shard_wall_s, traced.span_wall_s, QuartilesOf(rep_s).median);
    AddLayerMetrics(traced, results, QuartilesOf(compile_s).median,
                    QuartilesOf(calibrate_s).median, wl->threads(), metrics);
    if (!o.spans_out.empty()) {
      WriteSpans(o.spans_out, o, traced);
    }
  }

  double failed_pct = 100.0 * Share(checks.failed(), checks.attempted());
  std::printf("checks: %d attempted, %d failed, failed_pct %.1f %%\n", checks.attempted(),
              checks.failed(), failed_pct);
  metrics.Print(o.trace ? "per-layer metrics:" : "end-to-end metrics:");
  std::printf("total wall %.2f s\n", SecondsSince(start));

  hib::JsonObject line;
  line.Set("correct", hib::JsonValue::Bool(checks.failed() == 0))
      .Set("attempted", hib::JsonValue::Int(checks.attempted()))
      .Set("failed", hib::JsonValue::Int(checks.failed()))
      .Set("metrics", metrics.Json());
  std::printf("%s\n", line.Dump().c_str());
  return 0;
}
