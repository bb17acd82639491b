// churn_storm: online admission, stream cache and a fault storm on the
// paper cell, through RunScenario.
//
// The 32-disk declustered p = 4 cell of steady_paper with 4 lanes.
// Sessions arrive as a Poisson process (several per round) over a
// 32-clip catalog with zipf popularity, and pause, resume and seek
// mid-life; every arrival goes through the busiest-disk AdmissionEngine
// bound. A StreamCache with a small budget serves most reads, the disks
// the rest. The HealthMonitor is on. One fault schedule plays inside the
// run: a transient-error window, a slow-disk window (which sheds
// streams), a fail-stop, then a swap with online rebuild. Arrivals are
// open loop in simulated rounds; RunScenario calls run back to back.
//
// The run's seed drives the two churn timelines; the design, placements
// and fault decisions use the scenario's fixed seed.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/health_monitor.h"
#include "obs/phase_profiler.h"
#include "sim/failure_drill.h"

namespace perfbench {
namespace {

using namespace cmfs;

constexpr int kLanes = 4;
constexpr std::int64_t kTotalRounds = 400;
// Churn timelines per run, derived from the run's seed. Summing the
// admitted sessions of two timelines halves the seed-to-seed variance of
// the count.
constexpr int kTimelines = 2;
constexpr int kSetupRepeats = 3;
// The seed whose counts are recorded in kReferenceCounts.
constexpr std::uint64_t kReferenceSeed = 1;

FaultSchedule StormSchedule() {
  FaultSchedule schedule;
  schedule.transients.push_back(TransientWindow{1, 40, 80, 1.0, 2});
  schedule.slow_windows.push_back(SlowWindow{2, 120, 160, 1});
  schedule.fail_stops.push_back(FailStopEvent{3, 200});
  schedule.swaps.push_back(SwapEvent{3, 240, 5});
  return schedule;
}

ScenarioConfig StormConfig(const PaperCell& cell, std::uint64_t seed) {
  ScenarioConfig config;
  config.scheme = Scheme::kDeclustered;
  config.num_disks = cell.num_disks;
  config.parity_group = cell.parity_group;
  config.q = cell.q;
  config.f = cell.f;
  config.block_size = cell.block_size;
  config.total_rounds = kTotalRounds;
  config.priority_classes = 6;
  config.lanes = kLanes;
  config.schedule = StormSchedule();
  config.churn = true;
  config.churn_config.num_clips = 32;
  config.churn_config.clip_blocks = 66;
  config.churn_config.arrivals_per_round = 4.0;
  config.churn_config.zipf_theta = 0.8;
  config.churn_config.pause_prob = 0.2;
  config.churn_config.mean_pause_rounds = 6.0;
  config.churn_config.seek_prob = 0.15;
  config.churn_config.seed = seed;
  config.admission.bound = AdmissionBound::kBusiestDisk;
  config.cache = true;
  config.cache_config.budget_blocks = 256;
  config.cache_config.window_rounds = 8;
  config.cache_config.prefix_blocks = 8;
  config.cache_config.hot_clips = 6;
  return config;
}

// The deterministic outcome of one scenario.
struct Counts {
  std::int64_t admitted = 0;
  std::int64_t requests = 0;
  std::int64_t rejected = 0;
  std::int64_t deliveries = 0;
  std::int64_t hiccups = 0;
  std::int64_t shed = 0;
  std::int64_t cache_served = 0;
  std::int64_t rebuilt_blocks = 0;
  std::int64_t slo_violations = 0;
  std::int64_t disk_reads = 0;

  bool operator==(const Counts&) const = default;

  std::string ToString() const {
    return "admitted=" + std::to_string(admitted) +
           " requests=" + std::to_string(requests) +
           " rejected=" + std::to_string(rejected) +
           " deliveries=" + std::to_string(deliveries) +
           " hiccups=" + std::to_string(hiccups) +
           " shed=" + std::to_string(shed) +
           " cache_served=" + std::to_string(cache_served) +
           " rebuilt_blocks=" + std::to_string(rebuilt_blocks) +
           " slo_violations=" + std::to_string(slo_violations) +
           " disk_reads=" + std::to_string(disk_reads);
  }
};

// Summed over the kTimelines timelines of kReferenceSeed.
constexpr Counts kReferenceCounts = {
    .admitted = 2764,
    .requests = 4010,
    .rejected = 897,
    .deliveries = 126975,
    .hiccups = 0,
    .shed = 174,
    .cache_served = 108981,
    .rebuilt_blocks = 24,
    .slo_violations = 174,
    .disk_reads = 20182,
};

Counts& operator+=(Counts& total, const Counts& add) {
  total.admitted += add.admitted;
  total.requests += add.requests;
  total.rejected += add.rejected;
  total.deliveries += add.deliveries;
  total.hiccups += add.hiccups;
  total.shed += add.shed;
  total.cache_served += add.cache_served;
  total.rebuilt_blocks += add.rebuilt_blocks;
  total.slo_violations += add.slo_violations;
  total.disk_reads += add.disk_reads;
  return total;
}

struct Call {
  ScenarioResult result;
  Counts counts;
  double wall_s = 0.0;
};

Call RunCall(const ScenarioConfig& config) {
  HealthMonitor health;  // fresh per call: RunScenario adds its rules
  ScenarioConfig with_health = config;
  with_health.health = &health;
  const WallClock::time_point t0 = WallClock::now();
  Result<ScenarioResult> result = RunScenario(with_health);
  Call call;
  call.wall_s = SecondsSince(t0);
  PERFBENCH_CHECK(result.ok(),
                  "RunScenario failed: " + result.status().ToString());
  call.result = std::move(*result);
  const ScenarioResult& r = call.result;
  call.counts = Counts{r.admission.admitted,  r.admission.requests,
                       r.admission.rejected,  r.metrics.deliveries,
                       r.metrics.hiccups,     r.metrics.shed_streams,
                       r.cache.served_reads,  r.rebuilt_blocks,
                       r.slo_violations,      r.metrics.total_reads};
  PERFBENCH_CHECK(r.metrics.hiccups == 0 && r.metrics.lost_reads == 0,
                  "missed deliveries under a single failure: " +
                      call.counts.ToString());
  PERFBENCH_CHECK(r.completed_rebuilds == 1,
                  "the online rebuild did not complete");
  PERFBENCH_CHECK(r.cache.hits + r.cache.misses + r.cache.evict_fallbacks ==
                      r.cache.follower_demand,
                  "cache demand does not reconcile");
  PERFBENCH_CHECK(r.cache.served_reads == r.metrics.cache_served_reads,
                  "cache and server disagree on served reads");
  PERFBENCH_CHECK(r.admitted == r.admission.admitted && r.admitted > 0,
                  "no session admitted");
  return call;
}

struct Batch {
  std::vector<Call> calls;  // in call order
  Counts total;             // one run of every timeline, summed
};

// Calls round-robin over the timelines until `seconds` pass and each
// timeline ran `min_repeats` times; every repeat of a timeline must
// reproduce its first counts.
Batch RunCalls(const std::vector<ScenarioConfig>& configs, double seconds,
               int min_repeats) {
  Batch batch;
  const int min_calls = min_repeats * static_cast<int>(configs.size());
  const WallClock::time_point t0 = WallClock::now();
  for (int i = 0; i < min_calls || SecondsSince(t0) < seconds; ++i) {
    const int timeline = i % static_cast<int>(configs.size());
    batch.calls.push_back(RunCall(configs[timeline]));
    const Counts& counts = batch.calls.back().counts;
    if (i < static_cast<int>(configs.size())) {
      batch.total += counts;
    } else {
      const Counts& first = batch.calls[timeline].counts;
      PERFBENCH_CHECK(counts == first,
                      "RunScenario is not deterministic: " + counts.ToString() +
                          " vs " + first.ToString());
    }
  }
  return batch;
}

// The summed wall time of each timeline's fastest call. The calls are
// deterministic, so host contention can only add to a call's time; the
// fastest repeat is the steadiest estimate of its cost.
double FastestTimelinesS(const Batch& batch) {
  std::vector<double> fastest(kTimelines, 0.0);
  for (std::size_t i = 0; i < batch.calls.size(); ++i) {
    double& best = fastest[i % fastest.size()];
    const double wall_s = batch.calls[i].wall_s;
    best = best == 0.0 ? wall_s : std::min(best, wall_s);
  }
  double total_s = 0.0;
  for (double s : fastest) total_s += s;
  return total_s;
}

// Simulated rounds over the batch's summed wall time.
double RoundsPerWallSecond(const Batch& batch) {
  double wall_s = 0.0;
  for (const Call& call : batch.calls) wall_s += call.wall_s;
  return static_cast<double>(kTotalRounds * batch.calls.size()) / wall_s;
}

void CheckReference(const Counts& total, std::uint64_t seed) {
  if (seed != kReferenceSeed) return;
  PERFBENCH_CHECK(total == kReferenceCounts,
                  "counts differ from the seed-" +
                      std::to_string(kReferenceSeed) + " reference: " +
                      total.ToString());
}

}  // namespace

Report RunChurnStorm(const RunOptions& options) {
  const PaperCell cell = Paper256Cell();
  std::vector<ScenarioConfig> configs;
  for (int i = 0; i < kTimelines; ++i) {
    configs.push_back(StormConfig(cell, options.seed * kTimelines + i));
  }
  Report report;

  if (!options.trace) {
    // Set-up: the first timeline cut to one fault-free round, which is
    // RunScenario's in-call set-up (design, placements, populate, cache
    // and server construction) plus one round.
    ScenarioConfig setup_config = configs.front();
    setup_config.total_rounds = 1;
    setup_config.schedule = FaultSchedule{};
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const WallClock::time_point t0 = WallClock::now();
      Result<ScenarioResult> result = RunScenario(setup_config);
      setup_s.push_back(SecondsSince(t0));
      PERFBENCH_CHECK(result.ok(), "one-round scenario failed");
    }
    const Batch batch = RunCalls(configs, options.seconds, 2);
    CheckReference(batch.total, options.seed);
    for (const Call& call : batch.calls) {
      report.attempted += call.counts.deliveries + call.counts.hiccups;
      report.failed += call.counts.hiccups;
    }
    const double fastest_s = FastestTimelinesS(batch);
    report.Add("rounds_per_s",
               static_cast<double>(kTotalRounds * kTimelines) / fastest_s,
               "rounds/s");
    report.Add("deliver_gbps",
               static_cast<double>(batch.total.deliveries * cell.block_size) /
                   fastest_s / 1e9,
               "GB/s");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("admitted_sessions", static_cast<double>(batch.total.admitted),
               "count");
    report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    return report;
  }

  const Batch untraced = RunCalls(configs, options.seconds / 2, 1);
  CheckReference(untraced.total, options.seed);
  for (const Call& call : untraced.calls) {
    report.attempted += call.counts.deliveries;
  }
  report.Add("slo_violation_share",
             static_cast<double>(untraced.total.slo_violations) /
                 static_cast<double>(untraced.total.admitted),
             "ratio");

  // Traced calls, one per timeline, sharing one PhaseProfiler attached
  // through ScenarioConfig::profiler.
  PhaseProfiler profiler;
  std::vector<ScenarioConfig> traced_configs = configs;
  for (ScenarioConfig& config : traced_configs) config.profiler = &profiler;
  const Batch traced = RunCalls(traced_configs, 0.0, 1);
  PERFBENCH_CHECK(traced.total == untraced.total,
                  "the profiler changed the scenario outcome");
  report.attempted += traced.total.deliveries;
  std::map<std::string, double> phase_s;
  for (const auto& [name, stats] : profiler.phases()) {
    phase_s[name] = stats.total_s;
  }
  const double rounds = static_cast<double>(kTotalRounds * kTimelines);
  // Coverage against server.round: RunScenario drives the rounds itself.
  AddServerPhases(phase_s, rounds, phase_s["server.round"], &report);
  report.Add("server.round_ms.warm", phase_s["server.round"] * 1e3 / rounds,
             "ms");
  double traced_wall = 0.0;
  for (const Call& call : traced.calls) traced_wall += call.wall_s;
  report.Add("scenario.setup_s",
             (traced_wall - phase_s["scenario.run"]) / kTimelines, "s");
  const auto phases = profiler.phases();
  const auto rebuild = phases.find("rebuild.round");
  report.Add("rebuild.round_ms",
             rebuild == phases.end() ? 0.0
                                     : rebuild->second.time_s.mean() * 1e3,
             "ms");
  report.Add("lanes.busy_ratio", profiler.lanes().busy_ratio.mean(), "ratio");
  report.Add("trace.overhead_share",
             1.0 - RoundsPerWallSecond(traced) / RoundsPerWallSecond(untraced),
             "ratio");

  // Outcome totals over the traced calls.
  ServerMetrics metrics;
  StreamCacheSummary cache;
  Histogram wait_rounds;
  std::int64_t requests = 0;
  std::int64_t rejected = 0;
  for (const Call& call : traced.calls) {
    const ScenarioResult& r = call.result;
    metrics.total_reads += r.metrics.total_reads;
    metrics.read_retries += r.metrics.read_retries;
    metrics.inline_reconstructions += r.metrics.inline_reconstructions;
    metrics.shed_streams += r.metrics.shed_streams;
    metrics.buffer_high_water_blocks = std::max(
        metrics.buffer_high_water_blocks, r.metrics.buffer_high_water_blocks);
    cache.served_reads += r.cache.served_reads;
    cache.hits += r.cache.hits;
    cache.follower_demand += r.cache.follower_demand;
    cache.evictions += r.cache.evictions;
    requests += r.admission.requests;
    rejected += r.admission.rejected;
    wait_rounds.Merge(r.admission.wait_rounds);
  }
  report.Add("disk.reads_per_round",
             static_cast<double>(metrics.total_reads) / rounds, "count");
  report.Add("disk.read_gbps",
             static_cast<double>(metrics.total_reads * cell.block_size) /
                 phase_s["server.lanes"] / 1e9,
             "GB/s");
  report.Add("pool.high_water_blocks",
             static_cast<double>(metrics.buffer_high_water_blocks), "count");
  report.Add("cache.served_share",
             static_cast<double>(cache.served_reads) /
                 static_cast<double>(cache.served_reads + metrics.total_reads),
             "ratio");
  report.Add("cache.hit_rate",
             static_cast<double>(cache.hits) /
                 static_cast<double>(cache.follower_demand),
             "ratio");
  report.Add("cache.evictions", static_cast<double>(cache.evictions), "count");
  report.Add("admission.requests", static_cast<double>(requests), "count");
  report.Add("admission.rejected", static_cast<double>(rejected), "count");
  report.Add("admission.wait_rounds_p50", wait_rounds.p50(), "rounds");
  report.Add("rebuild.blocks", static_cast<double>(traced.total.rebuilt_blocks),
             "count");
  report.Add("server.read_retries", static_cast<double>(metrics.read_retries),
             "count");
  report.Add("server.inline_reconstructions",
             static_cast<double>(metrics.inline_reconstructions), "count");
  report.Add("server.shed_streams", static_cast<double>(metrics.shed_streams),
             "count");

  // Probes at this workload's block size and cell.
  const DataPathProbe data_path = ProbePaperLayout(cell, 0.4);
  report.Add("bibd.build_design_s", data_path.build_design_s, "s");
  report.Add("layout.data_address_ns", data_path.layout.data_address_ns, "ns");
  report.Add("layout.group_of_ns", data_path.layout.group_of_ns, "ns");
  const ControllerProbe controller =
      ProbeSaturatedController(cell.q, cell.f, 0.4);
  report.Add("controller.try_admit_ns", controller.try_admit_ns, "ns");
  report.Add("controller.round_us", controller.round_us, "us");
  report.Add("analysis.compute_capacity_ms", ProbeComputeCapacityMs(0.2),
             "ms");
  report.Add("content.verify_gbps", ProbeVerifyGbps(cell.block_size, 0.3),
             "GB/s");
  report.Add("util.xor_gbps", ProbeXorGbps(cell.block_size, 0.3), "GB/s");
  return report;
}

}  // namespace perfbench
