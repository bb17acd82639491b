// steady_paper: the live round engine at paper scale.
//
// The 32-disk declustered p = 4 cell sized by §7 for a 256 MB buffer,
// the BIBD from BuildDesign(32, 4), content verification on. One clip,
// placed by GeneratePlacements from the run's seed, is populated with
// pattern data and parity; a static stream set at staggered start
// offsets fills the controller to its limit. One thread then calls
// Server::RunRound back to back (closed loop) with 4 lanes and no
// double buffering. Timing starts after a fixed warm-up.
//
// Lanes, arena staging, merge/commit and delivery verification do nearly
// all the work; admission, cache and faults sit idle.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bibd/design_factory.h"
#include "common.h"
#include "core/content.h"
#include "core/controller_factory.h"
#include "core/server.h"
#include "obs/phase_profiler.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace cmfs;

constexpr int kLanes = 4;
// Fixed warm-up: the buffer pool's high-water mark stops growing within
// the first few rounds (streams are admitted all at once and read one
// block per round each).
constexpr int kWarmupRounds = 16;
// Timed rounds per admitted stream set. Streams are one block longer
// than warm-up plus a segment, so none finishes inside it and every
// timed round delivers one block per stream.
constexpr std::int64_t kSegmentRounds = 400;
constexpr std::int64_t kStreamBlocks = kWarmupRounds + kSegmentRounds + 1;
// Candidate start offsets in the clip: twice the (disk, row) slots of a
// 10-row PGT, which covers every slot the controller can fill.
constexpr std::int64_t kStartOffsets = 2 * 32 * 10;
constexpr std::int64_t kClipBlocks = kStreamBlocks + kStartOffsets;
constexpr int kSetupRepeats = 3;
// Passes over the Figure 6 cells in the traced run (about 2.5 s each).
constexpr int kFig6Passes = 2;

// One populated, admitted and warmed-up server. Members are destroyed in
// reverse order, so the server goes before the array and controller it
// points into.
struct SteadyServer {
  ClipPlacement clip;
  ServerSetup setup;
  std::optional<DiskArray> array;
  std::optional<Server> server;
  int admitted = 0;
  // Set-up spans.
  double build_design_s = 0.0;
  double populate_s = 0.0;
  double setup_s = 0.0;
  double warmup_round_s = 0.0;  // mean over the warm-up rounds
};

// Offers one stream at every candidate start offset (stream id = offset,
// so every segment's stream set has the same buffer-pool keys); returns
// how many the controller admitted.
int AdmitStreamSet(SteadyServer& steady) {
  int admitted = 0;
  for (std::int64_t offset = 0; offset < kStartOffsets; ++offset) {
    if (steady.server->TryAdmit(static_cast<StreamId>(offset),
                                steady.clip.space,
                                steady.clip.start + offset, kStreamBlocks)) {
      ++admitted;
    }
  }
  return admitted;
}

void RunUntimed(Server& server, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    const Status st = server.RunRound();
    PERFBENCH_CHECK(st.ok(), "round failed: " + st.ToString());
  }
}

std::unique_ptr<SteadyServer> BuildSteady(const PaperCell& cell,
                                          std::uint64_t seed,
                                          PhaseProfiler* profiler) {
  auto steady = std::make_unique<SteadyServer>();
  const WallClock::time_point t0 = WallClock::now();

  Result<FactoryDesign> built = BuildDesign(cell.num_disks, cell.parity_group);
  PERFBENCH_CHECK(built.ok(), "BuildDesign(32, 4) failed");
  steady->build_design_s = SecondsSince(t0);

  Rng rng(seed);
  WorkloadConfig workload;
  workload.num_clips = 1;
  workload.clip_blocks = kClipBlocks;
  const std::vector<ClipPlacement> placements = GeneratePlacements(
      Scheme::kDeclustered, cell.num_disks, built->stats.min_replication,
      cell.parity_group, workload, rng);
  PERFBENCH_CHECK(placements.size() == 1,
                  "GeneratePlacements returned no clip");
  steady->clip = placements.front();

  SetupOptions options;
  options.scheme = Scheme::kDeclustered;
  options.num_disks = cell.num_disks;
  options.parity_group = cell.parity_group;
  options.q = cell.q;
  options.f = cell.f;
  options.capacity_blocks = RequiredCapacity(placements, {kClipBlocks});
  options.design = std::move(built->design);
  Result<ServerSetup> setup = MakeSetup(options);
  PERFBENCH_CHECK(setup.ok(), "MakeSetup failed for the paper cell");
  steady->setup = std::move(*setup);

  steady->array.emplace(cell.num_disks, DiskParams::Sigmod96(),
                        cell.block_size);
  const WallClock::time_point p0 = WallClock::now();
  for (std::int64_t i = 0; i < kClipBlocks; ++i) {
    const std::int64_t index = steady->clip.start + i;
    const Status st = WriteDataBlock(
        *steady->setup.layout, *steady->array, steady->clip.space, index,
        PatternBlock(steady->clip.space, index, cell.block_size));
    PERFBENCH_CHECK(st.ok(), "WriteDataBlock failed: " + st.ToString());
  }
  steady->populate_s = SecondsSince(p0);

  ServerConfig config;
  config.block_size = cell.block_size;
  config.buffer_bytes = cell.buffer_bytes;
  config.verify_content = true;
  config.lanes = kLanes;
  config.double_buffer = false;
  config.profiler = profiler;
  config.seed = seed;
  steady->server.emplace(&*steady->array, steady->setup.controller.get(),
                         config);
  steady->admitted = AdmitStreamSet(*steady);
  PERFBENCH_CHECK(steady->admitted > 0, "no stream admitted");

  const WallClock::time_point w0 = WallClock::now();
  RunUntimed(*steady->server, kWarmupRounds);
  steady->warmup_round_s = SecondsSince(w0) / kWarmupRounds;
  steady->setup_s = SecondsSince(t0);
  return steady;
}

struct TimedRounds {
  std::vector<double> round_s;  // one sample per timed RunRound
  std::int64_t deliveries = 0;
  std::int64_t reads = 0;
  // Profiler phase totals over the timed rounds only (traced pass).
  std::map<std::string, double> phase_s;

  double total_s() const {
    double total = 0.0;
    for (double s : round_s) total += s;
    return total;
  }
  double rounds_per_s() const {
    return static_cast<double>(round_s.size()) / total_s();
  }
};

// Timed rounds until `seconds` pass, in segments of kSegmentRounds: each
// segment's stream set runs out just after it, so between segments the
// set is cancelled and re-admitted, and one untimed round restarts the
// reads. Checks that every timed round delivered one verified block per
// stream.
TimedRounds RunTimed(SteadyServer& steady, double seconds,
                     PhaseProfiler* profiler) {
  Server& server = *steady.server;
  TimedRounds timed;
  const WallClock::time_point t0 = WallClock::now();
  for (int segment = 0; SecondsSince(t0) < seconds; ++segment) {
    if (segment > 0) {
      for (StreamId id = 0; id < kStartOffsets; ++id) {
        (void)server.CancelStream(id);  // NotFound for offsets not admitted
      }
      PERFBENCH_CHECK(AdmitStreamSet(steady) == steady.admitted,
                      "re-admission admitted a different stream set");
      RunUntimed(server, 1);
    }
    const ServerMetrics before = server.metrics();
    using Phases = std::map<std::string, PhaseProfiler::PhaseStats>;
    const Phases phases_before =
        profiler != nullptr ? profiler->phases() : Phases{};
    std::int64_t rounds = 0;
    while (rounds < kSegmentRounds && SecondsSince(t0) < seconds) {
      const WallClock::time_point r0 = WallClock::now();
      const Status st = server.RunRound();
      timed.round_s.push_back(SecondsSince(r0));
      PERFBENCH_CHECK(st.ok(), "round failed: " + st.ToString());
      ++rounds;
    }
    const ServerMetrics& after = server.metrics();
    const std::int64_t deliveries = after.deliveries - before.deliveries;
    PERFBENCH_CHECK(deliveries == steady.admitted * rounds,
                    "deliveries " + std::to_string(deliveries) +
                        " != admitted x timed rounds " +
                        std::to_string(steady.admitted * rounds));
    PERFBENCH_CHECK(after.hiccups == 0, "hiccups on a fault-free server");
    PERFBENCH_CHECK(after.lost_reads == 0, "lost reads on a fault-free server");
    PERFBENCH_CHECK(after.completed_streams == 0,
                    "a stream finished inside the run");
    timed.deliveries += deliveries;
    timed.reads += after.total_reads - before.total_reads;
    if (profiler != nullptr) {
      for (const auto& [name, stats] : profiler->phases()) {
        const auto it = phases_before.find(name);
        timed.phase_s[name] +=
            stats.total_s -
            (it == phases_before.end() ? 0.0 : it->second.total_s);
      }
    }
  }
  return timed;
}

}  // namespace

Report RunSteadyPaper(const RunOptions& options) {
  const PaperCell cell = Paper256Cell();
  Report report;

  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<SteadyServer> steady;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      steady.reset();  // free the previous instance first
      steady = BuildSteady(cell, options.seed, nullptr);
      setup_s.push_back(steady->setup_s);
    }
    const TimedRounds timed = RunTimed(*steady, options.seconds, nullptr);
    report.attempted = timed.deliveries;
    report.Add("rounds_per_s", timed.rounds_per_s(), "rounds/s");
    report.Add("deliver_gbps",
               static_cast<double>(timed.deliveries * cell.block_size) /
                   timed.total_s() / 1e9,
               "GB/s");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("admitted_sessions", steady->admitted, "count");
    report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    return report;
  }

  // Untraced pass: the end-to-end numbers the traced pass is compared to.
  double untraced_rps = 0.0;
  {
    std::unique_ptr<SteadyServer> steady =
        BuildSteady(cell, options.seed, nullptr);
    const TimedRounds timed = RunTimed(*steady, options.seconds / 2, nullptr);
    report.attempted += timed.deliveries;
    untraced_rps = timed.rounds_per_s();
    report.Add("round_ms_p50", Quantile(timed.round_s, 0.5) * 1e3, "ms");
    report.Add("round_ms_p90", Quantile(timed.round_s, 0.9) * 1e3, "ms");
  }

  // Traced pass: PhaseProfiler attached through ServerConfig::profiler.
  PhaseProfiler profiler;
  std::unique_ptr<SteadyServer> steady =
      BuildSteady(cell, options.seed, &profiler);
  const TimedRounds timed = RunTimed(*steady, options.seconds / 2, &profiler);
  report.attempted += timed.deliveries;
  const double rounds = static_cast<double>(timed.round_s.size());
  // Coverage against the benchmark's own RunRound spans.
  AddServerPhases(timed.phase_s, rounds, timed.total_s(), &report);
  report.Add("server.round_ms.cold", steady->warmup_round_s * 1e3, "ms");
  report.Add("server.round_ms.warm", timed.total_s() * 1e3 / rounds, "ms");
  report.Add("bibd.build_design_s", steady->build_design_s, "s");
  report.Add("layout.populate_gbps",
             static_cast<double>(kClipBlocks * cell.block_size) /
                 steady->populate_s / 1e9,
             "GB/s");
  report.Add("pool.high_water_blocks",
             static_cast<double>(
                 steady->server->metrics().buffer_high_water_blocks),
             "count");
  report.Add("lanes.busy_ratio", profiler.lanes().busy_ratio.mean(), "ratio");
  report.Add("disk.reads_per_round", static_cast<double>(timed.reads) / rounds,
             "count");
  report.Add("disk.read_gbps",
             static_cast<double>(timed.reads * cell.block_size) /
                 timed.phase_s.at("server.lanes") / 1e9,
             "GB/s");
  report.Add("trace.overhead_share",
             1.0 - timed.rounds_per_s() / untraced_rps, "ratio");

  // Probes at this workload's block size, layout and controller state.
  const LayoutProbe layout = ProbeLayout(
      *steady->setup.layout, steady->clip.start, kClipBlocks, 0.4);
  report.Add("layout.data_address_ns", layout.data_address_ns, "ns");
  report.Add("layout.group_of_ns", layout.group_of_ns, "ns");
  report.Add("controller.try_admit_ns",
             ProbeTryAdmitNs(steady->setup.controller.get(),
                             steady->clip.start, kStartOffsets,
                             kStreamBlocks, 0.2),
             "ns");
  report.Add("controller.round_us",
             ProbeSaturatedController(cell.q, cell.f, 0.4).round_us, "us");
  report.Add("analysis.compute_capacity_ms", ProbeComputeCapacityMs(0.2),
             "ms");
  report.Add("content.verify_gbps", ProbeVerifyGbps(cell.block_size, 0.3),
             "GB/s");
  report.Add("util.xor_gbps", ProbeXorGbps(cell.block_size, 0.3), "GB/s");

  // The capacity simulation behind Figure 6, the paper's other measure of
  // the same controllers: admitted counts checked, time per scheme.
  for (const auto& [scheme, seconds] : ProbeFig6CellsS(kFig6Passes)) {
    report.Add("driver.cell_s." + scheme, seconds, "s");
  }
  return report;
}

}  // namespace perfbench
