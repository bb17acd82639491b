// Per-layer probes and the helpers every workload shares: the paper cell,
// peak RSS, and timed loops around single library calls.

#include <fstream>
#include <string>
#include <vector>

#include "bibd/design_factory.h"
#include "common.h"
#include "core/content.h"
#include "core/controller_factory.h"
#include "util/units.h"
#include "util/xor.h"

namespace perfbench {

using namespace cmfs;

// VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so it would
// report the launching process's peak when that is larger.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw CheckFailure("VmHWM missing from /proc/self/status");
}

CapacityConfig PaperCapacityConfig(std::int64_t buffer_bytes,
                                   int parity_group) {
  CapacityConfig config;
  config.disk = DiskParams::Sigmod96();
  config.server = ServerParams::Sigmod96(buffer_bytes);
  config.parity_group = parity_group;
  return config;
}

int SimRows(int num_disks, int parity_group) {
  const int rows = (num_disks - 1) / (parity_group - 1);
  return rows < 1 ? 1 : rows;
}

PaperCell Paper256Cell() {
  PaperCell cell;
  cell.buffer_bytes = 256 * kMiB;
  CapacityConfig config =
      PaperCapacityConfig(cell.buffer_bytes, cell.parity_group);
  config.rows_override =
      static_cast<double>(SimRows(cell.num_disks, cell.parity_group));
  Result<CapacityResult> cap = ComputeCapacity(Scheme::kDeclustered, config);
  PERFBENCH_CHECK(cap.ok() && cap->total_clips > 0,
                  "ComputeCapacity failed for the 32-disk p=4 256 MB cell");
  cell.q = cap->q;
  cell.f = cap->f;
  cell.block_size = cap->block_size;
  return cell;
}

void AddServerPhases(const std::map<std::string, double>& phase_s,
                     double rounds, double round_span_s, Report* report) {
  const auto total_s = [&](const std::string& name) {
    const auto it = phase_s.find(name);
    return it == phase_s.end() ? 0.0 : it->second;
  };
  const double round_s = total_s("server.round");
  double attributed = 0.0;
  for (const char* phase : {"plan", "stage", "lanes", "merge", "commit",
                            "deliver", "cache", "reconstruct"}) {
    const std::string name = std::string("server.") + phase;
    const double total = total_s(name);
    attributed += total;
    report->Add(name + "_ms", total * 1e3 / rounds, "ms");
    report->Add(name + "_share", total / round_s, "ratio");
  }
  report->Add("server.round_coverage", attributed / round_span_s, "ratio");
}

namespace {

// Runs `body(iteration)` in batches until `seconds` have passed and
// returns nanoseconds per call.
template <typename Body>
double NanosPerCall(double seconds, std::int64_t batch, Body body) {
  std::int64_t calls = 0;
  const WallClock::time_point t0 = WallClock::now();
  double elapsed = 0.0;
  do {
    for (std::int64_t i = 0; i < batch; ++i) body(calls + i);
    calls += batch;
    elapsed = SecondsSince(t0);
  } while (elapsed < seconds);
  return elapsed * 1e9 / static_cast<double>(calls);
}

}  // namespace

double ProbeVerifyGbps(std::int64_t block_size, double seconds) {
  const Block block = PatternBlock(0, 12345, block_size);
  std::int64_t mismatches = 0;
  const double ns = NanosPerCall(seconds, 8, [&](std::int64_t) {
    if (!PatternMatches(0, 12345, block.data(), block_size)) ++mismatches;
  });
  PERFBENCH_CHECK(mismatches == 0,
                  "PatternMatches rejected its own pattern block");
  return static_cast<double>(block_size) / ns;
}

double ProbeXorGbps(std::int64_t block_size, double seconds) {
  Block dst = PatternBlock(0, 1, block_size);
  const Block src = PatternBlock(0, 2, block_size);
  const Block original = dst;
  std::int64_t calls = 0;
  const double ns = NanosPerCall(seconds, 8, [&](std::int64_t) {
    XorBytes(dst.data(), src.data(), static_cast<std::size_t>(block_size));
    ++calls;
  });
  // XOR is an involution: an even number of applications restores dst.
  if (calls % 2 == 1) {
    XorBytes(dst.data(), src.data(), static_cast<std::size_t>(block_size));
  }
  PERFBENCH_CHECK(dst == original, "XorBytes is not an involution");
  return static_cast<double>(block_size) / ns;
}

LayoutProbe ProbeLayout(const Layout& layout, std::int64_t first,
                        std::int64_t count, double seconds) {
  LayoutProbe probe;
  std::int64_t sink = 0;
  // A stride coprime to most counts walks the range out of order.
  const auto index = [&](std::int64_t i) { return first + (i * 97) % count; };
  probe.data_address_ns = NanosPerCall(seconds / 2, 1024, [&](std::int64_t i) {
    sink += layout.DataAddress(0, index(i)).disk;
  });
  probe.group_of_ns = NanosPerCall(seconds / 2, 256, [&](std::int64_t i) {
    sink += layout.GroupOf(0, index(i)).parity.disk;
  });
  PERFBENCH_CHECK(sink >= 0, "layout probe produced a negative disk index");
  return probe;
}

double ProbeTryAdmitNs(Controller* controller, std::int64_t first,
                       std::int64_t count, std::int64_t length,
                       double seconds) {
  // An id far above any workload's stream ids.
  constexpr StreamId kProbeId = 1 << 30;
  return NanosPerCall(seconds, 64, [&](std::int64_t i) {
    if (controller->TryAdmit(kProbeId, 0, first + i % count, length)) {
      controller->Cancel(kProbeId);
    }
  });
}

double ProbeComputeCapacityMs(double seconds) {
  return NanosPerCall(seconds, 16, [](std::int64_t) { Paper256Cell(); }) /
         1e6;
}

DataPathProbe ProbePaperLayout(const PaperCell& cell, double seconds) {
  DataPathProbe probe;
  const WallClock::time_point t0 = WallClock::now();
  Result<FactoryDesign> built = BuildDesign(cell.num_disks, cell.parity_group);
  probe.build_design_s = SecondsSince(t0);
  PERFBENCH_CHECK(built.ok(), "BuildDesign(32, 4) failed");
  constexpr std::int64_t kBlocks = 1 << 16;
  SetupOptions options;
  options.scheme = Scheme::kDeclustered;
  options.num_disks = cell.num_disks;
  options.parity_group = cell.parity_group;
  options.q = cell.q;
  options.f = cell.f;
  options.capacity_blocks = kBlocks;
  options.design = std::move(built->design);
  Result<ServerSetup> setup = MakeSetup(options);
  PERFBENCH_CHECK(setup.ok(), "MakeSetup failed for the paper cell");
  probe.layout = ProbeLayout(*setup->layout, 0, kBlocks, seconds);
  return probe;
}

ControllerProbe ProbeSaturatedController(int q, int f, double seconds) {
  constexpr int kDisks = 32;
  constexpr int kParityGroup = 4;
  constexpr std::int64_t kLength = std::int64_t{1} << 30;
  const int rows = SimRows(kDisks, kParityGroup);
  SetupOptions options;
  options.scheme = Scheme::kDeclustered;
  options.num_disks = kDisks;
  options.parity_group = kParityGroup;
  options.q = q;
  options.f = f;
  options.ideal_pgt = true;
  options.ideal_rows = rows;
  options.capacity_blocks = kLength * 2;
  Result<ServerSetup> setup = MakeSetup(options);
  PERFBENCH_CHECK(setup.ok(), "MakeSetup failed for the controller probe");
  Controller* controller = setup->controller.get();
  // Two sweeps over every (disk, row) start slot fill each to its limit.
  const std::int64_t slots = std::int64_t{kDisks} * rows;
  StreamId id = 0;
  for (std::int64_t i = 0; i < 2 * slots * (f + 1); ++i) {
    if (controller->TryAdmit(id, 0, i, kLength)) ++id;
  }
  PERFBENCH_CHECK(id > 0, "controller probe admitted nothing");
  ControllerProbe probe;
  probe.try_admit_ns =
      ProbeTryAdmitNs(controller, 0, 2 * slots, kLength, seconds / 2);
  probe.round_us =
      NanosPerCall(seconds / 2, 4,
                   [&](std::int64_t) { controller->Round(-1, nullptr); }) /
      1e3;
  PERFBENCH_CHECK(controller->num_active() == id,
                  "controller probe lost streams");
  return probe;
}

}  // namespace perfbench
