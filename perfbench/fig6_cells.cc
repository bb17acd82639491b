// The §8.2 capacity simulation behind Figure 6, as a per-layer probe.
//
// RunCapacitySim with first-fit admission over ten Figure 6 grid cells:
// every scheme at p = 4 / 256 MB and at p = 32 / 2 GB. 32 disks, 1000
// clips of 50 TU, Poisson arrivals at 20/TU, 6000 rounds per cell, q/f
// from ComputeCapacity with integer PGT rows. Cells run one after another
// on the calling thread with no fault drills. Only admission state
// advances (no bytes move), so the controllers and the pending-list scan
// do all the work. The inputs are the paper's fixed catalog and arrival
// stream: every cell's admitted count must equal the Figure 6 table.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/controller_factory.h"
#include "sim/driver.h"
#include "util/units.h"

namespace perfbench {
namespace {

using namespace cmfs;

struct Fig6Cell {
  Scheme scheme;
  int parity_group;
  std::int64_t buffer_mb;
  // Clips admitted in 600 TU, as printed by bench/bench_fig6_simulation.
  std::int64_t admitted;
};

const std::vector<Fig6Cell>& Cells() {
  static const std::vector<Fig6Cell> kCells = {
      {Scheme::kStreamingRaid, 4, 256, 5472},
      {Scheme::kStreamingRaid, 32, 2048, 6232},
      {Scheme::kDeclustered, 4, 256, 7680},
      {Scheme::kDeclustered, 32, 2048, 5376},
      {Scheme::kPrefetchFlat, 4, 256, 6912},
      {Scheme::kPrefetchFlat, 32, 2048, 4224},
      {Scheme::kPrefetchParityDisk, 4, 256, 5760},
      {Scheme::kPrefetchParityDisk, 32, 2048, 6912},
      {Scheme::kNonClustered, 4, 256, 6624},
      {Scheme::kNonClustered, 32, 2048, 7935},
  };
  return kCells;
}

constexpr int kNumDisks = 32;

SimConfig CellConfig(const Fig6Cell& cell) {
  const int rows = SimRows(kNumDisks, cell.parity_group);
  CapacityConfig config =
      PaperCapacityConfig(cell.buffer_mb * kMiB, cell.parity_group);
  config.rows_override = static_cast<double>(rows);
  Result<CapacityResult> cap = ComputeCapacity(cell.scheme, config);
  PERFBENCH_CHECK(cap.ok() && cap->total_clips > 0,
                  std::string("ComputeCapacity failed for ") +
                      SchemeName(cell.scheme));
  SimConfig sim;
  sim.scheme = cell.scheme;
  sim.num_disks = kNumDisks;
  sim.parity_group = cell.parity_group;
  sim.q = cap->q;
  sim.f = cap->f;
  sim.rows = rows;
  sim.policy = AdmissionPolicy::kFirstFit;
  return sim;
}

}  // namespace

std::map<std::string, double> ProbeFig6CellsS(int passes) {
  std::vector<SimConfig> configs;
  for (const Fig6Cell& cell : Cells()) configs.push_back(CellConfig(cell));

  // Each cell's fastest run across the passes: the cells are
  // deterministic single-threaded work, so host contention can only add
  // to a cell's time.
  std::vector<double> fastest(Cells().size(), 0.0);
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < Cells().size(); ++i) {
      const Fig6Cell& cell = Cells()[i];
      const WallClock::time_point t0 = WallClock::now();
      Result<SimResult> result = RunCapacitySim(configs[i]);
      const double cell_s = SecondsSince(t0);
      fastest[i] = pass == 0 ? cell_s : std::min(fastest[i], cell_s);
      PERFBENCH_CHECK(result.ok(),
                      std::string("RunCapacitySim failed for ") +
                          SchemeName(cell.scheme));
      PERFBENCH_CHECK(result->admitted == cell.admitted,
                      std::string("Figure 6 admitted mismatch for ") +
                          SchemeName(cell.scheme) + " p=" +
                          std::to_string(cell.parity_group) + " B=" +
                          std::to_string(cell.buffer_mb) + "MB: got " +
                          std::to_string(result->admitted) + ", expected " +
                          std::to_string(cell.admitted));
    }
  }

  std::map<std::string, double> scheme_s;
  for (std::size_t i = 0; i < Cells().size(); ++i) {
    scheme_s[SchemeName(Cells()[i].scheme)] += fastest[i];
  }
  return scheme_s;
}

}  // namespace perfbench
