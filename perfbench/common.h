#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/capacity.h"
#include "core/controller.h"
#include "layout/layout.h"

// Shared vocabulary of the benchmark's workloads: run options, the metric
// report each workload returns, wall-clock helpers, the correctness-check
// exception, and the 32-disk paper cell the workloads run at. Every
// timing here is the benchmark's own std::chrono::steady_clock span
// around a public library call.

namespace perfbench {

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  // Length of the measured phase of one run.
  double seconds = 55.0;
  // false: end-to-end metrics with nothing attached to the library.
  // true: per-layer metrics from a traced pass (plus an untraced pass of
  // the same length for the tracing overhead).
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  // Operations the run attempted and how many of them failed (block
  // deliveries).
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

// A program output that disagrees with its expected value. main() turns
// it into a nonzero exit with no result line.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Throws CheckFailure(what) unless `condition` holds. `what` is evaluated
// only on failure, so checks inside timed loops build no strings.
#define PERFBENCH_CHECK(condition, what)                     \
  do {                                                       \
    if (!(condition)) throw ::perfbench::CheckFailure(what); \
  } while (0)

// Linear-interpolation quantile (q in [0, 1]) of a sample set; 0 when
// empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set of this process so far, MiB.
double PeakRssMiB();

// The 32-disk declustered p = 4 cell that the §7 optimizer sizes for a
// 256 MB buffer — the cell steady_paper and churn_storm serve from.
struct PaperCell {
  int num_disks = 32;
  int parity_group = 4;
  int q = 0;
  int f = 0;
  std::int64_t block_size = 0;
  std::int64_t buffer_bytes = 0;
};

// §7 inputs of the Figure 5/6 grid at one (buffer, p) point.
cmfs::CapacityConfig PaperCapacityConfig(std::int64_t buffer_bytes,
                                         int parity_group);
// Integer PGT rows of the capacity simulation: (d-1)/(p-1), min 1.
int SimRows(int num_disks, int parity_group);
PaperCell Paper256Cell();

// Per-layer probes (probes.cc), each timed for about `seconds`.
// Throughput of PatternMatches / XorBytes at one block size, GB/s.
double ProbeVerifyGbps(std::int64_t block_size, double seconds);
double ProbeXorGbps(std::int64_t block_size, double seconds);

// Nanoseconds per DataAddress / GroupOf call over logical blocks
// [first, first + count) of space 0.
struct LayoutProbe {
  double data_address_ns = 0.0;
  double group_of_ns = 0.0;
};
LayoutProbe ProbeLayout(const cmfs::Layout& layout, std::int64_t first,
                        std::int64_t count, double seconds);

// Nanoseconds per Controller::TryAdmit on a controller that is already
// full at every start position in [first, first + count) of space 0 (the
// reject path). A probe that does get in is cancelled at once.
double ProbeTryAdmitNs(cmfs::Controller* controller, std::int64_t first,
                       std::int64_t count, std::int64_t length,
                       double seconds);

// The capacity simulator's controller state: a declustered controller
// on an ideal 32-disk p = 4 PGT with (q, f), filled to its limit.
// Reports the reject-path TryAdmit cost and the cost of one
// accounting-only Round.
struct ControllerProbe {
  double try_admit_ns = 0.0;
  double round_us = 0.0;
};
ControllerProbe ProbeSaturatedController(int q, int f, double seconds);

// Milliseconds per ComputeCapacity call (the paper cell's).
double ProbeComputeCapacityMs(double seconds);

// The Figure 6 capacity simulation (fig6_cells.cc): ten RunCapacitySim
// cells, every scheme at p = 4 / 256 MB and p = 32 / 2 GB, run `passes`
// times on this thread. Checks every cell's admitted count against the
// Figure 6 table; returns, per scheme name, the sum of its cells' fastest
// runs in seconds.
std::map<std::string, double> ProbeFig6CellsS(int passes);

// For workloads that do not build the paper cell's layout themselves:
// BuildDesign(32, 4) wall time plus the layout probe on a layout built
// from that design.
struct DataPathProbe {
  double build_design_s = 0.0;
  LayoutProbe layout;
};
DataPathProbe ProbePaperLayout(const PaperCell& cell, double seconds);

// Reports the round engine's phases from per-phase profiler totals
// (seconds over `rounds` rounds): server.<phase>_ms, self time per round
// (the phases do not nest); server.<phase>_share, its share of
// server.round; and server.round_coverage, the phases' sum over
// `round_span_s`.
void AddServerPhases(const std::map<std::string, double>& phase_s,
                     double rounds, double round_span_s, Report* report);

Report RunSteadyPaper(const RunOptions& options);
Report RunChurnStorm(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
