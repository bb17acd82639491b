// perfbench: paper-scale benchmark of the continuous-media server.
//
//   perfbench --workload <steady_paper|churn_storm>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload, checks its outputs, and prints one JSON line last:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// --trace 0 reports the end-to-end metrics, with nothing attached to the
// library. --trace 1 reports the per-layer metrics from a traced pass;
// a layer the workload does not exercise reads 0. A failed check prints
// the reason to stderr and exits 1 with no result line. NOTES.md explains
// every workload and metric.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace {

using perfbench::Metric;
using perfbench::Report;
using perfbench::RunOptions;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"rounds_per_s", "rounds/s"},
    {"deliver_gbps", "GB/s"},
    {"setup_s", "s"},
    {"admitted_sessions", "count"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"round_ms_p50", "ms"},
    {"round_ms_p90", "ms"},
    {"slo_violation_share", "ratio"},
    {"driver.cell_s.streaming-raid", "s"},
    {"driver.cell_s.declustered-parity", "s"},
    {"driver.cell_s.prefetch-without-parity-disk", "s"},
    {"driver.cell_s.prefetch-with-parity-disk", "s"},
    {"driver.cell_s.non-clustered", "s"},
    {"controller.try_admit_ns", "ns"},
    {"controller.round_us", "us"},
    {"analysis.compute_capacity_ms", "ms"},
    {"bibd.build_design_s", "s"},
    {"layout.populate_gbps", "GB/s"},
    {"server.round_ms.cold", "ms"},
    {"server.round_ms.warm", "ms"},
    {"server.plan_ms", "ms"},
    {"server.stage_ms", "ms"},
    {"server.lanes_ms", "ms"},
    {"server.merge_ms", "ms"},
    {"server.commit_ms", "ms"},
    {"server.deliver_ms", "ms"},
    {"server.cache_ms", "ms"},
    {"server.reconstruct_ms", "ms"},
    {"server.plan_share", "ratio"},
    {"server.stage_share", "ratio"},
    {"server.lanes_share", "ratio"},
    {"server.merge_share", "ratio"},
    {"server.commit_share", "ratio"},
    {"server.deliver_share", "ratio"},
    {"server.cache_share", "ratio"},
    {"server.reconstruct_share", "ratio"},
    {"server.round_coverage", "ratio"},
    {"lanes.busy_ratio", "ratio"},
    {"disk.reads_per_round", "count"},
    {"disk.read_gbps", "GB/s"},
    {"layout.data_address_ns", "ns"},
    {"layout.group_of_ns", "ns"},
    {"content.verify_gbps", "GB/s"},
    {"util.xor_gbps", "GB/s"},
    {"pool.high_water_blocks", "count"},
    {"cache.served_share", "ratio"},
    {"cache.hit_rate", "ratio"},
    {"cache.evictions", "count"},
    {"admission.requests", "count"},
    {"admission.rejected", "count"},
    {"admission.wait_rounds_p50", "rounds"},
    {"rebuild.round_ms", "ms"},
    {"rebuild.blocks", "count"},
    {"server.read_retries", "count"},
    {"server.inline_reconstructions", "count"},
    {"server.shed_streams", "count"},
    {"scenario.setup_s", "s"},
    {"trace.overhead_share", "ratio"},
};

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag.substr(0, 2) != "--") return false;
    args[std::string(flag.substr(2))] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload")) return false;
  options->workload = args["workload"];
  if (args.count("seed")) {
    options->seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  }
  if (args.count("seconds")) {
    options->seconds = std::atof(args["seconds"].c_str());
  }
  if (args.count("trace")) options->trace = args["trace"] == "1";
  return options->seconds > 0.0;
}

// Orders the report by the metric list, filling per-layer metrics the
// workload does not exercise with 0. Any other mismatch between the
// report and the list is a bug in the benchmark.
std::string MetricsJson(const Report& report,
                        const std::vector<MetricSpec>& specs,
                        bool fill_missing) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& metric : report.metrics) {
    PERFBENCH_CHECK(by_name.emplace(metric.name, &metric).second,
                    "metric reported twice: " + metric.name);
  }
  std::string json = "{";
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    PERFBENCH_CHECK(it != by_name.end() || fill_missing,
                    std::string("metric not reported: ") + spec.name);
    double value = 0.0;
    if (it != by_name.end()) {
      PERFBENCH_CHECK(it->second->unit == spec.unit,
                      std::string("wrong unit for ") + spec.name);
      value = it->second->value;
      by_name.erase(it);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (json.size() > 1) json += ", ";
    json += std::string("\"") + spec.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  PERFBENCH_CHECK(by_name.empty(),
                  "metric not in the list: " +
                      (by_name.empty() ? "" : by_name.begin()->first));
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    Report report;
    if (options.workload == "steady_paper") {
      report = perfbench::RunSteadyPaper(options);
    } else if (options.workload == "churn_storm") {
      report = perfbench::RunChurnStorm(options);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
      return 2;
    }
    const std::string metrics =
        options.trace ? MetricsJson(report, kPerLayer, /*fill_missing=*/true)
                      : MetricsJson(report, kEndToEnd, /*fill_missing=*/false);
    std::printf(
        "{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": %s}\n",
        static_cast<long long>(report.attempted),
        static_cast<long long>(report.failed), metrics.c_str());
    return 0;
  } catch (const perfbench::CheckFailure& failure) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", options.workload.c_str(),
                 failure.what());
    return 1;
  }
}
