// Repository benchmark binary:
//
//   kspr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// Runs one workload and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end list below, measured untraced; with
// --trace 1 they are the per-layer list, measured by a separate traced
// run whose spans are written to DIR/spans-<workload>-<seed>.json. A
// per-layer metric of a layer the workload does not exercise reads 0; one
// of the layers it does exercise must be reported, and be non-zero unless
// it is a fault or cold-start count, or the run fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "harness.h"

namespace kspr::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"query_ms_p50", "ms"},     {"query_ms_p90", "ms"},
    {"throughput_qps", "1/s"},  {"cpu_ms_per_query", "ms"},
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"index.bulkload_ms", "ms"},
    {"index.skyband_ms_p50", "ms"},
    {"index.skyband_size", "count"},
    {"core.finalize_ms_p50", "ms"},
    {"core.cell_tree_nodes", "count"},
    {"core.processed_records", "count"},
    {"core.lookahead_reported", "count"},
    {"core.lookahead_pruned", "count"},
    {"core.tree_bytes", "bytes"},
    {"core.parallel_speedup_t2", "x"},
    {"lp.feasibility_lps", "count"},
    {"lp.bound_lps", "count"},
    {"lp.finalize_lps", "count"},
    {"lp.warm_starts", "count"},
    {"lp.cold_starts", "count"},
    {"lp.skipped_by_ball", "count"},
    {"lp.constraints_per_lp", "count"},
    {"storage.open_ms", "ms"},
    {"storage.pool_reads_per_query", "count"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.bytes_read_per_query", "bytes"},
    {"storage.read_ms_share", "ratio"},
    {"engine.queue_wait_ms_p50", "ms"},
    {"engine.queue_wait_ms_p90", "ms"},
    {"engine.service_ms_p50", "ms"},
    {"engine.hit_ms_p50", "ms"},
    {"engine.cache_hit_ratio", "ratio"},
    {"shard.scatter_ms_p50", "ms"},
    {"shard.merge_ms_p50", "ms"},
    {"shard.solve_ms_p50", "ms"},
    {"shard.candidates_merged", "count"},
    {"shard.candidates_solved", "count"},
    {"shard.router_hit_ratio", "ratio"},
    {"shard.cache_retained", "count"},
    {"shard.cache_dropped", "count"},
    {"shard.subscribers_notified", "count"},
    {"shard.subscribers_irrelevant", "count"},
    {"shard.shards_touched", "count"},
    {"shard.update_ms_p50", "ms"},
    {"shard.update_ms_p90", "ms"},
    {"net.rtt_us_p50", "us"},
    {"net.candidates_bytes", "bytes"},
    {"net.encode_us_p50", "us"},
    {"net.decode_us_p50", "us"},
    {"net.retries", "count"},
    {"net.timeouts", "count"},
    {"net.reconnects", "count"},
    {"net.failures", "count"},
    {"trace.overhead_pct", "%"},
};

/// Per-layer metrics that read 0 on a clean, warm run: LPs started cold
/// and the transport's fault counters.
const std::vector<std::string> kMayBeZero = {
    "lp.cold_starts", "net.retries",   "net.timeouts",
    "net.reconnects", "net.failures",
};

using RunFn = void (*)(const RunConfig&, Tracer*, Report*);

/// A workload, its entry point and the per-layer metrics it measures.
struct Workload {
  const char* name;
  RunFn run;
  std::vector<std::string> layers;
};

const std::vector<std::string> kSolverCounts = {
    "core.cell_tree_nodes", "core.processed_records",
    "core.lookahead_reported", "core.lookahead_pruned",
    "core.tree_bytes", "lp.feasibility_lps",
    "lp.bound_lps", "lp.finalize_lps",
    "lp.warm_starts", "lp.cold_starts",
    "lp.skipped_by_ball", "lp.constraints_per_lp",
};

std::vector<std::string> Join(std::vector<std::vector<std::string>> parts) {
  std::vector<std::string> out;
  for (std::vector<std::string>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"lpcta-serial", RunLpctaSerial,
       Join({{"index.bulkload_ms", "index.skyband_ms_p50",
              "index.skyband_size", "core.finalize_ms_p50",
              "core.parallel_speedup_t2", "trace.overhead_pct"},
             kSolverCounts})},
      {"engine-disk", RunEngineDisk,
       Join({{"index.bulkload_ms", "index.skyband_ms_p50",
              "index.skyband_size", "storage.open_ms",
              "storage.pool_reads_per_query", "storage.pool_hit_ratio",
              "storage.bytes_read_per_query", "storage.read_ms_share",
              "engine.queue_wait_ms_p50", "engine.queue_wait_ms_p90",
              "engine.service_ms_p50", "engine.hit_ms_p50",
              "engine.cache_hit_ratio", "trace.overhead_pct"},
             kSolverCounts})},
      {"sharded-churn", RunShardedChurn,
       {"shard.scatter_ms_p50", "shard.merge_ms_p50", "shard.solve_ms_p50",
        "shard.candidates_merged", "shard.candidates_solved",
        "shard.router_hit_ratio", "shard.cache_retained",
        "shard.cache_dropped", "shard.subscribers_notified",
        "shard.subscribers_irrelevant", "shard.shards_touched",
        "shard.update_ms_p50", "shard.update_ms_p90", "net.rtt_us_p50",
        "net.candidates_bytes", "net.encode_us_p50", "net.decode_us_p50",
        "net.retries", "net.timeouts", "net.reconnects", "net.failures",
        "trace.overhead_pct"}},
  };
  return workloads;
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: kspr_perfbench --workload "
               "lpcta-serial|engine-disk|sharded-churn --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0.0) ||
          config.seconds > 600.0) {
        Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    Usage("--workload, --seed and --seconds are required");
  }
  return config;
}

int Main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    Usage(("unknown workload " + config.workload).c_str());
  }
  Tracer tracer(config.trace);
  Report report;
  workload->run(config, &tracer, &report);

  // Every run prints the full metric list of its mode, nothing else.
  Report out;
  out.CountMany(report.attempted(), report.failed());
  for (const MetricSpec& spec : config.trace ? kPerLayer : kEndToEnd) {
    double value = 0.0;
    const bool own = !config.trace || Contains(workload->layers, spec.name);
    if (report.Find(spec.name, &value) != own) {
      std::fprintf(stderr, "perfbench: %s %s %s\n", workload->name,
                   own ? "did not report" : "reported unlisted", spec.name);
      return 1;
    }
    if (own && value == 0.0 && !Contains(kMayBeZero, spec.name)) {
      std::fprintf(stderr, "perfbench: %s reported 0 for %s\n",
                   workload->name, spec.name);
      return 1;
    }
    out.Metric(spec.name, value, spec.unit);
  }
  if (report.size() > out.size()) {
    std::fprintf(stderr, "perfbench: workload reported unlisted metrics\n");
    return 1;
  }

  if (config.trace && !config.out_dir.empty()) {
    const std::string path = config.out_dir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace kspr::perfbench

int main(int argc, char** argv) {
  try {
    return kspr::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
