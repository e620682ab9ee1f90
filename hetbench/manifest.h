// The benchmark's contract: its workloads, its metrics and their
// bounds. BENCHMARK.json at the repository root is generated from these
// tables (`hetbench --manifest`, written by `run.py --all`), and the
// driver prints exactly these metrics, so the two cannot drift apart.
#pragma once

#include <array>
#include <string_view>

namespace hetbench {

/// Seconds one run spends running jobs (set-up and the oracles'
/// reference computations come on top).
inline constexpr int kRunSeconds = 20;

struct WorkloadDef {
  std::string_view name;
  std::string_view why;
};

inline constexpr std::array<WorkloadDef, 3> kWorkloads = {{
    {"tree-son",
     "SON subtree mining: host time is the global prune (contains_subtree); "
     "exercises the mining kernel and bypasses stratify"},
    {"graph-energy",
     "webgraph compression at alpha 0.6: stratify dominates host and virtual "
     "setup; exercises k-modes, the alpha<1 LP and compress, no global phase"},
    {"text-ha-replan",
     "SON-Apriori with replication 2 and a 2.5x hidden straggler: the only "
     "write path, through the ha fan-out, replans and kvstore migrations"},
}};

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  // "lower" or "higher"
  /// Share of the parent's median by which the metric may worsen; end-to-
  /// end metrics only (negative = no bound, per-layer).
  double bound;
};

/// Printed with --trace 0.
inline constexpr std::array<MetricDef, 6> kEndToEnd = {{
    {"job_wall_s", "s", "lower", 0.25},
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mb", "MiB", "lower", 0.15},
    {"sim_setup_s", "s", "lower", 0.25},
    {"sim_makespan_s", "s", "lower", 0.2},
    {"sim_dirty_energy_j", "J", "lower", 0.2},
}};

/// Printed with --trace 1. Metrics that do not apply to a workload (a
/// global phase on graph-energy, compression on the miners) read 0.
inline constexpr std::array<MetricDef, 38> kPerLayer = {{
    {"data.generate_s", "s", "lower", -1},
    {"core.workload_run_s", "s", "lower", -1},
    {"core.workload_run_calls", "count", "lower", -1},
    {"core.workload_global_s", "s", "lower", -1},
    {"runtime.pipeline_s", "s", "lower", -1},
    {"sketch.sketch_all_s", "s", "lower", -1},
    {"stratify.kmodes_s", "s", "lower", -1},
    {"stratify.iterations", "count", "lower", -1},
    {"stratify.work_ops", "count", "lower", -1},
    {"optimize.solve_s", "s", "lower", -1},
    {"optimize.frontier_s", "s", "lower", -1},
    {"partition.make_partitions_s", "s", "lower", -1},
    {"kvstore.codec_s", "s", "lower", -1},
    {"runtime.v_ingest_s", "s", "lower", -1},
    {"runtime.v_stratify_s", "s", "lower", -1},
    {"runtime.v_estimate_s", "s", "lower", -1},
    {"runtime.v_partition_s", "s", "lower", -1},
    {"runtime.v_execute_s", "s", "lower", -1},
    {"runtime.v_global_s", "s", "lower", -1},
    {"cluster.setup_work_units", "count", "lower", -1},
    {"cluster.work_units", "count", "lower", -1},
    {"net.messages", "count", "lower", -1},
    {"net.round_trips", "count", "lower", -1},
    {"net.bytes", "B", "lower", -1},
    {"ha.replica_writes", "count", "lower", -1},
    {"ha.elections", "count", "lower", -1},
    {"runtime.replans", "count", "lower", -1},
    {"runtime.migrated_records", "count", "lower", -1},
    {"runtime.migrated_bytes", "B", "lower", -1},
    {"mining.union_candidates", "count", "lower", -1},
    {"mining.false_positives", "count", "lower", -1},
    {"mining.globally_frequent", "count", "higher", -1},
    {"mining.union_per_frequent", "ratio", "lower", -1},
    {"mining.false_positives_per_frequent", "ratio", "lower", -1},
    {"compress.ratio", "ratio", "higher", -1},
    {"trace.job_wall_s", "s", "lower", -1},
    {"trace.overhead_s", "s", "lower", -1},
    {"trace.untraced_job_wall_s", "s", "lower", -1},
}};

}  // namespace hetbench
