// Frequent tree mining end to end, with the pipeline internals exposed:
// strata statistics, the learned per-node time models, the LP partition
// plan, per-node execution times, and the SON candidate statistics that
// show why representative partitions matter.
//
// Build & run:  cmake --build build && ./build/examples/pattern_mining
#include <iostream>

#include "common/table.h"
#include "core/mining_workload.h"
#include "data/generators.h"
#include "runtime/runtime.h"

int main() {
  using namespace hetsim;

  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  const data::Dataset trees =
      data::generate_tree_corpus(data::swissprot_like(1.5), "protein-trees");
  std::cout << "corpus: " << trees.size() << " trees (Prufer-pivot item "
            << "sets, see src/data/tree.h)\n\n";

  core::PatternMiningWorkload workload(
      {.min_support = 0.05, .max_pattern_length = 2});
  // The paper's static run: no mid-job re-planning, one task per
  // partition.
  runtime::JobSpec spec;
  spec.sampling.min_records = 40;
  spec.alpha = 0.995;
  spec.normalized_alpha = false;
  spec.enable_replan = false;
  spec.checkpoint_records = trees.size();

  // Run the three strategies, each as one job on a fresh cluster; show
  // per-node times and SON statistics.
  for (const core::Strategy strategy :
       {core::Strategy::kStratified, core::Strategy::kHetAware,
        core::Strategy::kHetEnergyAware}) {
    cluster::Cluster cluster(cluster::standard_cluster(8));
    spec.strategy = strategy;
    runtime::JobRuntime job(cluster, energy, spec);
    const runtime::JobSummary r = job.run(trees, workload);

    if (strategy == core::Strategy::kStratified) {
      // Strata and models do not depend on the strategy: show them once.
      // Strata produced by minhash + compositeKModes.
      const stratify::Stratification& strata = job.strata();
      std::cout << "strata: " << strata.num_strata
                << " (zero-match fallbacks: " << strata.zero_match_assignments
                << ", kmodes iterations: " << strata.iterations << ")\n";
      std::cout << "stratum sizes:";
      for (const auto s : strata.stratum_sizes) std::cout << ' ' << s;
      std::cout << "\n\n";

      // Learned execution-time models f_i(x) = m_i x + c_i and dirty
      // rates.
      common::Table models({"node", "type", "slope (s/rec)", "intercept (s)",
                            "dirty rate (W)"});
      const auto& nm = job.node_models();
      for (std::size_t i = 0; i < nm.size(); ++i) {
        const auto& node = cluster.node(static_cast<std::uint32_t>(i));
        models.add_row({std::to_string(i),
                        "type" + std::to_string(static_cast<int>(node.type)),
                        common::format_double(nm[i].slope * 1e6, 3) + "e-6",
                        common::format_double(nm[i].intercept, 5),
                        common::format_double(nm[i].dirty_rate, 1)});
      }
      models.print(std::cout, "learned node models (progressive sampling)");
      std::cout << '\n';
    }

    // Per-node execution time: the node's chunk spans in the job trace.
    std::vector<double> node_exec_s(cluster.size(), 0.0);
    for (const runtime::TraceEvent& e : job.trace().events()) {
      if (e.kind == runtime::TraceEventKind::kComplete && e.name == "chunk") {
        node_exec_s[static_cast<std::size_t>(e.lane)] += e.duration_s;
      }
    }
    std::cout << core::strategy_name(strategy) << ": exec "
              << common::format_double(r.makespan_s, 4) << " s, dirty "
              << common::format_double(r.dirty_energy_j, 1) << " J\n";
    std::cout << "  partition sizes:";
    for (const auto s : r.initial_sizes) std::cout << ' ' << s;
    std::cout << "\n  node exec (s):";
    for (const auto t : node_exec_s) {
      std::cout << ' ' << common::format_double(t, 4);
    }
    std::cout << "\n  SON: " << workload.globally_frequent()
              << " frequent patterns, " << workload.union_candidates()
              << " candidates scanned, " << workload.false_positives()
              << " false positives pruned\n";
  }
  return 0;
}
