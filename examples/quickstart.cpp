// Quickstart: the whole pipeline in ~60 lines.
//
//  1. generate a topical document corpus,
//  2. describe the job: stratify, learn per-node time models, forecast
//     green energy, plan partition sizes with the Pareto LP,
//  3. run frequent pattern mining under three partitioning strategies,
//     each as one runtime job on a heterogeneous 8-node cluster (4
//     machine classes, 4 solar locations),
//  4. compare makespan and dirty energy.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "common/table.h"
#include "core/mining_workload.h"
#include "data/generators.h"
#include "runtime/runtime.h"

int main() {
  using namespace hetsim;

  // 72h of per-location green-energy forecast for the cluster's four
  // solar locations.
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);

  // A synthetic topical corpus standing in for RCV1 (see DESIGN.md).
  const data::Dataset corpus =
      data::generate_text_corpus(data::rcv1_like(0.5), "quickstart-corpus");
  std::cout << "corpus: " << corpus.size() << " documents, "
            << corpus.total_items() << " tokens\n\n";

  // The workload: distributed frequent pattern mining (SON + Apriori).
  core::PatternMiningWorkload workload(
      {.min_support = 0.08, .max_pattern_length = 3});

  // Job setup: sketch + stratify the corpus, learn execution-time
  // models by progressive sampling, bind green-energy forecasts. No
  // mid-job re-planning and one chunk per partition: the paper's static
  // run, where each node processes its partition as one task.
  runtime::JobSpec spec;
  spec.sampling.min_records = 40;
  spec.alpha = 0.995;  // Het-Energy-Aware tradeoff point
  spec.normalized_alpha = false;
  spec.enable_replan = false;
  spec.checkpoint_records = corpus.size();

  // Compare the partitioning strategies of the paper.
  common::Table table({"strategy", "setup (s)", "time (s)", "dirty (J)",
                       "green (J)", "# patterns"});
  for (const core::Strategy strategy :
       {core::Strategy::kStratified, core::Strategy::kHetAware,
        core::Strategy::kHetEnergyAware}) {
    // Nodes of relative speeds 4/3/2/1; a fresh cluster per job.
    cluster::Cluster cluster(cluster::standard_cluster(8));
    spec.strategy = strategy;
    runtime::JobRuntime job(cluster, energy, spec);
    const runtime::JobSummary summary = job.run(corpus, workload);
    table.add_row({core::strategy_name(strategy),
                   common::format_double(summary.setup_time_s, 3),
                   common::format_double(summary.makespan_s, 4),
                   common::format_double(summary.dirty_energy_j, 1),
                   common::format_double(summary.green_energy_j, 1),
                   common::format_double(summary.quality, 0)});
  }
  table.print(std::cout, "frequent pattern mining, 8 partitions");
  return 0;
}
