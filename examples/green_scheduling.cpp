// Green scheduling: pick the alpha that meets a dirty-energy budget.
//
// A datacenter operator has a carbon cap for a recurring analytics job.
// This example sweeps the scalarization weight alpha over the learned
// Pareto frontier, prints the predicted (time, dirty energy) curve, and
// selects the fastest point whose predicted dirty energy fits the
// budget — then validates the choice by actually running the job.
// The frontier comes from the node models a Het-Aware run learned, so
// that run doubles as the measured fastest plan.
//
// Build & run:  cmake --build build && ./build/examples/green_scheduling
#include <algorithm>
#include <iostream>

#include "common/table.h"
#include "core/mining_workload.h"
#include "data/generators.h"
#include "runtime/runtime.h"

int main() {
  using namespace hetsim;

  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  const data::Dataset corpus =
      data::generate_text_corpus(data::rcv1_like(0.5), "green-corpus");
  core::PatternMiningWorkload workload(
      {.min_support = 0.08, .max_pattern_length = 3});

  // One static job (no re-planning, one task per partition) on a fresh
  // 8-node cluster; `models` receives the node models it learned.
  const auto run_job = [&](core::Strategy strategy, double alpha,
                           std::vector<optimize::NodeModel>* models) {
    cluster::Cluster cluster(cluster::standard_cluster(8));
    runtime::JobSpec spec;
    spec.strategy = strategy;
    spec.alpha = alpha;
    spec.normalized_alpha = false;
    spec.sampling.min_records = 40;
    spec.enable_replan = false;
    spec.checkpoint_records = corpus.size();
    runtime::JobRuntime job(cluster, energy, spec);
    const runtime::JobSummary summary = job.run(corpus, workload);
    if (models != nullptr) *models = job.node_models();
    return summary;
  };
  std::vector<optimize::NodeModel> models;
  const runtime::JobSummary fast =
      run_job(core::Strategy::kHetAware, 1.0, &models);

  // Sweep the frontier.
  const std::vector<double> alphas{1.0,   0.999, 0.998, 0.997, 0.996,
                                   0.995, 0.994, 0.993, 0.992, 0.99};
  const auto frontier =
      optimize::sweep_frontier(models, corpus.size(), alphas);

  common::Table table({"alpha", "pred time (s)", "pred dirty (J)"});
  for (const auto& pt : frontier) {
    table.add_row({common::format_double(pt.alpha, 3),
                   common::format_double(pt.makespan_s, 4),
                   common::format_double(pt.dirty_joules, 1)});
  }
  table.print(std::cout, "predicted Pareto frontier");

  // Budget: 70% of the dirty energy of the pure-speed plan.
  const double budget_j = frontier.front().dirty_joules * 0.70;
  std::cout << "\ndirty-energy budget: " << common::format_double(budget_j, 1)
            << " J\n";

  // Fastest feasible point (frontier is sorted fastest-first because the
  // alpha list is descending).
  const auto chosen = std::find_if(
      frontier.begin(), frontier.end(),
      [budget_j](const auto& pt) { return pt.dirty_joules <= budget_j; });
  if (chosen == frontier.end()) {
    std::cout << "no alpha meets the budget; greenest point is alpha="
              << frontier.back().alpha << "\n";
    return 0;
  }
  std::cout << "chosen alpha = " << common::format_double(chosen->alpha, 3)
            << " (pred time " << common::format_double(chosen->makespan_s, 4)
            << " s, pred dirty "
            << common::format_double(chosen->dirty_joules, 1) << " J)\n\n";

  // Validate by running the job at the chosen alpha.
  const runtime::JobSummary green =
      run_job(core::Strategy::kHetEnergyAware, chosen->alpha, nullptr);
  common::Table result({"plan", "time (s)", "dirty (J)"});
  result.add_row({"fastest (alpha=1)",
                  common::format_double(fast.makespan_s, 4),
                  common::format_double(fast.dirty_energy_j, 1)});
  result.add_row({"budgeted (alpha=" + common::format_double(chosen->alpha, 3) + ")",
                  common::format_double(green.makespan_s, 4),
                  common::format_double(green.dirty_energy_j, 1)});
  result.print(std::cout, "measured");
  return 0;
}
