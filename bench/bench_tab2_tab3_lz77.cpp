// Reproduces paper Tables II and III: LZ77 compression of the UK and
// Arabic analogues at 8 partitions — execution time and compression
// ratio per strategy. Expected shape: LZ77's work profile is a cheap
// near-linear scan, so the gap between strategies is small (the paper
// sees 18s/11s/12s on UK and 38s/35s/40s on Arabic — heterogeneity
// awareness buys little when the job is this fast), and the ratios of
// all schemes are comparable.
#include <iostream>

#include "bench/harness.h"
#include "common/table.h"

namespace {

void run_dataset(const hetsim::data::WebGraphConfig& cfg,
                 const std::string& label, const std::string& table_name) {
  using namespace hetsim;
  const data::Dataset ds = data::generate_graph_corpus(cfg, label);
  core::CompressionWorkload workload(core::CompressionWorkload::Algorithm::kLz77);
  const bench::ExperimentOutcome outcome = bench::run_experiment(
      ds, workload, /*partitions=*/8, /*energy_alpha=*/0.60,
      bench::paper_strategies());
  common::Table t({"Strategy", "Time (s)", "Compression ratio"});
  for (const auto& s : outcome.strategies) {
    t.add_row({core::strategy_name(s.strategy),
               common::format_double(s.makespan_s, 4),
               common::format_double(s.quality, 2)});
  }
  t.print(std::cout,
          table_name + ": LZ77 compression on " + label + " (8 partitions)");
  std::cout << '\n';
}

}  // namespace

int main() {
  std::cout << "=== Tables II/III: LZ77 compression (UK/Arabic analogues) "
               "===\n\n";
  run_dataset(hetsim::data::uk_like(0.5), "uk", "TABLE II");
  run_dataset(hetsim::data::arabic_like(0.5), "arabic", "TABLE III");
  return 0;
}
