// Distributed webgraph compression, comparing partition layouts.
//
// Shows the second partitioning mode of the paper (place similar
// elements together): the same optimizer sizes, laid out three ways —
// similar-together (strata-contiguous), representative, and random —
// and the compression ratio each achieves, plus a round-trip check on
// the compressed output.
//
// Build & run:  cmake --build build && ./build/examples/graph_compression
#include <iostream>

#include "common/table.h"
#include "compress/webgraph.h"
#include "core/compression_workload.h"
#include "data/generators.h"
#include "partition/partitioner.h"
#include "runtime/runtime.h"

int main() {
  using namespace hetsim;

  const data::Dataset graph =
      data::generate_graph_corpus(data::uk_like(0.4), "webgraph");
  std::cout << "graph: " << graph.size() << " vertices, "
            << graph.total_items() << " edges\n\n";

  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  core::CompressionWorkload workload(
      core::CompressionWorkload::Algorithm::kWebGraph);
  // The paper's static run: no mid-job re-planning, one task per
  // partition.
  runtime::JobSpec spec;
  spec.sampling.min_records = 40;
  spec.alpha = 0.993;
  spec.normalized_alpha = false;
  spec.enable_replan = false;
  spec.checkpoint_records = graph.size();

  // Strategy comparison (similar-together layout, the workload default),
  // one job per strategy on a fresh cluster.
  common::Table table({"strategy", "time (s)", "dirty (J)", "ratio"});
  std::vector<std::size_t> het_sizes;
  stratify::Stratification strata;
  for (const core::Strategy strategy :
       {core::Strategy::kRandom, core::Strategy::kStratified,
        core::Strategy::kHetAware, core::Strategy::kHetEnergyAware}) {
    cluster::Cluster cluster(cluster::standard_cluster(8));
    spec.strategy = strategy;
    runtime::JobRuntime job(cluster, energy, spec);
    const runtime::JobSummary r = job.run(graph, workload);
    table.add_row({core::strategy_name(strategy),
                   common::format_double(r.makespan_s, 4),
                   common::format_double(r.dirty_energy_j, 1),
                   common::format_double(r.quality, 2)});
    if (strategy == core::Strategy::kHetAware) {
      het_sizes = r.initial_sizes;
      strata = job.strata();
    }
  }
  table.print(std::cout, "webgraph compression, 8 partitions");

  // Round-trip spot check: compress one strata-contiguous partition of
  // the Het-Aware plan directly and verify lossless decompression.
  const auto assignment = partition::make_partitions(
      strata, het_sizes, partition::Layout::kSimilarTogether);
  std::vector<std::vector<std::uint32_t>> lists;
  for (const std::uint32_t idx : assignment.partitions[0]) {
    lists.push_back(data::decode_items(graph.records[idx].payload));
  }
  compress::WebGraphStats stats;
  const std::string blob = compress::compress_adjacency(lists, {}, &stats);
  const bool lossless = compress::decompress_adjacency(blob, lists.size()) == lists;
  std::cout << "\npartition 0 round trip: " << (lossless ? "OK" : "FAILED")
            << " (" << lists.size() << " lists, "
            << stats.referenced_lists << " reference-compressed, ratio "
            << common::format_double(
                   compress::compression_ratio(
                       compress::raw_adjacency_bytes(lists), blob.size()),
                   2)
            << ")\n";
  return lossless ? 0 : 1;
}
