// Ablation beyond the paper's figures: the work-stealing strawman the
// introduction dismisses, on the same axes as the Pareto framework.
//
// Expected shape (paper section I): stealing CAN balance runtime across
// heterogeneous nodes — but it (a) moves chunk payloads over the
// network, and (b) fragments the job into many small mining units whose
// noisy locally-frequent sets inflate the SON candidate union, i.e. it
// is size-aware but not payload-aware. The Het-Aware plan reaches the
// same (or better) makespan with zero migration and a smaller candidate
// scan.
#include <iostream>
#include <numeric>

#include "bench/harness.h"
#include "common/table.h"
#include "core/workstealing.h"
#include "mining/son.h"
#include "partition/partitioner.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"

int main() {
  using namespace hetsim;
  std::cout << "=== Ablation: work stealing vs Het-Aware partitioning "
               "(8 nodes, text mining) ===\n\n";
  const data::Dataset ds =
      data::generate_text_corpus(data::rcv1_like(1.0), "rcv1");
  const mining::AprioriConfig mining_cfg{.min_support = 0.08,
                                         .max_pattern_length = 3};

  // --- Pareto framework side: Het-Aware run. -------------------------------
  core::PatternMiningWorkload workload(mining_cfg);
  const bench::ExperimentOutcome het = bench::run_experiment(
      ds, workload, 8, 0.75,
      {core::Strategy::kStratified, core::Strategy::kHetAware});
  const std::size_t het_union = workload.union_candidates();

  // --- Work-stealing side. --------------------------------------------------
  // Chunks = random equal fragments (size-aware, payload-blind), costed
  // by actually mining each fragment.
  cluster::Cluster cluster(cluster::standard_cluster(8));
  common::Table table({"scheme", "time (s)", "migrated MB", "steals",
                       "candidate union"});
  for (const std::size_t chunks_per_node : {2u, 4u, 8u, 16u}) {
    const std::size_t num_chunks = 8 * chunks_per_node;
    std::vector<std::size_t> sizes(num_chunks, ds.size() / num_chunks);
    for (std::size_t i = 0; i < ds.size() % num_chunks; ++i) ++sizes[i];
    const auto chunked = partition::random_partitions(ds.size(), sizes, 97);
    std::vector<core::ChunkCost> costs;
    std::vector<std::vector<data::ItemSet>> chunk_txns;
    for (const auto& chunk : chunked.partitions) {
      std::vector<data::ItemSet> txns;
      double bytes = 0;
      for (const std::uint32_t idx : chunk) {
        txns.push_back(ds.records[idx].items);
        bytes += static_cast<double>(ds.records[idx].payload.size());
      }
      const mining::MiningResult local = mining::apriori(txns, mining_cfg);
      costs.push_back({static_cast<double>(local.work_ops), bytes});
      chunk_txns.push_back(std::move(txns));
    }
    const core::WorkStealingReport ws = core::simulate_work_stealing(
        cluster, costs, {.chunks_per_node = chunks_per_node});
    // Candidate union when every chunk is a local mining unit, and the
    // SON phase-2 scan that union forces. Credit stealing with a
    // perfectly balanced phase 2 (lower bound): total scan work spread
    // over the cluster's aggregate speed.
    const mining::SonResult son = mining::son_mine(chunk_txns, mining_cfg);
    double scan_work = 0.0;
    for (const auto w : son.global_work) scan_work += static_cast<double>(w);
    double aggregate_speed = 0.0;
    for (const auto& node : cluster.nodes()) aggregate_speed += node.speed;
    const double phase2_s =
        scan_work / (cluster.options().work_rate.base_rate * aggregate_speed);
    table.add_row({"stealing x" + std::to_string(chunks_per_node),
                   common::format_double(ws.makespan_s + phase2_s, 4),
                   common::format_double(ws.migrated_bytes / 1e6, 3),
                   std::to_string(ws.steals),
                   std::to_string(son.union_candidates)});
  }
  table.add_row({"Stratified (equal)",
                 common::format_double(
                     het.find(core::Strategy::kStratified).makespan_s, 4),
                 "0.000", "0", std::to_string(het_union)});
  table.add_row({"Het-Aware (LP)",
                 common::format_double(
                     het.find(core::Strategy::kHetAware).makespan_s, 4),
                 "0.000", "0", std::to_string(het_union)});
  table.print(std::cout,
              "work stealing balances size, not payload: candidate union "
              "grows with fragmentation while Het-Aware pays no migration");
  return 0;
}
