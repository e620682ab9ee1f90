// Distributed frequent itemset mining workload: SON (son_workload.h)
// with Apriori as the local miner and a support-count scan as the
// global prune.
//
// Serves both the paper's "frequent tree mining" (transactions = LCA
// pivot sets) and "text mining" (transactions = word sets) workloads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/son_workload.h"
#include "mining/apriori.h"

namespace hetsim::core {

struct ItemsetMiner {
  using Config = mining::AprioriConfig;
  using Pattern = data::ItemSet;
  static constexpr char kName[] = "son-apriori";
  static constexpr char kCandidatesKey[] = "candidates:init";
  static constexpr char kCountsKey[] = "counts:";

  static std::vector<data::ItemSet> records(
      const data::Dataset& dataset, std::span<const std::uint32_t> indices) {
    std::vector<data::ItemSet> transactions;
    transactions.reserve(indices.size());
    for (const std::uint32_t i : indices) {
      transactions.push_back(dataset.records[i].items);
    }
    return transactions;
  }
  static std::vector<Pattern> mine(std::span<const data::ItemSet> records,
                                   const Config& config, std::uint64_t& ops) {
    mining::MiningResult result = mining::apriori(records, config);
    ops += result.work_ops;
    std::vector<Pattern> out;
    out.reserve(result.frequent.size());
    for (mining::Pattern& p : result.frequent) out.push_back(std::move(p.items));
    return out;
  }
  static std::vector<std::uint32_t> count(
      std::span<const data::ItemSet> records,
      std::span<const Pattern> candidates, std::uint64_t& ops) {
    return mining::count_support(records, candidates, ops);
  }
  static std::size_t wire_bytes(const Pattern& p) { return 4 * p.size() + 4; }
};

using PatternMiningWorkload = SonWorkload<ItemsetMiner>;

}  // namespace hetsim::core
