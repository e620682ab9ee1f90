// Distributed frequent subtree mining workload: SON (son_workload.h)
// with the FREQT-style miner as the local algorithm and embedding checks
// as the global prune — the faithful version of the paper's "frequent
// tree mining" workload (PatternMiningWorkload over LCA pivots is the
// lightweight approximation; this one mines actual labelled subtrees of
// the tree payloads).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "core/son_workload.h"
#include "mining/treeminer.h"

namespace hetsim::core {

struct SubtreeMiner {
  using Config = mining::TreeMinerConfig;
  using Pattern = mining::TreePattern;
  static constexpr char kName[] = "son-subtree";
  static constexpr char kCandidatesKey[] = "subtree-candidates";
  static constexpr char kCountsKey[] = "subtree-counts:";

  static std::vector<data::LabeledTree> records(
      const data::Dataset& dataset, std::span<const std::uint32_t> indices) {
    common::require<common::ConfigError>(
        dataset.kind == data::DataKind::kTree,
        "SubtreeMiningWorkload: dataset must hold tree payloads");
    std::vector<data::LabeledTree> trees;
    trees.reserve(indices.size());
    for (const std::uint32_t i : indices) {
      trees.push_back(data::decode_tree(dataset.records[i].payload));
    }
    return trees;
  }
  static std::vector<Pattern> mine(std::span<const data::LabeledTree> records,
                                   const Config& config, std::uint64_t& ops) {
    mining::TreeMiningResult result = mining::mine_subtrees(records, config);
    ops += result.work_ops;
    std::vector<Pattern> out;
    out.reserve(result.frequent.size());
    for (mining::FrequentSubtree& f : result.frequent) {
      out.push_back(std::move(f.pattern));
    }
    return out;
  }
  static std::vector<std::uint32_t> count(
      std::span<const data::LabeledTree> records,
      std::span<const Pattern> candidates, std::uint64_t& ops) {
    return mining::count_subtree_support(records, candidates, ops);
  }
  static std::size_t wire_bytes(const Pattern& p) { return 8 * p.size() + 4; }
};

using SubtreeMiningWorkload = SonWorkload<SubtreeMiner>;

}  // namespace hetsim::core
