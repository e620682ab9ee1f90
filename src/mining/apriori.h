// Apriori frequent pattern mining (Agrawal & Srikant).
//
// Used three ways, matching the paper's workloads:
//  * text mining: transactions are documents' word sets;
//  * frequent "tree" mining: transactions are the trees' LCA-pivot sets
//    (the stratifier's domain reduction makes tree mining itemset mining);
//  * the local phase of the SON distributed algorithm (son.h).
//
// Work accounting: the dominant cost of Apriori is candidate membership
// testing; every candidate subset lookup and every support-count probe is
// one work op, which the caller converts to simulated time. The paper's
// observation that "even a single partition generating too many patterns
// slows the whole job" shows up directly in these counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/itemset.h"
#include "mining/support.h"

namespace hetsim::mining {

struct AprioriConfig {
  /// Minimum support as a fraction of the transaction count (0, 1].
  double min_support = 0.05;
  /// Longest pattern mined (paper workloads rarely need beyond 4).
  std::uint32_t max_pattern_length = 4;
};

struct Pattern {
  data::ItemSet items;
  std::uint32_t support = 0;  // absolute transaction count
};

struct MiningResult {
  std::vector<Pattern> frequent;  // all lengths, lexicographic order
  /// Candidates generated across all levels (the paper's "search space").
  std::uint64_t candidates_generated = 0;
  /// Subset/probe operations performed — the abstract work.
  std::uint64_t work_ops = 0;
};

/// Mine frequent patterns from `transactions` (each a normalized ItemSet).
[[nodiscard]] MiningResult apriori(std::span<const data::ItemSet> transactions,
                                   const AprioriConfig& config);

/// Count the absolute support of the given candidate patterns over
/// `transactions` (the SON global-prune scan). Returns counts aligned
/// with `candidates` and adds probe ops to `work_ops`.
[[nodiscard]] std::vector<std::uint32_t> count_support(
    std::span<const data::ItemSet> transactions,
    std::span<const data::ItemSet> candidates, std::uint64_t& work_ops);

}  // namespace hetsim::mining
