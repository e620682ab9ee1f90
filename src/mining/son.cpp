#include "mining/son.h"

#include "common/error.h"

namespace hetsim::mining {

SonResult son_mine(std::span<const std::vector<data::ItemSet>> partitions,
                   const AprioriConfig& config) {
  common::require<common::ConfigError>(!partitions.empty(),
                                       "son_mine: no partitions");
  SonResult out;
  std::size_t total_txns = 0;
  for (const auto& p : partitions) total_txns += p.size();
  common::require<common::ConfigError>(total_txns > 0,
                                       "son_mine: empty dataset");

  // Phase 1: local mining at the same support *fraction*.
  std::vector<std::vector<data::ItemSet>> locals;
  locals.reserve(partitions.size());
  for (const auto& part : partitions) {
    MiningResult r = part.empty() ? MiningResult{} : apriori(part, config);
    out.local_work.push_back(r.work_ops);
    out.local_frequent_counts.push_back(r.frequent.size());
    std::vector<data::ItemSet>& local = locals.emplace_back();
    for (Pattern& p : r.frequent) local.push_back(std::move(p.items));
  }

  // Union of local candidates.
  const std::vector<data::ItemSet> candidates = candidate_union(locals);
  out.union_candidates = candidates.size();

  // Phase 2: global counting scan per partition.
  std::vector<std::uint32_t> global_counts(candidates.size(), 0);
  for (const auto& part : partitions) {
    std::uint64_t ops = 0;
    const std::vector<std::uint32_t> counts = count_support(part, candidates, ops);
    out.global_work.push_back(ops);
    for (std::size_t c = 0; c < counts.size(); ++c) global_counts[c] += counts[c];
  }

  const std::uint32_t min_count =
      min_support_count(config.min_support, total_txns);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (global_counts[c] >= min_count) {
      out.frequent.push_back(Pattern{candidates[c], global_counts[c]});
    } else {
      ++out.false_positives;
    }
  }
  return out;
}

}  // namespace hetsim::mining
