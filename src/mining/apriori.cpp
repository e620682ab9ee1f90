#include "mining/apriori.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "common/hash.h"

namespace hetsim::mining {

namespace {

std::uint64_t hash_itemset(std::span<const data::Item> items) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const data::Item it : items) h = common::hash_combine(h, it);
  return h;
}

struct SetHash {
  std::size_t operator()(const data::ItemSet& s) const noexcept {
    return static_cast<std::size_t>(hash_itemset(s));
  }
};

/// Candidate generation: join L_{k-1} patterns sharing the first k-2
/// items, then prune candidates with an infrequent (k-1)-subset.
std::vector<data::ItemSet> generate_candidates(
    const std::vector<data::ItemSet>& prev, std::uint64_t& work_ops) {
  std::vector<data::ItemSet> candidates;
  if (prev.empty()) return candidates;
  const std::size_t k1 = prev.front().size();
  std::unordered_set<data::ItemSet, SetHash> prev_set(prev.begin(), prev.end());
  for (std::size_t i = 0; i < prev.size(); ++i) {
    for (std::size_t j = i + 1; j < prev.size(); ++j) {
      ++work_ops;
      // prev is lexicographically sorted; once prefixes diverge, no
      // further j joins with i.
      if (!std::equal(prev[i].begin(), prev[i].end() - 1, prev[j].begin(),
                      prev[j].end() - 1)) {
        break;
      }
      data::ItemSet cand(prev[i]);
      cand.push_back(prev[j].back());
      // cand is sorted because prev[j].back() > prev[i].back().
      // Prune: all (k-1)-subsets must be frequent. The two parents are
      // frequent by construction; check the others.
      bool keep = true;
      for (std::size_t drop = 0; keep && drop + 2 < cand.size(); ++drop) {
        data::ItemSet sub;
        sub.reserve(k1);
        for (std::size_t t = 0; t < cand.size(); ++t) {
          if (t != drop) sub.push_back(cand[t]);
        }
        ++work_ops;
        keep = prev_set.contains(sub);
      }
      if (keep) candidates.push_back(std::move(cand));
    }
  }
  return candidates;
}

/// Enumerate the k-subsets of `txn` (restricted to items present in any
/// candidate) and bump matching candidate counts. Standard hash-based
/// counting; efficient because transactions are short after filtering.
void count_level(std::span<const data::ItemSet> transactions,
                 const std::vector<data::ItemSet>& candidates, std::size_t k,
                 std::unordered_map<data::ItemSet, std::uint32_t, SetHash>& counts,
                 std::uint64_t& work_ops) {
  counts.reserve(candidates.size() * 2);
  for (const auto& c : candidates) counts.emplace(c, 0);
  std::unordered_set<data::Item> candidate_items;
  for (const auto& c : candidates) candidate_items.insert(c.begin(), c.end());

  std::vector<data::Item> filtered;
  std::vector<std::size_t> idx(k);
  for (const data::ItemSet& txn : transactions) {
    filtered.clear();
    for (const data::Item it : txn) {
      if (candidate_items.contains(it)) filtered.push_back(it);
    }
    if (filtered.size() < k) continue;
    // If the filtered transaction is large, enumerating its k-subsets
    // explodes; probe candidates against the transaction instead.
    const double subsets = std::pow(static_cast<double>(filtered.size()),
                                    static_cast<double>(k));
    if (subsets > static_cast<double>(candidates.size()) * 4.0) {
      for (const auto& c : candidates) {
        ++work_ops;
        if (data::is_subset(c, filtered)) ++counts[c];
      }
      continue;
    }
    // Enumerate combinations of `filtered` of size k.
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    data::ItemSet probe(k);
    for (;;) {
      for (std::size_t i = 0; i < k; ++i) probe[i] = filtered[idx[i]];
      ++work_ops;
      const auto it = counts.find(probe);
      if (it != counts.end()) ++it->second;
      // Next combination.
      std::size_t pos = k;
      while (pos > 0) {
        --pos;
        if (idx[pos] != pos + filtered.size() - k) break;
      }
      if (idx[pos] == pos + filtered.size() - k) break;
      ++idx[pos];
      for (std::size_t i = pos + 1; i < k; ++i) idx[i] = idx[i - 1] + 1;
    }
  }
}

}  // namespace

MiningResult apriori(std::span<const data::ItemSet> transactions,
                     const AprioriConfig& config) {
  common::require<common::ConfigError>(
      config.min_support > 0.0 && config.min_support <= 1.0,
      "apriori: min_support must be in (0, 1]");
  common::require<common::ConfigError>(config.max_pattern_length >= 1,
                                       "apriori: max_pattern_length >= 1");
  MiningResult result;
  if (transactions.empty()) return result;
  const std::uint32_t min_count =
      min_support_count(config.min_support, transactions.size());

  // Level 1: plain frequency count.
  std::unordered_map<data::Item, std::uint32_t> item_counts;
  for (const data::ItemSet& txn : transactions) {
    for (const data::Item it : txn) {
      ++item_counts[it];
      ++result.work_ops;
    }
  }
  std::vector<data::ItemSet> level;
  for (const auto& [item, count] : item_counts) {
    result.candidates_generated++;
    if (count >= min_count) {
      level.push_back({item});
      result.frequent.push_back(Pattern{{item}, count});
    }
  }
  std::sort(level.begin(), level.end());

  for (std::uint32_t k = 2;
       k <= config.max_pattern_length && level.size() >= 2; ++k) {
    std::vector<data::ItemSet> candidates =
        generate_candidates(level, result.work_ops);
    result.candidates_generated += candidates.size();
    if (candidates.empty()) break;
    std::unordered_map<data::ItemSet, std::uint32_t, SetHash> counts;
    count_level(transactions, candidates, k, counts, result.work_ops);
    level.clear();
    for (auto& c : candidates) {
      const std::uint32_t support = counts[c];
      if (support >= min_count) {
        result.frequent.push_back(Pattern{c, support});
        level.push_back(std::move(c));
      }
    }
    std::sort(level.begin(), level.end());
  }

  std::sort(result.frequent.begin(), result.frequent.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
  return result;
}

std::vector<std::uint32_t> count_support(
    std::span<const data::ItemSet> transactions,
    std::span<const data::ItemSet> candidates, std::uint64_t& work_ops) {
  std::vector<std::uint32_t> counts(candidates.size(), 0);
  for (const data::ItemSet& txn : transactions) {
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      ++work_ops;
      if (data::is_subset(candidates[c], txn)) ++counts[c];
    }
  }
  return counts;
}

}  // namespace hetsim::mining
