#include "mining/fpgrowth.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "common/error.h"

namespace hetsim::mining {

namespace {

struct FpNode {
  data::Item item = 0;
  std::uint32_t count = 0;
  FpNode* parent = nullptr;
  FpNode* next_same_item = nullptr;         // header chain
  std::map<data::Item, FpNode*> children;   // ordered for determinism
};

/// An FP-tree with its node arena and per-item header chains.
struct FpTree {
  std::deque<FpNode> arena;
  FpNode root;
  // header[item] = (chain head, total support of item in this tree).
  std::map<data::Item, std::pair<FpNode*, std::uint32_t>> header;

  FpNode* child(FpNode* node, data::Item item, std::uint64_t& work_ops) {
    ++work_ops;
    const auto it = node->children.find(item);
    if (it != node->children.end()) return it->second;
    arena.push_back(FpNode{});
    FpNode* fresh = &arena.back();
    fresh->item = item;
    fresh->parent = node;
    node->children.emplace(item, fresh);
    auto& [head, support] = header[item];
    fresh->next_same_item = head;
    head = fresh;
    return fresh;
  }

  /// Insert an item path (already in tree order) with weight `count`.
  void insert(std::span<const data::Item> path, std::uint32_t count,
              std::uint64_t& work_ops) {
    FpNode* node = &root;
    for (const data::Item item : path) {
      node = child(node, item, work_ops);
      node->count += count;
      header[item].second += count;
    }
  }
};

/// A weighted transaction of a conditional pattern base.
struct WeightedPath {
  std::vector<data::Item> items;  // in the parent tree's order
  std::uint32_t count = 0;
};

struct GrowState {
  std::uint32_t min_count = 0;
  std::uint32_t max_length = 0;
  MiningResult result;
};

/// Build an FP-tree from weighted paths: items below min_count are
/// dropped and the rest re-ordered by descending conditional frequency.
FpTree build_tree(const std::vector<WeightedPath>& paths, std::uint32_t min_count,
                  std::uint64_t& work_ops) {
  std::unordered_map<data::Item, std::uint32_t> freq;
  for (const WeightedPath& p : paths) {
    for (const data::Item item : p.items) {
      freq[item] += p.count;
      ++work_ops;
    }
  }
  // Rank: descending frequency, ascending item for ties.
  std::vector<std::pair<data::Item, std::uint32_t>> ranked;
  for (const auto& [item, count] : freq) {
    if (count >= min_count) ranked.emplace_back(item, count);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::unordered_map<data::Item, std::uint32_t> rank;
  for (std::uint32_t r = 0; r < ranked.size(); ++r) rank[ranked[r].first] = r;

  FpTree tree;
  std::vector<data::Item> filtered;
  for (const WeightedPath& p : paths) {
    filtered.clear();
    for (const data::Item item : p.items) {
      if (rank.contains(item)) filtered.push_back(item);
    }
    std::sort(filtered.begin(), filtered.end(),
              [&](data::Item a, data::Item b) { return rank[a] < rank[b]; });
    tree.insert(filtered, p.count, work_ops);
  }
  return tree;
}

void grow(const FpTree& tree, std::vector<data::Item>& suffix, GrowState& state) {
  // Iterate items of this conditional tree; map order (ascending item id)
  // is deterministic and every frequent item is visited exactly once.
  for (const auto& [item, entry] : tree.header) {
    const auto& [head, support] = entry;
    if (support < state.min_count) continue;
    suffix.push_back(item);
    data::ItemSet pattern(suffix.begin(), suffix.end());
    std::sort(pattern.begin(), pattern.end());
    state.result.frequent.push_back(Pattern{std::move(pattern), support});
    if (suffix.size() < state.max_length) {
      // Conditional pattern base: prefix paths of every chain node.
      std::vector<WeightedPath> base;
      for (const FpNode* node = head; node != nullptr;
           node = node->next_same_item) {
        WeightedPath path;
        path.count = node->count;
        for (const FpNode* up = node->parent; up && up->parent != nullptr;
             up = up->parent) {
          path.items.push_back(up->item);
          ++state.result.work_ops;
        }
        std::reverse(path.items.begin(), path.items.end());
        if (!path.items.empty()) base.push_back(std::move(path));
      }
      ++state.result.candidates_generated;
      if (!base.empty()) {
        const FpTree conditional =
            build_tree(base, state.min_count, state.result.work_ops);
        if (!conditional.header.empty()) grow(conditional, suffix, state);
      }
    }
    suffix.pop_back();
  }
}

}  // namespace

MiningResult fpgrowth(std::span<const data::ItemSet> transactions,
                      const AprioriConfig& config) {
  common::require<common::ConfigError>(
      config.min_support > 0.0 && config.min_support <= 1.0,
      "fpgrowth: min_support must be in (0, 1]");
  common::require<common::ConfigError>(config.max_pattern_length >= 1,
                                       "fpgrowth: max_pattern_length >= 1");
  GrowState state;
  if (transactions.empty()) return std::move(state.result);
  state.min_count = min_support_count(config.min_support, transactions.size());
  state.max_length = config.max_pattern_length;

  // The initial "pattern base" is the transaction set itself, weight 1.
  std::vector<WeightedPath> base;
  base.reserve(transactions.size());
  for (const data::ItemSet& txn : transactions) {
    base.push_back(WeightedPath{{txn.begin(), txn.end()}, 1});
  }
  const FpTree tree = build_tree(base, state.min_count, state.result.work_ops);
  std::vector<data::Item> suffix;
  grow(tree, suffix, state);

  std::sort(state.result.frequent.begin(), state.result.frequent.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
  return std::move(state.result);
}

}  // namespace hetsim::mining
