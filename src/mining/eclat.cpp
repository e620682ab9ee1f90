#include "mining/eclat.h"

#include <algorithm>
#include <unordered_map>

#include "common/error.h"

namespace hetsim::mining {

namespace {

using TidSet = std::vector<std::uint32_t>;  // ascending transaction ids

TidSet intersect(const TidSet& a, const TidSet& b, std::uint64_t& work_ops) {
  TidSet out;
  out.reserve(std::min(a.size(), b.size()));
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    ++work_ops;
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

struct EclatState {
  std::uint32_t min_count = 0;
  std::uint32_t max_length = 0;
  MiningResult result;
};

/// Depth-first growth of `prefix` (whose tidset is `prefix_tids`) by the
/// extension items in `extensions` (item, tidset pairs, item-sorted).
void grow(const data::ItemSet& prefix,
          const std::vector<std::pair<data::Item, TidSet>>& extensions,
          EclatState& state) {
  for (std::size_t e = 0; e < extensions.size(); ++e) {
    const auto& [item, tids] = extensions[e];
    data::ItemSet pattern = prefix;
    pattern.push_back(item);
    state.result.frequent.push_back(
        Pattern{pattern, static_cast<std::uint32_t>(tids.size())});
    if (pattern.size() >= state.max_length) continue;
    // Build the conditional extension list for this prefix.
    std::vector<std::pair<data::Item, TidSet>> next;
    for (std::size_t f = e + 1; f < extensions.size(); ++f) {
      ++state.result.candidates_generated;
      TidSet joined = intersect(tids, extensions[f].second,
                                state.result.work_ops);
      if (joined.size() >= state.min_count) {
        next.emplace_back(extensions[f].first, std::move(joined));
      }
    }
    if (!next.empty()) grow(pattern, next, state);
  }
}

}  // namespace

MiningResult eclat(std::span<const data::ItemSet> transactions,
                   const AprioriConfig& config) {
  common::require<common::ConfigError>(
      config.min_support > 0.0 && config.min_support <= 1.0,
      "eclat: min_support must be in (0, 1]");
  common::require<common::ConfigError>(config.max_pattern_length >= 1,
                                       "eclat: max_pattern_length >= 1");
  EclatState state;
  if (transactions.empty()) return std::move(state.result);
  state.min_count = min_support_count(config.min_support, transactions.size());
  state.max_length = config.max_pattern_length;

  // Vertical representation: tidset per item.
  std::unordered_map<data::Item, TidSet> vertical;
  for (std::uint32_t tid = 0; tid < transactions.size(); ++tid) {
    for (const data::Item item : transactions[tid]) {
      vertical[item].push_back(tid);
      ++state.result.work_ops;
    }
  }
  std::vector<std::pair<data::Item, TidSet>> roots;
  for (auto& [item, tids] : vertical) {
    ++state.result.candidates_generated;
    if (tids.size() >= state.min_count) {
      roots.emplace_back(item, std::move(tids));
    }
  }
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  grow({}, roots, state);

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
