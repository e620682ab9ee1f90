// Tests for Apriori and the SON distributed mining algorithm, including
// a brute-force cross-check of Apriori's output and SON's completeness
// guarantee (union of local frequents superset of global frequents).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "mining/son.h"

namespace hetsim::mining {
namespace {

using data::ItemSet;

std::vector<ItemSet> classic_market_basket() {
  // Agrawal-style toy transactions.
  return {
      {1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3}, {2, 3}, {1, 3},
      {1, 2, 3, 5}, {1, 2, 3},
  };
}

std::map<ItemSet, std::uint32_t> as_map(const std::vector<Pattern>& patterns) {
  std::map<ItemSet, std::uint32_t> m;
  for (const auto& p : patterns) m[p.items] = p.support;
  return m;
}

TEST(Apriori, TextbookExample) {
  AprioriConfig cfg;
  cfg.min_support = 2.0 / 9.0;  // absolute support 2
  const MiningResult r = apriori(classic_market_basket(), cfg);
  const auto m = as_map(r.frequent);
  // Known frequent itemsets at support 2 (from the Apriori paper walk).
  EXPECT_EQ(m.at({1}), 6u);
  EXPECT_EQ(m.at({2}), 7u);
  EXPECT_EQ(m.at({3}), 6u);
  EXPECT_EQ(m.at({4}), 2u);
  EXPECT_EQ(m.at({5}), 2u);
  EXPECT_EQ(m.at({1, 2}), 4u);
  EXPECT_EQ(m.at({1, 3}), 4u);
  EXPECT_EQ(m.at({2, 3}), 4u);
  EXPECT_EQ(m.at({1, 5}), 2u);
  EXPECT_EQ(m.at({2, 5}), 2u);
  EXPECT_EQ(m.at({2, 4}), 2u);
  EXPECT_EQ(m.at({1, 2, 3}), 2u);
  EXPECT_EQ(m.at({1, 2, 5}), 2u);
  EXPECT_EQ(m.count({3, 5}), 0u);  // support 1, must be absent
  EXPECT_EQ(m.size(), 13u);
}

/// Brute force: count every subset up to length 3 directly.
std::map<ItemSet, std::uint32_t> brute_force(const std::vector<ItemSet>& txns,
                                             std::uint32_t min_count,
                                             std::size_t max_len) {
  std::map<ItemSet, std::uint32_t> counts;
  for (const auto& t : txns) {
    const std::size_t n = t.size();
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[{t[i]}];
      if (max_len < 2) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        ++counts[{t[i], t[j]}];
        if (max_len < 3) continue;
        for (std::size_t k = j + 1; k < n; ++k) {
          ++counts[{t[i], t[j], t[k]}];
        }
      }
    }
  }
  std::map<ItemSet, std::uint32_t> frequent;
  for (const auto& [items, c] : counts) {
    if (c >= min_count) frequent[items] = c;
  }
  return frequent;
}

TEST(Apriori, MatchesBruteForceOnRandomData) {
  common::Rng rng(77);
  std::vector<ItemSet> txns;
  for (int i = 0; i < 200; ++i) {
    ItemSet t;
    const std::size_t len = 2 + rng.bounded(6);
    for (std::size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<data::Item>(rng.zipf(20, 1.0)));
    }
    data::normalize(t);
    txns.push_back(std::move(t));
  }
  AprioriConfig cfg;
  cfg.min_support = 0.05;  // absolute 10
  cfg.max_pattern_length = 3;
  const MiningResult r = apriori(txns, cfg);
  const auto expected = brute_force(txns, 10, 3);
  EXPECT_EQ(as_map(r.frequent), expected);
}

TEST(Apriori, SupportsAreExact) {
  const auto txns = classic_market_basket();
  AprioriConfig cfg;
  cfg.min_support = 1.0 / 9.0;
  const MiningResult r = apriori(txns, cfg);
  std::uint64_t ops = 0;
  for (const auto& p : r.frequent) {
    const std::vector<ItemSet> single{p.items};
    const auto counts = count_support(txns, single, ops);
    EXPECT_EQ(counts[0], p.support) << "pattern size " << p.items.size();
  }
}

TEST(Apriori, EmptyInputYieldsNothing) {
  const MiningResult r = apriori({}, {});
  EXPECT_TRUE(r.frequent.empty());
}

TEST(Apriori, FullSupportFindsUniversalItems) {
  std::vector<ItemSet> txns(10, ItemSet{1, 2});
  AprioriConfig cfg;
  cfg.min_support = 1.0;
  const MiningResult r = apriori(txns, cfg);
  const auto m = as_map(r.frequent);
  EXPECT_EQ(m.at({1}), 10u);
  EXPECT_EQ(m.at({1, 2}), 10u);
}

TEST(Apriori, MaxPatternLengthCaps) {
  std::vector<ItemSet> txns(10, ItemSet{1, 2, 3, 4});
  AprioriConfig cfg;
  cfg.min_support = 1.0;
  cfg.max_pattern_length = 2;
  const MiningResult r = apriori(txns, cfg);
  for (const auto& p : r.frequent) EXPECT_LE(p.items.size(), 2u);
}

TEST(Apriori, WorkGrowsWithLowerSupport) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.02));
  std::vector<ItemSet> txns;
  for (const auto& rec : ds.records) txns.push_back(rec.items);
  AprioriConfig high;
  high.min_support = 0.2;
  AprioriConfig low;
  low.min_support = 0.05;
  const MiningResult rh = apriori(txns, high);
  const MiningResult rl = apriori(txns, low);
  EXPECT_GT(rl.work_ops, rh.work_ops);
  EXPECT_GE(rl.frequent.size(), rh.frequent.size());
}

TEST(Apriori, RejectsBadConfig) {
  AprioriConfig bad;
  bad.min_support = 0.0;
  EXPECT_THROW((void)apriori(classic_market_basket(), bad),
               common::ConfigError);
}

TEST(CountSupport, CountsSubsetContainment) {
  const auto txns = classic_market_basket();
  std::uint64_t ops = 0;
  const std::vector<ItemSet> candidates{{1}, {1, 2}, {9}};
  const auto counts = count_support(txns, candidates, ops);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{6, 4, 0}));
  EXPECT_EQ(ops, txns.size() * candidates.size());
}

// ---- SON -------------------------------------------------------------------

std::vector<std::vector<ItemSet>> split(const std::vector<ItemSet>& txns,
                                        std::size_t parts) {
  std::vector<std::vector<ItemSet>> out(parts);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    out[i % parts].push_back(txns[i]);
  }
  return out;
}

TEST(Son, MatchesSingleMachineApriori) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.02));
  std::vector<ItemSet> txns;
  for (const auto& rec : ds.records) txns.push_back(rec.items);
  AprioriConfig cfg;
  cfg.min_support = 0.08;
  cfg.max_pattern_length = 3;
  const MiningResult direct = apriori(txns, cfg);
  for (const std::size_t parts : {2u, 4u, 8u}) {
    const auto partitions = split(txns, parts);
    const SonResult son = son_mine(partitions, cfg);
    EXPECT_EQ(as_map(son.frequent), as_map(direct.frequent))
        << parts << " partitions";
  }
}

TEST(Son, CompletenessUnionCoversGlobal) {
  const auto txns = classic_market_basket();
  AprioriConfig cfg;
  cfg.min_support = 2.0 / 9.0;
  const auto partitions = split(txns, 3);
  const SonResult son = son_mine(partitions, cfg);
  const MiningResult direct = apriori(txns, cfg);
  // Every globally frequent pattern must appear in the candidate union:
  // union = frequent + false positives.
  EXPECT_EQ(son.union_candidates, son.frequent.size() + son.false_positives);
  EXPECT_EQ(as_map(son.frequent), as_map(direct.frequent));
}

TEST(Son, SkewedPartitionsInflateFalsePositives) {
  // Build two topic blocks; skewed split puts each topic in its own
  // partition, balanced split mixes them.
  common::Rng rng(5);
  std::vector<ItemSet> topic_a, topic_b;
  for (int i = 0; i < 150; ++i) {
    ItemSet t;
    for (int j = 0; j < 5; ++j) {
      t.push_back(static_cast<data::Item>(rng.zipf(15, 1.2)));
    }
    data::normalize(t);
    topic_a.push_back(t);
    ItemSet u;
    for (int j = 0; j < 5; ++j) {
      u.push_back(static_cast<data::Item>(100 + rng.zipf(15, 1.2)));
    }
    data::normalize(u);
    topic_b.push_back(u);
  }
  AprioriConfig cfg;
  cfg.min_support = 0.1;
  // Skewed: partition 0 = all of topic A, partition 1 = all of topic B.
  const std::vector<std::vector<ItemSet>> skewed{topic_a, topic_b};
  // Balanced: each partition gets half of each topic.
  std::vector<std::vector<ItemSet>> balanced(2);
  for (int i = 0; i < 150; ++i) {
    balanced[i % 2].push_back(topic_a[i]);
    balanced[(i + 1) % 2].push_back(topic_b[i]);
  }
  const SonResult s_skew = son_mine(skewed, cfg);
  const SonResult s_bal = son_mine(balanced, cfg);
  EXPECT_GT(s_skew.false_positives, s_bal.false_positives);
  EXPECT_EQ(as_map(s_skew.frequent), as_map(s_bal.frequent));
}

TEST(Son, TracksPerPartitionWork) {
  const auto txns = classic_market_basket();
  AprioriConfig cfg;
  cfg.min_support = 0.2;
  const auto partitions = split(txns, 3);
  const SonResult son = son_mine(partitions, cfg);
  EXPECT_EQ(son.local_work.size(), 3u);
  EXPECT_EQ(son.global_work.size(), 3u);
  for (const auto w : son.local_work) EXPECT_GT(w, 0u);
}

TEST(Son, EmptyPartitionTolerated) {
  const auto txns = classic_market_basket();
  std::vector<std::vector<ItemSet>> partitions{txns, {}};
  AprioriConfig cfg;
  cfg.min_support = 2.0 / 9.0;
  const SonResult son = son_mine(partitions, cfg);
  const MiningResult direct = apriori(txns, cfg);
  EXPECT_EQ(as_map(son.frequent), as_map(direct.frequent));
}

TEST(CandidateUnion, Dedupes) {
  const std::vector<std::vector<ItemSet>> locals{{ItemSet{1}, ItemSet{1, 2}},
                                                 {ItemSet{1}, ItemSet{3}}};
  const auto u = candidate_union(locals);
  EXPECT_EQ(u, (std::vector<ItemSet>{{1}, {1, 2}, {3}}));
}

}  // namespace
}  // namespace hetsim::mining
