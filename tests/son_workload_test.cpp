// Oracle test of the distributed SON workloads: a JobRuntime job that
// executes every partition as several chunks must find exactly the
// patterns the local miner finds on the whole, unpartitioned corpus.
// SON is exact: a pattern frequent over the corpus is frequent in at
// least one chunk, so the candidate union holds it and the global count
// keeps it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "runtime/runtime.h"

namespace hetsim::core {
namespace {

/// Per-workload corpus, config, whole-corpus oracle and chunk size. The
/// chunks are small enough that partitions run as several chunks, whose
/// locally frequent patterns a node must merge, and large enough that
/// the local support threshold stays above one record.
template <typename W>
struct SonCase;

template <>
struct SonCase<PatternMiningWorkload> {
  static data::Dataset corpus() {
    return data::generate_text_corpus(data::rcv1_like(0.15));
  }
  static mining::AprioriConfig config() {
    return {.min_support = 0.08, .max_pattern_length = 3};
  }
  static std::size_t whole_corpus_frequent(const data::Dataset& ds) {
    std::vector<data::ItemSet> transactions;
    for (const data::Record& r : ds.records) transactions.push_back(r.items);
    return mining::apriori(transactions, config()).frequent.size();
  }
  static constexpr const char* kName = "son-apriori(support=0.08)";
  static constexpr std::size_t kChunkRecords = 40;
};

template <>
struct SonCase<SubtreeMiningWorkload> {
  static data::Dataset corpus() {
    return data::generate_tree_corpus(data::swissprot_like(0.2));
  }
  static mining::TreeMinerConfig config() {
    return {.min_support = 0.08, .max_pattern_nodes = 3};
  }
  static std::size_t whole_corpus_frequent(const data::Dataset& ds) {
    std::vector<data::LabeledTree> trees;
    for (const data::Record& r : ds.records) {
      trees.push_back(data::decode_tree(r.payload));
    }
    return mining::mine_subtrees(trees, config()).frequent.size();
  }
  static constexpr const char* kName = "son-subtree(support=0.08)";
  static constexpr std::size_t kChunkRecords = 25;
};

runtime::JobSummary run_job(std::uint32_t nodes, const data::Dataset& ds,
                            std::size_t chunk_records, Workload& workload) {
  cluster::Cluster cluster(cluster::standard_cluster(nodes));
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  runtime::JobSpec spec;
  spec.sketch.num_hashes = 32;
  spec.kmodes.num_strata = 12;
  spec.kmodes.max_iterations = 10;
  spec.sampling.steps = 4;
  spec.checkpoint_records = chunk_records;
  runtime::JobRuntime rt(cluster, energy, spec);
  return rt.run(ds, workload);
}

template <typename W>
class SonWorkloadOracle : public ::testing::Test {};

using SonWorkloads =
    ::testing::Types<PatternMiningWorkload, SubtreeMiningWorkload>;
TYPED_TEST_SUITE(SonWorkloadOracle, SonWorkloads);

TYPED_TEST(SonWorkloadOracle, NameReachesSummary) {
  using Case = SonCase<TypeParam>;
  TypeParam workload(Case::config());
  EXPECT_EQ(workload.name(), Case::kName);
}

TYPED_TEST(SonWorkloadOracle, MatchesWholeCorpusMiner) {
  using Case = SonCase<TypeParam>;
  const data::Dataset ds = Case::corpus();
  const std::size_t oracle = Case::whole_corpus_frequent(ds);
  ASSERT_GT(oracle, 0u);
  for (const std::uint32_t nodes : {1u, 4u, 8u}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    TypeParam workload(Case::config());
    const runtime::JobSummary first = run_job(nodes, ds, Case::kChunkRecords, workload);
    ASSERT_EQ(first.status, runtime::JobStatus::kOk);
    std::size_t chunks = 0;
    for (const std::size_t processed : first.processed) {
      chunks += (processed + Case::kChunkRecords - 1) / Case::kChunkRecords;
    }
    EXPECT_GT(chunks, nodes);
    EXPECT_EQ(workload.globally_frequent(), oracle);
    EXPECT_EQ(first.quality, static_cast<double>(oracle));
    EXPECT_EQ(workload.union_candidates(),
              workload.globally_frequent() + workload.false_positives());

    // A second job on the same object: its estimation runs come before
    // its reset() and must leave nothing in the candidate union.
    const std::size_t union_first = workload.union_candidates();
    const runtime::JobSummary second = run_job(nodes, ds, Case::kChunkRecords, workload);
    ASSERT_EQ(second.status, runtime::JobStatus::kOk);
    EXPECT_EQ(workload.union_candidates(), union_first);
    EXPECT_EQ(workload.globally_frequent(), oracle);
  }
}

}  // namespace
}  // namespace hetsim::core
