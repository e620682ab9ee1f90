// Integration matrix: every workload kind crossed with every strategy,
// asserting the invariants that must hold for ANY (workload, strategy)
// combination — exact record conservation, non-negative energy split,
// quality present, Het-Aware no slower than the Stratified baseline,
// and JSON serializability of each job summary. Every combination runs
// as the paper's static job through runtime::JobRuntime.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <ostream>

#include "core/compression_workload.h"
#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "runtime/runtime.h"

namespace hetsim::core {
namespace {

struct MatrixCase {
  const char* name;
  data::Dataset (*make_dataset)();
  std::unique_ptr<Workload> (*make_workload)();
};

// gtest would otherwise print the struct's bytes, pointers included,
// into every test name, and those change from build to build.
void PrintTo(const MatrixCase& c, std::ostream* os) { *os << c.name; }

data::Dataset text_dataset() {
  return data::generate_text_corpus(data::rcv1_like(0.25), "matrix-text");
}
data::Dataset tree_dataset() {
  return data::generate_tree_corpus(data::swissprot_like(0.4), "matrix-tree");
}
data::Dataset graph_dataset() {
  return data::generate_graph_corpus(data::uk_like(0.12), "matrix-graph");
}

std::unique_ptr<Workload> apriori_workload() {
  return std::make_unique<PatternMiningWorkload>(
      mining::AprioriConfig{.min_support = 0.08, .max_pattern_length = 3});
}
std::unique_ptr<Workload> subtree_workload() {
  return std::make_unique<SubtreeMiningWorkload>(
      mining::TreeMinerConfig{.min_support = 0.08, .max_pattern_nodes = 2});
}
std::unique_ptr<Workload> webgraph_workload() {
  return std::make_unique<CompressionWorkload>(
      CompressionWorkload::Algorithm::kWebGraph);
}
std::unique_ptr<Workload> lz77_workload() {
  return std::make_unique<CompressionWorkload>(
      CompressionWorkload::Algorithm::kLz77);
}
std::unique_ptr<Workload> deflate_workload() {
  return std::make_unique<CompressionWorkload>(
      CompressionWorkload::Algorithm::kDeflate);
}

class IntegrationMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(IntegrationMatrix, AllStrategiesSatisfyInvariants) {
  const MatrixCase& c = GetParam();
  const data::Dataset ds = c.make_dataset();
  const std::unique_ptr<Workload> workload = c.make_workload();

  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  runtime::JobSpec spec;
  spec.sketch.num_hashes = 32;
  spec.kmodes.num_strata = 12;
  spec.kmodes.max_iterations = 8;
  spec.sampling.steps = 4;
  spec.sampling.min_fraction = 0.02;
  spec.sampling.max_fraction = 0.10;
  spec.sampling.min_records = 30;
  spec.normalized_alpha = true;
  spec.alpha = 0.7;
  spec.enable_replan = false;
  spec.checkpoint_records = ds.size();

  double stratified_time = 0.0;
  double het_time = 0.0;
  for (const Strategy strategy :
       {Strategy::kRandom, Strategy::kStratified, Strategy::kHetAware,
        Strategy::kHetEnergyAware}) {
    cluster::Cluster cluster(cluster::standard_cluster(8));
    spec.strategy = strategy;
    runtime::JobRuntime job(cluster, energy, spec);
    const runtime::JobSummary r = job.run(ds, *workload);
    SCOPED_TRACE(std::string(c.name) + " / " + strategy_name(strategy));
    EXPECT_EQ(r.status, runtime::JobStatus::kOk);
    // Record conservation.
    EXPECT_EQ(std::accumulate(r.initial_sizes.begin(), r.initial_sizes.end(),
                              std::size_t{0}),
              ds.size());
    EXPECT_EQ(r.processed, r.initial_sizes);
    // Time and energy sanity.
    EXPECT_GT(r.makespan_s, 0.0);
    EXPECT_GT(r.setup_time_s, 0.0);
    EXPECT_GE(r.dirty_energy_j, 0.0);
    EXPECT_GE(r.green_energy_j, 0.0);
    EXPECT_GT(r.total_work_units, 0.0);
    EXPECT_GT(r.quality, 0.0);
    // Summaries serialize.
    const std::string json = runtime::summary_json(r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find(strategy_name(strategy)), std::string::npos);
    if (strategy == Strategy::kStratified) stratified_time = r.makespan_s;
    if (strategy == Strategy::kHetAware) het_time = r.makespan_s;
  }
  // The paper's core claim, required of every workload.
  EXPECT_LT(het_time, stratified_time);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, IntegrationMatrix,
    ::testing::Values(
        MatrixCase{"apriori-text", &text_dataset, &apriori_workload},
        MatrixCase{"subtree-tree", &tree_dataset, &subtree_workload},
        MatrixCase{"webgraph-graph", &graph_dataset, &webgraph_workload},
        MatrixCase{"lz77-graph", &graph_dataset, &lz77_workload},
        MatrixCase{"deflate-graph", &graph_dataset, &deflate_workload}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hetsim::core
