// Integration tests of the paper's full framework pipeline (Fig. 1):
// stratify -> estimate -> optimize -> partition -> execute, run as the
// paper's static job through runtime::JobRuntime, across workloads and
// strategies. These encode the paper's qualitative claims:
//   * Het-Aware cuts makespan versus the Stratified equal-size baseline;
//   * Het-Energy-Aware trades some speed for lower dirty energy;
//   * quality (pattern sets / compression ratio) is preserved;
//   * the predicted frontier is monotone and the baseline lies off it.
#include <gtest/gtest.h>

#include <numeric>

#include "core/compression_workload.h"
#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "runtime/runtime.h"

namespace hetsim::core {
namespace {

using runtime::JobSummary;

runtime::JobSpec fast_spec() {
  runtime::JobSpec spec;
  spec.sketch.num_hashes = 32;
  spec.kmodes.num_strata = 12;
  spec.kmodes.max_iterations = 10;
  spec.sampling.steps = 4;
  spec.sampling.min_fraction = 0.02;
  spec.sampling.max_fraction = 0.10;
  // Raw scalarization at the paper's mining alpha.
  spec.alpha = 0.999;
  spec.normalized_alpha = false;
  return spec;
}

/// One job of the paper's static run (no re-planning, one execution
/// chunk per partition) on a fresh `nodes`-node standard cluster.
runtime::JobSpec static_spec(runtime::JobSpec spec, Strategy strategy,
                             const data::Dataset& ds) {
  spec.strategy = strategy;
  spec.enable_replan = false;
  spec.checkpoint_records = ds.size();
  return spec;
}

struct StaticJob {
  cluster::Cluster cluster;
  energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  runtime::JobRuntime runtime;
  JobSummary summary;

  StaticJob(std::uint32_t nodes, Strategy strategy, const data::Dataset& ds,
            Workload& workload, runtime::JobSpec spec = fast_spec())
      : cluster(cluster::standard_cluster(nodes)),
        runtime(cluster, energy, static_spec(std::move(spec), strategy, ds)),
        summary(runtime.run(ds, workload)) {}
};

JobSummary run_static(std::uint32_t nodes, Strategy strategy,
                      const data::Dataset& ds, Workload& workload,
                      runtime::JobSpec spec = fast_spec()) {
  return StaticJob(nodes, strategy, ds, workload, std::move(spec)).summary;
}

TEST(Framework, PrepareLearnsPlausibleModels) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.25));
  PatternMiningWorkload workload({.min_support = 0.08, .max_pattern_length = 3});
  const StaticJob job(4, Strategy::kHetAware, ds, workload);
  const auto& models = job.runtime.node_models();
  ASSERT_EQ(models.size(), 4u);
  for (const auto& m : models) {
    EXPECT_GT(m.slope, 0.0);
    EXPECT_GE(m.intercept, 0.0);
  }
  // Type-4 node (speed 1) must have a steeper slope than type-1 (speed 4).
  EXPECT_GT(models[3].slope, models[0].slope * 2.0);
  EXPECT_GT(job.summary.setup_time_s, 0.0);
  // Strata computed over the whole dataset.
  EXPECT_EQ(job.runtime.strata().assignment.size(), ds.size());
}

TEST(Framework, PlanSizesFollowStrategy) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.25));
  PatternMiningWorkload workload({.min_support = 0.08, .max_pattern_length = 3});
  const auto eq =
      run_static(4, Strategy::kStratified, ds, workload).initial_sizes;
  const auto het = run_static(4, Strategy::kHetAware, ds, workload).initial_sizes;
  for (const auto s : eq) EXPECT_NEAR(s, ds.size() / 4.0, 1.0);
  // Het-aware gives the fast node more than the slow node.
  EXPECT_GT(het[0], het[3]);
  EXPECT_EQ(std::accumulate(het.begin(), het.end(), std::size_t{0}), ds.size());
}

class TextMiningEndToEnd : public ::testing::Test {
 protected:
  JobSummary run(Strategy strategy) {
    return run_static(8, strategy, ds_, workload_);
  }
  const data::Dataset ds_ = data::generate_text_corpus(data::rcv1_like(0.4));
  PatternMiningWorkload workload_{
      {.min_support = 0.08, .max_pattern_length = 3}};
};

TEST_F(TextMiningEndToEnd, HetAwareBeatsStratifiedOnTime) {
  const JobSummary base = run(Strategy::kStratified);
  const JobSummary het = run(Strategy::kHetAware);
  EXPECT_LT(het.makespan_s, base.makespan_s * 0.85)
      << "Het-Aware should cut makespan well below the equal-size baseline";
}

TEST_F(TextMiningEndToEnd, HetEnergyAwareTradesTimeForDirtyEnergy) {
  const JobSummary het = run(Strategy::kHetAware);
  const JobSummary green = run(Strategy::kHetEnergyAware);
  // Slower (or equal) than pure Het-Aware but cleaner.
  EXPECT_GE(green.makespan_s, het.makespan_s * 0.99);
  EXPECT_LE(green.dirty_energy_j, het.dirty_energy_j * 1.001);
}

TEST_F(TextMiningEndToEnd, MiningOutputIdenticalAcrossStrategies) {
  const JobSummary a = run(Strategy::kStratified);
  const std::size_t frequent_base = workload_.globally_frequent();
  const JobSummary b = run(Strategy::kHetAware);
  EXPECT_EQ(workload_.globally_frequent(), frequent_base)
      << "SON global result must not depend on partitioning";
  EXPECT_GT(frequent_base, 0u);
  EXPECT_DOUBLE_EQ(a.quality, static_cast<double>(frequent_base));
  EXPECT_DOUBLE_EQ(b.quality, static_cast<double>(frequent_base));
}

TEST_F(TextMiningEndToEnd, RepresentativeLayoutCutsFalsePositives) {
  (void)run(Strategy::kStratified);
  const std::size_t stratified_fp = workload_.false_positives();
  (void)run(Strategy::kRandom);
  const std::size_t random_fp = workload_.false_positives();
  EXPECT_LE(stratified_fp, random_fp)
      << "stratified representative partitions must not generate more "
         "false-positive candidates than random partitions";
}

TEST_F(TextMiningEndToEnd, ReportAccountingConsistent) {
  const JobSummary r = run(Strategy::kHetAware);
  EXPECT_EQ(std::accumulate(r.initial_sizes.begin(), r.initial_sizes.end(),
                            std::size_t{0}),
            ds_.size());
  // The static run processes exactly the planned partitions.
  EXPECT_EQ(r.processed, r.initial_sizes);
  EXPECT_EQ(r.processed.size(), 8u);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.dirty_energy_j, 0.0);
  EXPECT_GE(r.green_energy_j, 0.0);
  EXPECT_GT(r.total_work_units, 0.0);
  EXPECT_GT(r.setup_time_s, 0.0);
}

TEST_F(TextMiningEndToEnd, FrontierMonotoneAndBaselineOffFrontier) {
  const StaticJob job(8, Strategy::kHetAware, ds_, workload_);
  const auto& models = job.runtime.node_models();
  const std::vector<double> alphas{1.0, 0.9999, 0.999, 0.99, 0.9};
  const auto frontier = optimize::sweep_frontier(models, ds_.size(), alphas);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i].makespan_s, frontier[i - 1].makespan_s - 1e-9);
    EXPECT_LE(frontier[i].dirty_joules, frontier[i - 1].dirty_joules + 1e-9);
  }
  // Baseline equal split predicted metrics: must not dominate any
  // frontier point.
  const auto eq = optimize::equal_split(models, ds_.size());
  for (const auto& pt : frontier) {
    EXPECT_FALSE(pt.makespan_s > eq.predicted_makespan_s &&
                 pt.dirty_joules > eq.predicted_dirty_joules);
  }
  EXPECT_LT(frontier.front().makespan_s, eq.predicted_makespan_s);
}

TEST(Framework, TreeMiningEndToEnd) {
  // Scale 1.0: smaller corpora make SON's local thresholds so small that
  // sampling noise inflates candidates and drowns the speed signal.
  const data::Dataset ds = data::generate_tree_corpus(data::swissprot_like(1.0));
  PatternMiningWorkload workload(
      {.min_support = 0.05, .max_pattern_length = 2});
  const JobSummary base = run_static(8, Strategy::kStratified, ds, workload);
  const JobSummary het = run_static(8, Strategy::kHetAware, ds, workload);
  EXPECT_LT(het.makespan_s, base.makespan_s);
  EXPECT_GT(workload.globally_frequent(), 0u);
}

TEST(Framework, GraphCompressionEndToEnd) {
  runtime::JobSpec spec = fast_spec();
  spec.alpha = 0.995;
  data::WebGraphConfig gcfg = data::uk_like(0.25);
  const data::Dataset ds = data::generate_graph_corpus(gcfg);
  CompressionWorkload workload(CompressionWorkload::Algorithm::kWebGraph);

  const JobSummary base =
      run_static(8, Strategy::kStratified, ds, workload, spec);
  const double base_ratio = base.quality;
  const JobSummary het = run_static(8, Strategy::kHetAware, ds, workload, spec);
  const JobSummary green =
      run_static(8, Strategy::kHetEnergyAware, ds, workload, spec);

  EXPECT_LT(het.makespan_s, base.makespan_s * 0.9);
  EXPECT_LE(green.dirty_energy_j, het.dirty_energy_j * 1.001);
  // Quality preserved: het-aware ratios within a few percent of baseline.
  EXPECT_GT(base_ratio, 1.5);
  EXPECT_NEAR(het.quality, base_ratio, base_ratio * 0.10);
  EXPECT_NEAR(green.quality, base_ratio, base_ratio * 0.10);
}

TEST(Framework, SimilarLayoutCompressesBetterThanRandom) {
  data::WebGraphConfig gcfg = data::uk_like(0.15);
  const data::Dataset ds = data::generate_graph_corpus(gcfg);
  CompressionWorkload workload(CompressionWorkload::Algorithm::kWebGraph);
  const JobSummary strat = run_static(4, Strategy::kStratified, ds, workload);
  const JobSummary random = run_static(4, Strategy::kRandom, ds, workload);
  EXPECT_GT(strat.quality, random.quality)
      << "similar-together partitions must compress better than random";
}

TEST(Framework, Lz77EndToEndRoundTripsQuality) {
  const data::Dataset ds = data::generate_graph_corpus(data::uk_like(0.1));
  CompressionWorkload workload(CompressionWorkload::Algorithm::kLz77);
  const JobSummary base = run_static(8, Strategy::kStratified, ds, workload);
  const JobSummary het = run_static(8, Strategy::kHetAware, ds, workload);
  EXPECT_GT(base.quality, 1.0);
  EXPECT_NEAR(het.quality, base.quality, base.quality * 0.15);
  EXPECT_LE(het.makespan_s, base.makespan_s);
}

TEST(Framework, SubtreeMiningEndToEnd) {
  const data::Dataset ds =
      data::generate_tree_corpus(data::swissprot_like(0.5));
  SubtreeMiningWorkload workload({.min_support = 0.08, .max_pattern_nodes = 3});
  const JobSummary base = run_static(8, Strategy::kStratified, ds, workload);
  const std::size_t frequent_base = workload.globally_frequent();
  EXPECT_GT(frequent_base, 0u);
  const JobSummary het = run_static(8, Strategy::kHetAware, ds, workload);
  EXPECT_LT(het.makespan_s, base.makespan_s);
  // The global pattern set is partition-invariant.
  EXPECT_EQ(workload.globally_frequent(), frequent_base);
  // SON completeness bookkeeping: union = frequent + false positives.
  EXPECT_EQ(workload.union_candidates(),
            workload.globally_frequent() + workload.false_positives());
}

TEST(Framework, SubtreeWorkloadRejectsNonTreeData) {
  const data::Dataset docs = data::generate_text_corpus(data::rcv1_like(0.05));
  SubtreeMiningWorkload workload({.min_support = 0.1, .max_pattern_nodes = 2});
  // The workload refuses every record, so no phase that runs it can
  // complete; the runtime reports that instead of throwing.
  const JobSummary r = run_static(2, Strategy::kHetAware, docs, workload);
  EXPECT_NE(r.status, runtime::JobStatus::kOk);
  EXPECT_EQ(std::accumulate(r.processed.begin(), r.processed.end(),
                            std::size_t{0}),
            0u);
}

TEST(Framework, NormalizedAlphaModeRuns) {
  runtime::JobSpec spec = fast_spec();
  spec.normalized_alpha = true;
  spec.alpha = 0.5;
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.25));
  PatternMiningWorkload workload({.min_support = 0.1, .max_pattern_length = 2});
  const StaticJob het(8, Strategy::kHetAware, ds, workload, spec);
  const JobSummary green =
      run_static(8, Strategy::kHetEnergyAware, ds, workload, spec);
  // At alpha=0.5 normalized the plans must genuinely differ and energy
  // must not be worse.
  EXPECT_NE(het.summary.initial_sizes, green.initial_sizes);
  EXPECT_LE(green.dirty_energy_j, het.summary.dirty_energy_j + 1e-9);
  // The normalized frontier over the learned models.
  const std::vector<double> alphas{1.0, 0.5, 0.0};
  const auto frontier = optimize::sweep_frontier_normalized(
      het.runtime.node_models(), ds.size(), alphas);
  EXPECT_EQ(frontier.size(), 3u);
  EXPECT_LE(frontier[2].dirty_joules, frontier[0].dirty_joules + 1e-9);
}

TEST(Framework, DeflateWorkloadEndToEnd) {
  const data::Dataset ds = data::generate_graph_corpus(data::uk_like(0.1));
  CompressionWorkload workload(CompressionWorkload::Algorithm::kDeflate);
  const JobSummary base = run_static(4, Strategy::kStratified, ds, workload);
  const JobSummary het = run_static(4, Strategy::kHetAware, ds, workload);
  EXPECT_GT(base.quality, 1.0);
  EXPECT_LE(het.makespan_s, base.makespan_s);
  // The entropy stage should beat plain LZ77's ratio on these payloads.
  CompressionWorkload lz(CompressionWorkload::Algorithm::kLz77);
  const JobSummary lz_base = run_static(4, Strategy::kStratified, ds, lz);
  EXPECT_GT(base.quality, lz_base.quality);
}

TEST(Framework, DeterministicAcrossIdenticalRuns) {
  const auto run_once = [] {
    const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.15));
    PatternMiningWorkload workload(
        {.min_support = 0.1, .max_pattern_length = 2});
    return run_static(4, Strategy::kHetAware, ds, workload);
  };
  const JobSummary a = run_once();
  const JobSummary b = run_once();
  EXPECT_EQ(a.initial_sizes, b.initial_sizes);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.dirty_energy_j, b.dirty_energy_j);
  EXPECT_EQ(runtime::summary_json(a), runtime::summary_json(b));
}

TEST(Framework, StrategyNamesAreHuman) {
  EXPECT_EQ(strategy_name(Strategy::kStratified), "Stratified");
  EXPECT_EQ(strategy_name(Strategy::kHetAware), "Het-Aware");
  EXPECT_EQ(strategy_name(Strategy::kHetEnergyAware), "Het-Energy-Aware");
  EXPECT_EQ(strategy_name(Strategy::kRandom), "Random");
}

}  // namespace
}  // namespace hetsim::core
