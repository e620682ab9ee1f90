// The three fixed jobs of the benchmark, each run through
// runtime::JobRuntime::run on the paper's 4-node standard cluster
// (speeds 4/3/2/1).
//
//   tree-son        FREQT-over-SON subtree mining, swissprot_like(1.0),
//                   support 0.08, <= 3 pattern nodes, Het-Aware.
//   graph-energy    WebGraph compression, uk_like(2.0), Het-Energy-Aware
//                   with normalized alpha = 0.6.
//   text-ha-replan  SON-Apriori, rcv1_like(2.0), support 0.08, length
//                   <= 3, Het-Aware, replication 2, node 0 secretly 2.5x
//                   slower than its fitted model (forces re-plans).
//
// One run measures kVariants inputs of its workload, all made from the
// run's seed: variant v of seed s folds s * kVariants + v into every
// generator config and into JobSpec::seed (seed 0, variant 0 leaves the
// library presets untouched). A single corpus is a poor sample: k-modes
// converges in 9 to 20 iterations depending on the corpus, which swings
// one job's virtual set-up time by up to 2x, so every end-to-end metric
// averages over the variants.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload.h"
#include "data/dataset.h"
#include "data/tree.h"
#include "runtime/runtime.h"

namespace hetbench {

enum class Kind : std::uint8_t { kTreeSon, kGraphEnergy, kTextHaReplan };

/// Parses a workload name; throws std::invalid_argument if unknown.
[[nodiscard]] Kind parse_kind(std::string_view name);
[[nodiscard]] std::string_view kind_name(Kind kind);

/// Nodes in the benchmark cluster (and partitions per job).
inline constexpr std::uint32_t kNodes = 4;

/// Input variants per (non-traced) run.
inline constexpr std::uint64_t kVariants = 10;

/// A preset generator or job seed with the variant's seed folded in;
/// the identity for seed 0, variant 0.
[[nodiscard]] std::uint64_t fold_seed(std::uint64_t preset, std::uint64_t seed,
                                      std::uint64_t variant);

/// The generated input of one workload. `trees` holds the tree corpus
/// for tree-son (the oracle mines it directly); empty otherwise.
struct Inputs {
  hetsim::data::Dataset dataset;
  std::vector<hetsim::data::LabeledTree> trees;
};

[[nodiscard]] Inputs make_inputs(Kind kind, std::uint64_t seed,
                                 std::uint64_t variant);
[[nodiscard]] hetsim::runtime::JobSpec make_spec(Kind kind, std::uint64_t seed,
                                                 std::uint64_t variant);
/// A fresh workload instance for one job.
[[nodiscard]] std::unique_ptr<hetsim::core::Workload> make_workload(Kind kind);

/// Mining thresholds shared by the job and its oracle.
inline constexpr double kMiningSupport = 0.08;
inline constexpr std::uint32_t kMaxPatternSize = 3;

}  // namespace hetbench
