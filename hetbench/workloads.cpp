#include "workloads.h"

#include <stdexcept>

#include "core/compression_workload.h"
#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "data/generators.h"

namespace hetbench {

using namespace hetsim;

Kind parse_kind(std::string_view name) {
  if (name == "tree-son") return Kind::kTreeSon;
  if (name == "graph-energy") return Kind::kGraphEnergy;
  if (name == "text-ha-replan") return Kind::kTextHaReplan;
  throw std::invalid_argument("unknown workload: " + std::string(name) +
                              " (expected tree-son|graph-energy|"
                              "text-ha-replan)");
}

std::string_view kind_name(Kind kind) {
  switch (kind) {
    case Kind::kTreeSon:
      return "tree-son";
    case Kind::kGraphEnergy:
      return "graph-energy";
    case Kind::kTextHaReplan:
      return "text-ha-replan";
  }
  return "?";
}

std::uint64_t fold_seed(std::uint64_t preset, std::uint64_t seed,
                        std::uint64_t variant) {
  // splitmix64 of the variant's index, so neighbouring seeds give
  // unrelated generator streams; index 0 keeps the preset.
  const std::uint64_t index = seed * kVariants + variant;
  if (index == 0) return preset;
  std::uint64_t z = index + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return preset ^ (z ^ (z >> 31));
}

Inputs make_inputs(Kind kind, std::uint64_t seed, std::uint64_t variant) {
  Inputs in;
  switch (kind) {
    case Kind::kTreeSon: {
      data::TreeCorpusConfig cfg = data::swissprot_like(1.0);
      cfg.seed = fold_seed(cfg.seed, seed, variant);
      in.trees = data::generate_trees(cfg);
      in.dataset = data::make_tree_dataset("trees", in.trees);
      break;
    }
    case Kind::kGraphEnergy: {
      data::WebGraphConfig cfg = data::uk_like(2.0);
      cfg.seed = fold_seed(cfg.seed, seed, variant);
      in.dataset = data::generate_graph_corpus(cfg, "webgraph");
      break;
    }
    case Kind::kTextHaReplan: {
      data::TextCorpusConfig cfg = data::rcv1_like(2.0);
      cfg.seed = fold_seed(cfg.seed, seed, variant);
      in.dataset = data::generate_text_corpus(cfg, "rcv1");
      break;
    }
  }
  return in;
}

runtime::JobSpec make_spec(Kind kind, std::uint64_t seed,
                           std::uint64_t variant) {
  runtime::JobSpec spec;
  spec.name = std::string(kind_name(kind));
  spec.sampling.min_records = 40;
  spec.seed = fold_seed(spec.seed, seed, variant);
  switch (kind) {
    case Kind::kTreeSon:
      spec.strategy = core::Strategy::kHetAware;
      break;
    case Kind::kGraphEnergy:
      spec.strategy = core::Strategy::kHetEnergyAware;
      spec.alpha = 0.6;
      spec.normalized_alpha = true;
      break;
    case Kind::kTextHaReplan:
      spec.strategy = core::Strategy::kHetAware;
      spec.replication = 2;
      spec.per_node_slowdown.assign(kNodes, 1.0);
      spec.per_node_slowdown[0] = 2.5;
      break;
  }
  return spec;
}

std::unique_ptr<core::Workload> make_workload(Kind kind) {
  switch (kind) {
    case Kind::kTreeSon:
      return std::make_unique<core::SubtreeMiningWorkload>(
          mining::TreeMinerConfig{.min_support = kMiningSupport,
                                  .max_pattern_nodes = kMaxPatternSize});
    case Kind::kGraphEnergy:
      return std::make_unique<core::CompressionWorkload>(
          core::CompressionWorkload::Algorithm::kWebGraph);
    case Kind::kTextHaReplan:
      return std::make_unique<core::PatternMiningWorkload>(
          mining::AprioriConfig{.min_support = kMiningSupport,
                                .max_pattern_length = kMaxPatternSize});
  }
  throw std::invalid_argument("make_workload: unknown kind");
}

}  // namespace hetbench
