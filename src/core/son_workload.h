// Distributed frequent pattern mining: the SON two-phase scheme (the
// paper's reference [24]) over the framework, for any local miner.
//
// run() mines a node's records with the local miner and keeps the
// locally frequent patterns; the job runtime executes a partition as
// several chunks, so a node's patterns are the concatenation over its
// chunks. make_global_tasks() adds the candidate-prune scan: the union
// of locally frequent patterns is broadcast, every node counts exact
// supports over its partition, and the counts are merged. Skewed
// partitions produce more locally-frequent-but-globally-infrequent
// candidates, inflating both phases — the effect the representative
// layout suppresses.
//
// A Miner trait supplies the miner's Config and Pattern types, the
// `kName` prefix of name(), the kvstore keys the global phase writes
// (`kCandidatesKey`, `kCountsKey` + node id), and four static
// functions: records(dataset, indices), mine(records, config, ops),
// count(records, candidates, ops) and wire_bytes(pattern), the
// candidate's broadcast size. The keys and sizes set the SET wire
// bytes, and with them the virtual time.
#pragma once

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/workload.h"
#include "mining/son.h"

namespace hetsim::core {

template <typename Miner>
class SonWorkload final : public Workload {
 public:
  using Config = typename Miner::Config;
  using Pattern = typename Miner::Pattern;

  explicit SonWorkload(Config config) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    std::ostringstream ss;
    ss << Miner::kName << "(support=" << config_.min_support << ")";
    return ss.str();
  }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }

  void reset(std::size_t num_partitions,
             std::uint32_t coordinator) override {
    coordinator_ = coordinator;
    local_.assign(num_partitions, {});
    candidates_.clear();
    counts_.clear();
  }

  void run(cluster::NodeContext& ctx, const data::Dataset& dataset,
           std::span<const std::uint32_t> indices) override {
    std::uint64_t ops = 0;
    std::vector<Pattern> frequent =
        Miner::mine(Miner::records(dataset, indices), config_, ops);
    ctx.meter().add(static_cast<double>(ops));
    const std::uint32_t node = ctx.node().id;
    if (node < local_.size()) {
      local_[node].insert(local_[node].end(),
                          std::make_move_iterator(frequent.begin()),
                          std::make_move_iterator(frequent.end()));
    }
  }

  [[nodiscard]] std::vector<cluster::NodeTask> make_global_tasks(
      const data::Dataset& dataset,
      const partition::PartitionAssignment& assignment) override {
    candidates_ = mining::candidate_union(local_);
    counts_.assign(candidates_.size(), 0u);
    min_count_ =
        mining::min_support_count(config_.min_support, dataset.records.size());
    std::size_t candidate_bytes = 0;
    for (const Pattern& c : candidates_) candidate_bytes += Miner::wire_bytes(c);

    std::vector<cluster::NodeTask> tasks;
    tasks.reserve(assignment.partitions.size());
    for (std::size_t node = 0; node < assignment.partitions.size(); ++node) {
      tasks.push_back([this, node, &dataset, &assignment,
                       candidate_bytes](cluster::NodeContext& ctx) {
        // Receive the broadcast candidate set (one pipelined transfer
        // from the coordinator, modelled as a single blob write).
        ctx.client(coordinator_)
            .set(Miner::kCandidatesKey, std::string(candidate_bytes, '\0'));
        std::uint64_t ops = 0;
        const std::vector<std::uint32_t> counts = Miner::count(
            Miner::records(dataset, assignment.partitions[node]), candidates_,
            ops);
        ctx.meter().add(static_cast<double>(ops));
        std::string counts_blob;
        counts_blob.reserve(counts.size() * 4);
        for (std::size_t c = 0; c < counts.size(); ++c) {
          counts_[c] += counts[c];
          common::append_u32(counts_blob, counts[c]);
        }
        // Ship the local counts back (4 bytes each, pipelined).
        ctx.client(coordinator_)
            .set(Miner::kCountsKey + std::to_string(node), counts_blob);
      });
    }
    return tasks;
  }

  /// Globally frequent pattern count after the prune phase.
  [[nodiscard]] double quality() const override {
    return static_cast<double>(globally_frequent());
  }

  // ---- post-execution introspection (for benches/tests) ----
  [[nodiscard]] std::size_t union_candidates() const noexcept {
    return candidates_.size();
  }
  [[nodiscard]] std::size_t false_positives() const noexcept {
    return candidates_.size() - globally_frequent();
  }
  [[nodiscard]] std::size_t globally_frequent() const noexcept {
    std::size_t frequent = 0;
    for (const std::uint32_t count : counts_) {
      if (count >= min_count_) ++frequent;
    }
    return frequent;
  }

 private:
  Config config_;
  std::uint32_t coordinator_ = 0;
  std::vector<std::vector<Pattern>> local_;  // per node, over its chunks
  std::vector<Pattern> candidates_;          // union of local_
  std::vector<std::uint32_t> counts_;        // merged global supports
  std::uint32_t min_count_ = 0;
};

}  // namespace hetsim::core
