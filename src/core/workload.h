// Workload abstraction the Pareto framework drives.
//
// A workload must be runnable both on progressive samples (estimation)
// and on real partitions (execution), metering its work through the node
// context. Workloads with a cross-partition phase (e.g. SON's global
// candidate prune) expose it via make_global_tasks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "data/dataset.h"
#include "partition/partitioner.h"

namespace hetsim::core {

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The partition layout this workload benefits from (paper III-E):
  /// mining wants representative partitions, compression wants similar
  /// records grouped.
  [[nodiscard]] virtual partition::Layout preferred_layout() const = 0;

  /// Clear per-execution state; called by the framework with the
  /// partition count right before the execution phases. `coordinator`
  /// is the node id cross-partition phases should exchange aggregates
  /// with (the paper's second master, section IV).
  virtual void reset(std::size_t num_partitions,
                     std::uint32_t coordinator = 0) = 0;

  /// Run the algorithm on the given records of `dataset` as node
  /// `ctx.node().id`, metering work via ctx.meter(). Called both during
  /// progressive-sampling estimation and for the real partition.
  /// run() calls before reset() are estimation runs and leave no state:
  /// before the first reset() there is no per-node state to record
  /// into, and reset() discards whatever later ones recorded.
  virtual void run(cluster::NodeContext& ctx, const data::Dataset& dataset,
                   std::span<const std::uint32_t> indices) = 0;

  /// Tasks for an optional second (cross-partition) phase, using state
  /// captured by run(); empty vector = no global phase.
  [[nodiscard]] virtual std::vector<cluster::NodeTask> make_global_tasks(
      const data::Dataset& dataset,
      const partition::PartitionAssignment& assignment) {
    (void)dataset;
    (void)assignment;
    return {};
  }

  /// Workload-specific quality metric of the finished execution
  /// (compression ratio, frequent-pattern count, ...); 0 if none.
  [[nodiscard]] virtual double quality() const { return 0.0; }
};

}  // namespace hetsim::core
