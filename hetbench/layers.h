// Outside-in layer timing for the traced benchmark run.
//
// Nothing here is compiled into the program under test: the spans are
// taken around calls the benchmark makes into each layer's public
// functions. TimedWorkload decorates the job's core::Workload (run()
// and every global-phase closure); probe_layers() re-runs the job's own
// inputs through the sketch, stratify, optimize, partition and kvstore
// codec entry points; virtual_layers() reads what the runtime, cluster
// and fabric recorded about the job.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/workload.h"
#include "data/dataset.h"
#include "runtime/runtime.h"

namespace hetbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Named metric values in the order they were recorded.
using Values = std::vector<std::pair<std::string, double>>;

/// Times every call the runtime makes into the wrapped workload. The
/// runtime calls run() and the global tasks one at a time (cluster
/// phases loop over nodes; the executor admits one node thread at a
/// time), so the accumulators need no synchronisation.
class TimedWorkload final : public hetsim::core::Workload {
 public:
  explicit TimedWorkload(hetsim::core::Workload& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] hetsim::partition::Layout preferred_layout() const override {
    return inner_.preferred_layout();
  }
  void reset(std::size_t num_partitions, std::uint32_t coordinator) override {
    inner_.reset(num_partitions, coordinator);
  }
  void run(hetsim::cluster::NodeContext& ctx,
           const hetsim::data::Dataset& dataset,
           std::span<const std::uint32_t> indices) override;
  [[nodiscard]] std::vector<hetsim::cluster::NodeTask> make_global_tasks(
      const hetsim::data::Dataset& dataset,
      const hetsim::partition::PartitionAssignment& assignment) override;
  [[nodiscard]] double quality() const override { return inner_.quality(); }

  [[nodiscard]] double run_s() const noexcept { return run_s_; }
  [[nodiscard]] std::uint64_t run_calls() const noexcept { return run_calls_; }
  [[nodiscard]] double global_s() const noexcept { return global_s_; }

 private:
  hetsim::core::Workload& inner_;
  double run_s_ = 0.0;
  std::uint64_t run_calls_ = 0;
  double global_s_ = 0.0;
};

/// SON counters of the two mining workloads; zeros for other workloads.
struct MiningCounters {
  std::uint64_t union_candidates = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t globally_frequent = 0;
};
[[nodiscard]] MiningCounters mining_counters(
    const hetsim::core::Workload& workload);

/// Host seconds of one call each into MinHasher::sketch_all,
/// stratify::composite_kmodes, the strategy's optimize solver, a fixed
/// 11-point alpha sweep of the normalized frontier, make_partitions and
/// the kvstore pack/unpack codec, all on the finished job's own inputs,
/// models and plan; plus the stratifier's iteration and work counts.
[[nodiscard]] Values probe_layers(const hetsim::data::Dataset& dataset,
                                  const hetsim::runtime::JobSpec& spec,
                                  const hetsim::runtime::JobRuntime& runtime,
                                  const hetsim::runtime::JobSummary& summary,
                                  const hetsim::core::Workload& workload);

/// Virtual-time and counter metrics of a finished job: phase spans from
/// the runtime trace, the cluster's phase history, the fabric's traffic
/// totals and the summary's re-plan and replication counters.
[[nodiscard]] Values virtual_layers(const hetsim::runtime::JobRuntime& runtime,
                                    const hetsim::runtime::JobSummary& summary,
                                    hetsim::cluster::Cluster& cluster);

}  // namespace hetbench
