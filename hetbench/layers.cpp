#include "layers.h"

#include <array>
#include <map>

#include "check/check.h"
#include "core/compression_workload.h"
#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "kvstore/codec.h"
#include "optimize/pareto.h"
#include "partition/partitioner.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"

namespace hetbench {

using namespace hetsim;

void TimedWorkload::run(cluster::NodeContext& ctx,
                        const data::Dataset& dataset,
                        std::span<const std::uint32_t> indices) {
  const Clock::time_point start = Clock::now();
  inner_.run(ctx, dataset, indices);
  run_s_ += seconds_since(start);
  ++run_calls_;
}

std::vector<cluster::NodeTask> TimedWorkload::make_global_tasks(
    const data::Dataset& dataset,
    const partition::PartitionAssignment& assignment) {
  std::vector<cluster::NodeTask> tasks =
      inner_.make_global_tasks(dataset, assignment);
  for (cluster::NodeTask& task : tasks) {
    if (!task) continue;
    task = [this, inner = std::move(task)](cluster::NodeContext& ctx) {
      const Clock::time_point start = Clock::now();
      inner(ctx);
      global_s_ += seconds_since(start);
    };
  }
  return tasks;
}

MiningCounters mining_counters(const core::Workload& workload) {
  if (const auto* w =
          dynamic_cast<const core::SubtreeMiningWorkload*>(&workload)) {
    return {w->union_candidates(), w->false_positives(),
            w->globally_frequent()};
  }
  if (const auto* w =
          dynamic_cast<const core::PatternMiningWorkload*>(&workload)) {
    return {w->union_candidates(), w->false_positives(),
            w->globally_frequent()};
  }
  return {};
}

namespace {

double per(double count, double base) { return base > 0.0 ? count / base : 0.0; }

}  // namespace

Values probe_layers(const data::Dataset& dataset,
                    const runtime::JobSpec& spec,
                    const runtime::JobRuntime& runtime,
                    const runtime::JobSummary& summary,
                    const core::Workload& workload) {
  Values out;
  const std::size_t n = dataset.records.size();

  Clock::time_point start = Clock::now();
  const sketch::MinHasher hasher(spec.sketch);
  const std::vector<sketch::Sketch> sketches = hasher.sketch_all(dataset.records);
  out.emplace_back("sketch.sketch_all_s", seconds_since(start));

  start = Clock::now();
  const stratify::Stratification strata =
      stratify::composite_kmodes(sketches, spec.kmodes);
  out.emplace_back("stratify.kmodes_s", seconds_since(start));
  out.emplace_back("stratify.iterations", strata.iterations);
  out.emplace_back("stratify.work_ops", static_cast<double>(strata.work_ops));

  const std::vector<optimize::NodeModel>& models = runtime.node_models();
  start = Clock::now();
  const optimize::PartitionPlan plan =
      spec.strategy == core::Strategy::kHetEnergyAware
          ? optimize::solve_partition_sizes_normalized(models, n, spec.alpha)
          : optimize::solve_partition_sizes(models, n, 1.0);
  out.emplace_back("optimize.solve_s", seconds_since(start));
  HETSIM_CHECK(!plan.sizes.empty());

  constexpr std::array<double, 11> kAlphas = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                              0.6, 0.7, 0.8, 0.9, 1.0};
  start = Clock::now();
  const std::vector<optimize::FrontierPoint> frontier =
      optimize::sweep_frontier_normalized(models, n, kAlphas);
  out.emplace_back("optimize.frontier_s", seconds_since(start));
  HETSIM_CHECK_EQ(frontier.size(), kAlphas.size());

  start = Clock::now();
  const partition::PartitionAssignment assignment = partition::make_partitions(
      strata, summary.initial_sizes, workload.preferred_layout());
  out.emplace_back("partition.make_partitions_s", seconds_since(start));
  HETSIM_CHECK_EQ(assignment.total_records(), n);

  std::vector<std::string> payloads;
  payloads.reserve(n);
  for (const data::Record& r : dataset.records) payloads.push_back(r.payload);
  start = Clock::now();
  const std::string blob = kvstore::pack_records(payloads);
  const std::vector<std::string> unpacked = kvstore::unpack_records(blob);
  out.emplace_back("kvstore.codec_s", seconds_since(start));
  HETSIM_CHECK(unpacked == payloads);

  const MiningCounters mining = mining_counters(workload);
  const auto candidates = static_cast<double>(mining.union_candidates);
  const auto false_positives = static_cast<double>(mining.false_positives);
  const auto frequent = static_cast<double>(mining.globally_frequent);
  out.emplace_back("mining.union_candidates", candidates);
  out.emplace_back("mining.false_positives", false_positives);
  out.emplace_back("mining.globally_frequent", frequent);
  out.emplace_back("mining.union_per_frequent", per(candidates, frequent));
  out.emplace_back("mining.false_positives_per_frequent",
                   per(false_positives, frequent));

  const auto* compression =
      dynamic_cast<const core::CompressionWorkload*>(&workload);
  out.emplace_back("compress.ratio",
                   compression != nullptr ? compression->quality() : 0.0);
  return out;
}

Values virtual_layers(const runtime::JobRuntime& runtime,
                      const runtime::JobSummary& summary,
                      cluster::Cluster& cluster) {
  // Phase spans on the runtime lane; a retried phase contributes every
  // attempt.
  std::map<std::string, double> phase_s;
  for (const runtime::TraceEvent& e : runtime.trace().events()) {
    if (e.kind == runtime::TraceEventKind::kComplete &&
        e.lane == runtime::TraceRecorder::kRuntimeLane) {
      phase_s[e.name] += e.duration_s;
    }
  }
  Values out;
  for (const char* phase :
       {"ingest", "stratify", "estimate", "partition", "execute", "global"}) {
    out.emplace_back(std::string("runtime.v_") + phase + "_s", phase_s[phase]);
  }

  // Cluster phases (everything but the executor's chunks) before the
  // execute phase: ingest, sketching, clustering, progressive samples,
  // partition load. The global phase also runs through the cluster but
  // belongs to the makespan, which summary.total_work_units covers.
  double setup_units = 0.0;
  for (const cluster::PhaseReport& phase : cluster.history()) {
    if (phase.name == "global") continue;
    for (const cluster::NodePhaseResult& r : phase.per_node) {
      setup_units += r.work_units;
    }
  }
  out.emplace_back("cluster.setup_work_units", setup_units);
  out.emplace_back("cluster.work_units", summary.total_work_units);

  const net::LinkStats net = cluster.fabric().total_stats();
  out.emplace_back("net.messages", static_cast<double>(net.messages));
  out.emplace_back("net.round_trips", static_cast<double>(net.round_trips));
  out.emplace_back("net.bytes", static_cast<double>(net.bytes));

  out.emplace_back("ha.replica_writes",
                   static_cast<double>(summary.replica_writes));
  out.emplace_back("ha.elections", static_cast<double>(summary.elections));
  out.emplace_back("runtime.replans", static_cast<double>(summary.replans));
  out.emplace_back("runtime.migrated_records",
                   static_cast<double>(summary.migrated_records));
  out.emplace_back("runtime.migrated_bytes", summary.migrated_bytes);
  return out;
}

}  // namespace hetbench
