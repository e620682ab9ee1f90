#include "runtime/runtime.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "check/check.h"
#include "common/allocation.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/json.h"
#include "fault/fault.h"
#include "ha/client.h"
#include "kvstore/client.h"
#include "partition/partitioner.h"
#include "runtime/dag.h"
#include "runtime/executor.h"

namespace hetsim::runtime {

namespace {

std::string encode_sketch(const sketch::Sketch& sig) {
  std::string out;
  out.reserve(sig.size() * 8);
  for (const std::uint64_t v : sig) common::append_u64(out, v);
  return out;
}

/// Replicated key of the idx-th ingested record.
std::string record_key(std::uint32_t idx) {
  return "data:" + std::to_string(idx);
}

/// Canonical payloads of a list of records, position by position.
struct FetchedRecords {
  std::vector<std::string> blobs;
  std::vector<char> have;  // 1 where blobs holds the record
  std::size_t from_replicas = 0;  // served by the replica walk
};

}  // namespace

std::string summary_json(const JobSummary& s) {
  common::JsonWriter w;
  w.begin_object();
  w.field("job", s.job);
  w.field("workload", s.workload);
  w.field("strategy", core::strategy_name(s.strategy));
  w.field("records", static_cast<std::uint64_t>(s.records));
  w.field("setup_time_s", s.setup_time_s);
  w.field("makespan_s", s.makespan_s);
  w.field("dirty_energy_j", s.dirty_energy_j);
  w.field("green_energy_j", s.green_energy_j);
  w.field("migrated_bytes", s.migrated_bytes);
  w.field("replans", static_cast<std::uint64_t>(s.replans));
  w.field("stragglers_detected",
          static_cast<std::uint64_t>(s.stragglers_detected));
  w.field("migration_steps", static_cast<std::uint64_t>(s.migration_steps));
  w.field("migrated_records", static_cast<std::uint64_t>(s.migrated_records));
  w.field("total_work_units", s.total_work_units);
  w.field("quality", s.quality);
  w.key("initial_sizes");
  w.begin_array();
  for (const std::size_t v : s.initial_sizes) {
    w.value(static_cast<std::uint64_t>(v));
  }
  w.end_array();
  w.key("processed");
  w.begin_array();
  for (const std::size_t v : s.processed) {
    w.value(static_cast<std::uint64_t>(v));
  }
  w.end_array();
  w.field("degraded", s.degraded);
  w.key("nodes_lost");
  w.begin_array();
  for (const std::uint32_t v : s.nodes_lost) {
    w.value(static_cast<std::uint64_t>(v));
  }
  w.end_array();
  w.field("node_loss_replans",
          static_cast<std::uint64_t>(s.node_loss_replans));
  w.field("replanned_records",
          static_cast<std::uint64_t>(s.replanned_records));
  w.field("replanned_bytes", s.replanned_bytes);
  w.field("kv_retries", s.kv_retries);
  w.field("kv_timeouts", s.kv_timeouts);
  w.field("kv_failures", s.kv_failures);
  w.field("phase_retries", static_cast<std::uint64_t>(s.phase_retries));
  w.field("failed_phase", s.failed_phase);
  w.field("records_dropped", static_cast<std::uint64_t>(s.records_dropped));
  w.field("tolerated_kv_failures", s.tolerated_kv_failures);
  w.field("status", std::string(job_status_name(s.status)));
  w.field("replica_writes", s.replica_writes);
  w.field("elections", static_cast<std::uint64_t>(s.elections));
  w.field("replica_rescued_records",
          static_cast<std::uint64_t>(s.replica_rescued_records));
  w.end_object();
  return w.str();
}

void verify_no_work_lost(const JobSummary& summary) {
  std::size_t processed = 0;
  for (const std::size_t v : summary.processed) processed += v;
  HETSIM_CHECK_EQ(processed, summary.records);
}

JobRuntime::JobRuntime(cluster::Cluster& cluster,
                       const energy::GreenEnergyEstimator& energy, JobSpec spec)
    : cluster_(cluster), energy_(energy), spec_(std::move(spec)) {
  common::require<common::ConfigError>(
      spec_.alpha >= 0.0 && spec_.alpha <= 1.0,
      "JobRuntime: alpha must be in [0, 1]");
  common::require<common::ConfigError>(
      spec_.per_node_slowdown.empty() ||
          spec_.per_node_slowdown.size() == cluster_.size(),
      "JobRuntime: per_node_slowdown must have one entry per node");
  common::require<common::ConfigError>(
      spec_.replication >= 1 && spec_.replication <= cluster_.size(),
      "JobRuntime: replication must be in [1, cluster size]");
  common::require<common::ConfigError>(spec_.phase_max_attempts >= 1,
                                       "JobRuntime: phase_max_attempts >= 1");
  common::require<common::ConfigError>(spec_.phase_retry_budget_s >= 0.0,
                                       "JobRuntime: phase_retry_budget_s < 0");
  const auto masters =
      cluster::choose_masters(cluster_.nodes(), cluster_.size() >= 2 ? 2 : 1);
  master_ = masters[0];
  barrier_master_ = masters.size() > 1 ? masters[1] : masters[0];
}

std::vector<std::size_t> JobRuntime::plan_sizes(std::size_t total) const {
  switch (spec_.strategy) {
    case core::Strategy::kRandom:
    case core::Strategy::kStratified: {
      const std::vector<double> ones(cluster_.size(), 1.0);
      return common::proportional_allocation(ones, total);
    }
    case core::Strategy::kHetAware:
      return optimize::solve_partition_sizes(models_, total, 1.0).sizes;
    case core::Strategy::kHetEnergyAware:
      // With a replicated data plane the copy traffic is part of the
      // energy bill, so the placement-aware solve takes over. (The raw
      // alpha is used there: mixing the replica term into the
      // normalized rescale would re-weight the extremes themselves.)
      if (replica_cost_.replication > 1) {
        return optimize::solve_partition_sizes_replicated(
                   models_, total, spec_.alpha, replica_cost_)
            .sizes;
      }
      return (spec_.normalized_alpha
                  ? optimize::solve_partition_sizes_normalized(models_, total,
                                                               spec_.alpha)
                  : optimize::solve_partition_sizes(models_, total,
                                                    spec_.alpha))
          .sizes;
  }
  throw common::ConfigError("JobRuntime: unknown strategy");
}

JobSummary JobRuntime::run(const data::Dataset& dataset,
                           core::Workload& workload) {
  common::require<common::ConfigError>(!dataset.records.empty(),
                                       "JobRuntime: empty dataset");
  const std::size_t p = cluster_.size();
  const std::size_t n = dataset.records.size();

  trace_.clear();
  trace_.name_lane(TraceRecorder::kRuntimeLane, "runtime");
  for (std::size_t i = 0; i < p; ++i) {
    trace_.name_lane(static_cast<std::int64_t>(i),
                     "node " + std::to_string(i) + " (speed " +
                         std::to_string(static_cast<int>(
                             cluster_.nodes()[i].speed)) +
                         "x)");
  }

  JobSummary summary;
  summary.job = spec_.name;
  summary.workload = workload.name();
  summary.strategy = spec_.strategy;
  summary.records = n;
  const net::RetryStats kv_before = cluster_.fabric().retry_stats();

  // Replicated data plane: every record is also sharded over k replica
  // stores, so losing any single node — the data master included —
  // leaves a live copy of every payload.
  router_.reset();
  replica_cost_ = {};
  strata_ = {};
  if (spec_.replication >= 2) {
    std::vector<net::HostId> members(p);
    std::iota(members.begin(), members.end(), net::HostId{0});
    ha::ShardMapConfig shard;
    shard.replication = spec_.replication;
    shard.seed = spec_.seed;
    router_ = std::make_unique<ha::ShardRouter>(
        ha::ShardMap(std::move(members), shard),
        spec_.seed ^ 0x48412d454c454354ULL);  // independent election stream
    double payload_bytes = 0.0;
    for (const data::Record& r : dataset.records) {
      payload_bytes += static_cast<double>(r.payload.size());
    }
    replica_cost_.replication = spec_.replication;
    replica_cost_.write_s_per_record =
        (payload_bytes / static_cast<double>(n)) /
        cluster_.fabric().remote_spec().bandwidth_bps;
    replica_cost_.replica_sets = router_->map().replica_sets();
  }

  // Job-relative virtual clock: cluster phases advance cluster_.now(),
  // the execute phase advances exec_extra (the executor runs its own
  // per-node clocks and reports a makespan).
  const double cluster_t0 = cluster_.now();
  double exec_extra = 0.0;
  const auto job_clock = [&] {
    return (cluster_.now() - cluster_t0) + exec_extra;
  };

  // State threaded between phases.
  std::vector<estimator::NodeTimeModel> time_models;
  std::vector<double> dirty_rates(p, 0.0);
  std::optional<partition::PartitionAssignment> assignment;
  std::vector<double> busy(p, 0.0);  // execution busy seconds, for energy
  // Set when the canonical "data" list never fully landed on the master
  // but every record has >= 1 replica copy: later phases must read
  // through the ha replica walk instead of master LIndex (a partially
  // applied RPush sequence silently shifts list indices).
  bool data_on_replicas = false;

  PhaseDag dag;
  const auto add_phase = [&](std::string name, PhaseKind kind,
                             std::vector<std::string> deps,
                             std::size_t max_attempts, JobStatus on_exhausted,
                             std::function<PhaseResult(const PhaseAttempt&)>
                                 body) {
    Phase ph;
    ph.name = std::move(name);
    ph.kind = kind;
    ph.deps = std::move(deps);
    ph.body = std::move(body);
    ph.max_attempts = max_attempts;
    ph.retry_budget_s = max_attempts > 1 ? spec_.phase_retry_budget_s : 0.0;
    ph.on_exhausted = on_exhausted;
    dag.add(std::move(ph));
  };
  const std::size_t retries = spec_.phase_max_attempts;

  add_phase("ingest", PhaseKind::kIngest, {}, retries,
            JobStatus::kDataUnavailable, [&](const PhaseAttempt& at) {
    PhaseResult result = PhaseResult::ok();
    cluster_.run_on("ingest", master_, [&](cluster::NodeContext& ctx) {
      kvstore::Client& local = ctx.local();
      bool master_ok = true;
      bool push_to_master = true;
      if (at.attempt > 0) {
        // RPush is not idempotent: re-ingesting onto the remnant of a
        // failed attempt would shift every list index — and would break
        // the LLen completeness proof below (a remnant plus a partial
        // re-push could fake llen == n). Clear the canonical list
        // first; if even the Del cannot land, the master copy is
        // forfeit for this attempt.
        const kvstore::Reply del = local.execute(
            {.type = kvstore::CommandType::kDel, .key = "data"});
        if (del.status != kvstore::Status::kOk) {
          if (!at.last || router_ == nullptr) {
            result =
                PhaseResult::transient("ingest: data master unreachable");
            return;
          }
          // Last attempt with a replicated plane: skip the master and
          // let the replica copies carry the job.
          push_to_master = false;
          master_ok = false;
        }
      }
      if (push_to_master) {
        for (const data::Record& r : dataset.records) {
          local.enqueue({.type = kvstore::CommandType::kRPush,
                         .key = "data",
                         .value = r.payload});
        }
        std::uint64_t push_failures = 0;
        for (const kvstore::Reply& r : local.drain()) {
          if (r.status != kvstore::Status::kOk) ++push_failures;
        }
        master_ok = push_failures == 0;
        if (!master_ok) {
          // Non-kOk pushes are ambiguous (a timed-out RPush may have
          // landed). The list is canonical only if it is provably
          // complete AND in order; pipelined pushes apply in enqueue
          // order and are never retried on timeout, so LLen == n means
          // every push landed exactly once. Probed only on failure, so
          // the fault-free wire cost is unchanged.
          const kvstore::Reply len = local.execute(
              {.type = kvstore::CommandType::kLLen, .key = "data"});
          master_ok = len.status == kvstore::Status::kOk &&
                      len.integer == static_cast<std::int64_t>(n);
          if (master_ok) summary.tolerated_kv_failures += push_failures;
        }
      }
      if (router_ == nullptr) {
        // Single-master plane: the list either landed or the phase
        // burns an attempt (the DAG exhausts to kDataUnavailable —
        // there is nothing to fall back to).
        if (!master_ok) {
          result = PhaseResult::transient(
              "ingest: canonical data list incomplete on master");
        }
        return;
      }
      // Replicated copies: one keyed record per replica, fanned out
      // through the shard router (pipelined per target). kSet is
      // idempotent, so attempt re-runs are safe.
      ha::Client replicated(
          *router_, [&ctx](net::HostId target) -> kvstore::Client& {
            return ctx.client(target);
          });
      std::vector<std::pair<std::string, std::string>> pairs;
      pairs.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        pairs.emplace_back(record_key(i), dataset.records[i].payload);
      }
      std::size_t zero_ack = 0;
      std::size_t under_replicated = 0;
      for (const ha::WriteResult& res : replicated.put_many(pairs)) {
        summary.replica_writes += res.acked;
        if (res.status != kvstore::Status::kOk) {
          ++zero_ack;
        } else if (res.acked < res.routed) {
          ++under_replicated;
        }
      }
      if (master_ok) {
        if (zero_ack > 0 || under_replicated > 0) {
          // The master holds the canonical copy of every record;
          // missing replica copies are write divergence for the
          // anti-entropy repair pass, not a job failure.
          summary.tolerated_kv_failures += zero_ack + under_replicated;
          result = PhaseResult::degraded(
              "ingest: " + std::to_string(zero_ack + under_replicated) +
              " records under-replicated");
        }
        return;
      }
      if (!at.last) {
        result = PhaseResult::transient(
            "ingest: canonical data list incomplete on master");
        return;
      }
      // Out of attempts with no canonical list: serve the job from the
      // replica copies. Records that also failed every replica write
      // surface in the partition phase, which drops exactly those.
      data_on_replicas = true;
      result = PhaseResult::degraded(
          "ingest: master list unavailable, serving from replicas");
    });
    return result;
  });

  add_phase("stratify", PhaseKind::kStratify, {}, retries,
            JobStatus::kDataUnavailable, [&](const PhaseAttempt&) {
    const sketch::MinHasher hasher(spec_.sketch);
    std::vector<sketch::Sketch> sketches(n);
    std::vector<std::uint64_t> upload_failures(p, 0);
    std::vector<cluster::NodeTask> tasks;
    tasks.reserve(p);
    for (std::size_t node = 0; node < p; ++node) {
      tasks.push_back([&, node](cluster::NodeContext& ctx) {
        kvstore::Client& to_master = ctx.client(master_);
        const std::string key = "sketches:" + std::to_string(node);
        for (std::size_t i = node; i < n; i += p) {
          sketches[i] = hasher.sketch(dataset.records[i].items);
          ctx.meter().add(
              static_cast<double>(dataset.records[i].items.size()) *
              hasher.num_hashes());
          to_master.enqueue({.type = kvstore::CommandType::kRPush,
                             .key = key,
                             .value = encode_sketch(sketches[i])});
        }
        // The sketch upload is the phase's wire-cost medium; the
        // clustering below reads the in-memory sketches, so a lost
        // upload degrades observability, not the stratification.
        for (const kvstore::Reply& r : to_master.drain()) {
          if (r.status != kvstore::Status::kOk) ++upload_failures[node];
        }
      });
    }
    cluster_.run_phase("sketch", tasks);
    for (std::size_t node = 0; node < p; ++node) {
      summary.tolerated_kv_failures += upload_failures[node];
    }
    cluster_.run_on(
        "cluster-sketches", master_, [&](cluster::NodeContext& ctx) {
          for (std::size_t node = 0; node < p; ++node) {
            const kvstore::Reply r = ctx.local().execute(
                {.type = kvstore::CommandType::kLRange,
                 .key = "sketches:" + std::to_string(node),
                 .arg0 = 0,
                 .arg1 = -1});
            if (r.status != kvstore::Status::kOk) {
              ++summary.tolerated_kv_failures;
            }
          }
          strata_ = stratify::composite_kmodes(sketches, spec_.kmodes);
          ctx.meter().add(static_cast<double>(strata_.work_ops));
        });
    return PhaseResult::ok();
  });

  add_phase("estimate", PhaseKind::kEstimate, {"stratify"}, retries,
            JobStatus::kDataUnavailable, [&](const PhaseAttempt& at) {
    const estimator::SampleRunner runner =
        [&workload, &dataset](cluster::NodeContext& ctx,
                              std::span<const std::uint32_t> indices) {
          workload.run(ctx, dataset, indices);
        };
    try {
      time_models = estimator::estimate_time_models(
          cluster_, strata_, runner, spec_.sampling);
    } catch (const common::Error& e) {
      if (!at.last) return PhaseResult::transient(e.what());
      // Out of attempts: fall back to catalog-derived models. The
      // relative heterogeneity (1/speed) survives; only the
      // data-dependence of the slope is lost, which costs allocation
      // quality, never correctness.
      time_models.clear();
      time_models.reserve(p);
      for (std::size_t i = 0; i < p; ++i) {
        estimator::NodeTimeModel m;
        m.node_id = static_cast<std::uint32_t>(i);
        m.fit.slope =
            1.0 / cluster_.node(static_cast<std::uint32_t>(i)).speed;
        m.fit.intercept = 0.0;
        time_models.push_back(std::move(m));
      }
      return PhaseResult::degraded(
          std::string("estimate: catalog fallback models: ") + e.what());
    }
    return PhaseResult::ok();
  });

  add_phase("forecast", PhaseKind::kForecast, {}, 1,
            JobStatus::kDataUnavailable, [&](const PhaseAttempt&) {
    for (std::size_t i = 0; i < p; ++i) {
      dirty_rates[i] = energy_.dirty_rate(
          cluster_.node(static_cast<std::uint32_t>(i)),
          spec_.job_start_s, spec_.energy_window_s);
    }
    return PhaseResult::ok();
  });

  add_phase("optimize", PhaseKind::kOptimize, {"estimate", "forecast"}, 1,
            JobStatus::kDataUnavailable, [&](const PhaseAttempt&) {
    models_.clear();
    models_.reserve(p);
    for (const auto& tm : time_models) {
      models_.push_back({.slope = tm.fit.slope,
                         .intercept = tm.fit.intercept,
                         .dirty_rate = dirty_rates[tm.node_id]});
    }
    summary.initial_sizes = plan_sizes(n);
    return PhaseResult::ok();
  });

  // Read the canonical payloads of records `idx` over `ctx`'s
  // connections: the master's "data" list first when `master_first`,
  // then, on a replicated plane, the replica walk for whatever is still
  // missing (batched to the acting primaries, falling back
  // replica-by-replica). Shared by the partition load and re-plan
  // transfers so both pay the same wire ops in the same order.
  const auto fetch_records = [&](cluster::NodeContext& ctx,
                                 std::span<const std::uint32_t> idx,
                                 bool master_first) {
    FetchedRecords f;
    f.blobs.resize(idx.size());
    f.have.assign(idx.size(), 0);
    if (master_first) {
      kvstore::Client& from_master = ctx.client(master_);
      for (const std::uint32_t i : idx) {
        from_master.enqueue({.type = kvstore::CommandType::kLIndex,
                             .key = "data",
                             .arg0 = static_cast<std::int64_t>(i)});
      }
      std::vector<kvstore::Reply> replies = from_master.drain();
      const std::size_t m = std::min(replies.size(), idx.size());
      for (std::size_t k = 0; k < m; ++k) {
        if (replies[k].status == kvstore::Status::kOk && replies[k].ok) {
          f.blobs[k] = std::move(replies[k].blob);
          f.have[k] = 1;
        }
      }
    }
    if (router_ == nullptr) return f;
    std::vector<std::string> keys;
    std::vector<std::size_t> pos;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (f.have[k] == 0) {
        keys.push_back(record_key(idx[k]));
        pos.push_back(k);
      }
    }
    if (keys.empty()) return f;
    ha::Client replicated(*router_,
                          [&ctx](net::HostId target) -> kvstore::Client& {
                            return ctx.client(target);
                          });
    std::vector<ha::ReadResult> results = replicated.get_many(keys);
    const std::size_t m = std::min(results.size(), pos.size());
    for (std::size_t k = 0; k < m; ++k) {
      kvstore::Reply& r = results[k].reply;
      if (r.status == kvstore::Status::kOk && r.ok) {
        f.blobs[pos[k]] = std::move(r.blob);
        f.have[pos[k]] = 1;
        ++f.from_replicas;
      }
    }
    return f;
  };

  add_phase("partition", PhaseKind::kPartition,
            {"ingest", "stratify", "optimize"}, retries,
            JobStatus::kDataUnavailable, [&](const PhaseAttempt& at) {
    // Recomputed every attempt (pure function of strata + sizes), so a
    // retry after a mid-phase store crash restarts from a clean plan.
    assignment =
        spec_.strategy == core::Strategy::kRandom
            ? partition::random_partitions(n, summary.initial_sizes)
            : partition::make_partitions(strata_,
                                         summary.initial_sizes,
                                         workload.preferred_layout());
    std::vector<std::vector<std::uint32_t>> unreadable(p);
    std::vector<std::size_t> replica_pulled(p, 0);
    std::vector<std::uint64_t> staging_failures(p, 0);
    std::vector<cluster::NodeTask> tasks;
    tasks.reserve(p);
    for (std::size_t node = 0; node < p; ++node) {
      tasks.push_back([&, node](cluster::NodeContext& ctx) {
        const std::vector<std::uint32_t>& part = assignment->partitions[node];
        // The replica walk serves what the master could not (or all of
        // it when the canonical list never landed).
        FetchedRecords f = fetch_records(ctx, part, !data_on_replicas);
        replica_pulled[node] = f.from_replicas;
        for (std::size_t i = 0; i < part.size(); ++i) {
          if (f.have[i] == 0) unreadable[node].push_back(part[i]);
        }
        // Local staging: the partition list is the execution phase's
        // wire-cost medium (records are processed from the in-memory
        // dataset), so staging losses are tolerated and counted.
        kvstore::Client& local = ctx.local();
        const kvstore::Reply del = local.execute(
            {.type = kvstore::CommandType::kDel,
             .key = spec_.partition_key});
        if (del.status != kvstore::Status::kOk) ++staging_failures[node];
        for (std::size_t i = 0; i < part.size(); ++i) {
          if (f.have[i] == 0) continue;
          local.enqueue({.type = kvstore::CommandType::kRPush,
                         .key = spec_.partition_key,
                         .value = std::move(f.blobs[i])});
        }
        for (const kvstore::Reply& r : local.drain()) {
          if (r.status != kvstore::Status::kOk) ++staging_failures[node];
        }
      });
    }
    cluster_.run_phase("load", tasks);
    std::size_t missing_total = 0;
    std::size_t pulled_total = 0;
    for (std::size_t node = 0; node < p; ++node) {
      summary.tolerated_kv_failures += staging_failures[node];
      missing_total += unreadable[node].size();
      pulled_total += replica_pulled[node];
    }
    if (missing_total == 0) {
      if (pulled_total > 0 || data_on_replicas) {
        summary.replica_rescued_records += pulled_total;
        return PhaseResult::degraded(
            "partition: " + std::to_string(pulled_total) +
            " records re-pulled from replicas");
      }
      return PhaseResult::ok();
    }
    if (!at.last) {
      // Per-attempt tallies are discarded on retry, so nothing is
      // double-counted when the re-run succeeds.
      return PhaseResult::transient(
          "partition: " + std::to_string(missing_total) +
          " records unreadable");
    }
    // Final attempt: drop what no live copy can serve and execute the
    // rest — the honest alternative to failing the whole job.
    summary.replica_rescued_records += pulled_total;
    for (std::size_t node = 0; node < p; ++node) {
      if (unreadable[node].empty()) continue;
      auto& part = assignment->partitions[node];
      const auto& gone = unreadable[node];
      part.erase(std::remove_if(part.begin(), part.end(),
                                [&](std::uint32_t idx) {
                                  return std::find(gone.begin(), gone.end(),
                                                   idx) != gone.end();
                                }),
                 part.end());
    }
    summary.records_dropped += missing_total;
    return PhaseResult::data_unavailable(
        "partition: dropped " + std::to_string(missing_total) +
        " unreadable records");
  });

  add_phase("execute", PhaseKind::kExecute, {"partition"}, 1,
            JobStatus::kDataUnavailable, [&](const PhaseAttempt&) {
    summary.setup_time_s = job_clock();
    const double exec_base = job_clock();
    workload.reset(p, barrier_master_);

    std::size_t largest = 0;
    for (const auto& part : assignment->partitions) {
      largest = std::max(largest, part.size());
    }
    ExecutorOptions opts;
    opts.chunk_records =
        spec_.checkpoint_records > 0
            ? spec_.checkpoint_records
            : std::max<std::size_t>(1, (largest + 7) / 8);
    opts.per_node_slowdown = spec_.per_node_slowdown;
    opts.seed = spec_.seed;
    opts.fault = cluster_.fault_injector();
    opts.heartbeat_timeout_s = spec_.heartbeat_timeout_s;

    // Per-node read cursor into the local partition list, so each
    // chunk's payload fetch is network-costed like the monolithic
    // execution's single lrange. The read is raw: a transport failure
    // is a tolerated cost signal, not a reason to kill the chunk (the
    // records themselves come from the in-memory dataset).
    std::vector<std::size_t> cursor(p, 0);
    PhaseExecutor executor(
        cluster_, assignment->partitions,
        [&](cluster::NodeContext& ctx,
            std::span<const std::uint32_t> indices) {
          const std::uint32_t id = ctx.node().id;
          if (!indices.empty()) {
            const kvstore::Reply r = ctx.local().execute(
                {.type = kvstore::CommandType::kLRange,
                 .key = spec_.partition_key,
                 .arg0 = static_cast<std::int64_t>(cursor[id]),
                 .arg1 = static_cast<std::int64_t>(cursor[id] +
                                                   indices.size() - 1)});
            if (r.status != kvstore::Status::kOk) {
              ++summary.tolerated_kv_failures;
            }
            cursor[id] += indices.size();
          }
          workload.run(ctx, dataset, indices);
        },
        opts);

    // Chunk spans need each node's previous clock value.
    std::vector<double> last_time(p, 0.0);
    std::vector<std::size_t> last_done(p, 0);
    std::vector<char> lost(p, 0);  // nodes declared dead so far

    // Move records to node `to`: the receiver pulls the canonical
    // payloads (replica walk when replicated, data master otherwise)
    // and appends them to its local partition list — the same path as
    // the initial load, costed through the client over the Fabric —
    // then the delivered records join its queue. Records no live copy
    // can serve go back to the donor: conservation first (taken ==
    // given), honesty second — on a dead donor they surface as
    // `unprocessed`, which is exactly what kDataUnavailable means.
    struct TransferOutcome {
      double bytes = 0.0;
      std::size_t delivered = 0;
    };
    const auto transfer = [&](std::vector<std::uint32_t> taken,
                              std::uint32_t from, std::uint32_t to,
                              const char* span_name) -> TransferOutcome {
      std::sort(taken.begin(), taken.end());
      cluster::NodeContext& ctx_to = executor.context(to);
      kvstore::Client& local = ctx_to.local();
      TransferOutcome out;
      std::vector<std::uint32_t> delivered;
      std::vector<std::uint32_t> undeliverable;
      delivered.reserve(taken.size());
      // Replicated plane: whichever replica of each key is alive;
      // otherwise the data master.
      FetchedRecords f = fetch_records(ctx_to, taken, router_ == nullptr);
      for (std::size_t k = 0; k < taken.size(); ++k) {
        if (f.have[k] == 0) {
          undeliverable.push_back(taken[k]);
          continue;
        }
        out.bytes += static_cast<double>(f.blobs[k].size());
        local.enqueue({.type = kvstore::CommandType::kRPush,
                       .key = spec_.partition_key,
                       .value = std::move(f.blobs[k])});
        delivered.push_back(taken[k]);
      }
      for (const kvstore::Reply& r : local.drain()) {
        if (r.status != kvstore::Status::kOk) {
          ++summary.tolerated_kv_failures;
        }
      }
      const double start = executor.node_time(to);
      const double charged = executor.sync_network(to);
      executor.give(to, delivered);
      out.delivered = delivered.size();
      if (!undeliverable.empty()) {
        executor.give(from, undeliverable);
        trace_.add_instant(
            "transfer-unreadable", "fault", to, exec_base + start,
            {{"records", static_cast<double>(undeliverable.size())},
             {"from", static_cast<double>(from)}});
      }
      trace_.add_span(span_name, "replan", to, exec_base + start,
                      charged,
                      {{"records", static_cast<double>(delivered.size())},
                       {"from", static_cast<double>(from)},
                       {"bytes", out.bytes}});
      return out;
    };

    // Live nodes in id order with their planning models and observed
    // progress: the input of both node-loss and straggler re-plans.
    struct Survivors {
      std::vector<std::uint32_t> ids;
      std::vector<optimize::NodeModel> models;
      std::vector<NodeObservation> obs;
    };
    const auto survivors = [&] {
      Survivors sv;
      for (std::uint32_t id = 0; id < p; ++id) {
        if (lost[id] != 0) continue;
        sv.ids.push_back(id);
        sv.models.push_back(models_[id]);
        sv.obs.push_back(NodeObservation{executor.progress(id).records_done,
                                         executor.progress(id).busy_s(),
                                         executor.remaining(id)});
      }
      return sv;
    };

    executor.set_checkpoint([&](std::uint32_t node) {
      const double now = executor.node_time(node);
      const NodeProgress& prog = executor.progress(node);
      trace_.add_span(
          "chunk", "exec", node, exec_base + last_time[node],
          now - last_time[node],
          {{"records",
            static_cast<double>(prog.records_done - last_done[node])},
           {"done", static_cast<double>(prog.records_done)}});
      last_time[node] = now;
      last_done[node] = prog.records_done;
      trace_.add_counter("records_remaining",
                         TraceRecorder::kRuntimeLane, exec_base + now,
                         static_cast<double>(executor.total_remaining()));

      const double replan_alpha =
          spec_.strategy == core::Strategy::kHetEnergyAware
              ? spec_.alpha
              : 1.0;

      // ---- node-loss detection (degraded mode) --------------
      // Runs before any straggler gate: reclaiming a dead
      // node's partition is correctness, not optimization.
      const fault::FaultInjector* inj = cluster_.fault_injector();
      if (inj != nullptr && inj->enabled() && p >= 2) {
        for (std::uint32_t d = 0; d < p; ++d) {
          if (lost[d] != 0 || d == node) continue;
          if (executor.remaining(d) == 0) continue;
          if (now - executor.heartbeat(d) <=
              executor.heartbeat_timeout(node)) {
            continue;
          }
          // `d` holds queued records but has shown no sign of
          // life for longer than a live node possibly could:
          // declare it lost and redistribute its in-flight
          // partition over the survivors.
          lost[d] = 1;
          summary.degraded = true;
          summary.nodes_lost.push_back(d);
          trace_.add_instant(
              "node-lost", "fault", d, exec_base + now,
              {{"heartbeat", executor.heartbeat(d)},
               {"timeout", executor.heartbeat_timeout(node)}});
          if (router_ != nullptr) {
            // Re-home the dead node's shards; reads via the
            // router now skip it, and a seeded election picks
            // the successor fronting its arcs.
            const ha::ElectionRecord rec =
                router_->mark_down(d, now);
            trace_.add_instant(
                "election", "fault", d, exec_base + now,
                {{"promoted", static_cast<double>(rec.promoted)},
                 {"term", static_cast<double>(rec.term)}});
          } else if (d == master_) {
            // Single-master plane and the master is gone: the
            // canonical record copies are unreachable. The old
            // runtime threw here; instead finish the survivors'
            // work and report the typed outcome — the dead
            // node's queued records are unrecoverable.
            summary.status = JobStatus::kDataUnavailable;
            // Leave the queue untouched: the executor reports
            // the stranded records as `unprocessed`, which is
            // the honest accounting of what was lost.
            trace_.add_instant(
                "data-unavailable", "fault", d, exec_base + now,
                {{"records",
                  static_cast<double>(executor.remaining(d))}});
            continue;
          }
          std::vector<std::uint32_t> orphans = executor.take_all(d);
          // At least `node` is alive, so the snapshot is never empty.
          const Survivors sv = survivors();
          const std::vector<std::uint32_t>& surv = sv.ids;
          const std::vector<optimize::NodeModel> refit =
              refit_models(sv.models, sv.obs,
                           spec_.straggler.min_observed_records);
          // Granularity floor: never hand a survivor less than
          // one chunk of orphans. Sub-chunk slivers are poison
          // for support-threshold workloads (SON over a
          // handful of records admits nearly every candidate),
          // so cap the recipient count and keep the survivors
          // the LP rates highest (ties to the lower id).
          std::vector<std::size_t> recipients(surv.size());
          std::iota(recipients.begin(), recipients.end(),
                    std::size_t{0});
          const std::size_t max_recipients = std::min(
              surv.size(),
              std::max<std::size_t>(
                  1, orphans.size() / opts.chunk_records));
          std::vector<std::size_t> shares;
          if (max_recipients < surv.size()) {
            const std::vector<std::size_t> probe =
                optimize::solve_partition_sizes(
                    refit, orphans.size(), replan_alpha)
                    .sizes;
            std::stable_sort(recipients.begin(), recipients.end(),
                             [&](std::size_t a, std::size_t b) {
                               return probe[a] > probe[b];
                             });
            recipients.resize(max_recipients);
            std::sort(recipients.begin(), recipients.end());
            std::vector<optimize::NodeModel> kept(max_recipients);
            for (std::size_t k = 0; k < max_recipients; ++k) {
              kept[k] = refit[recipients[k]];
            }
            shares = optimize::solve_partition_sizes(
                         kept, orphans.size(), replan_alpha)
                         .sizes;
          } else {
            shares = optimize::solve_partition_sizes(
                         refit, orphans.size(), replan_alpha)
                         .sizes;
          }
          std::size_t off = 0;
          for (std::size_t k = 0; k < recipients.size(); ++k) {
            // Last recipient absorbs any rounding remainder so
            // every orphan lands somewhere.
            const std::size_t cnt =
                k + 1 == recipients.size()
                    ? orphans.size() - off
                    : std::min(shares[k], orphans.size() - off);
            if (cnt == 0) continue;
            std::vector<std::uint32_t> slice(
                orphans.begin() + static_cast<std::ptrdiff_t>(off),
                orphans.begin() +
                    static_cast<std::ptrdiff_t>(off + cnt));
            off += cnt;
            const TransferOutcome tr = transfer(
                std::move(slice), d, surv[recipients[k]], "rescue");
            summary.replanned_bytes += tr.bytes;
            summary.replanned_records += tr.delivered;
            if (router_ != nullptr) {
              summary.replica_rescued_records += tr.delivered;
            }
          }
          ++summary.node_loss_replans;
        }
      }

      if (!spec_.enable_replan || p < 2) return;
      if (summary.replans >= spec_.straggler.max_replans) return;
      const std::size_t total_rem = executor.total_remaining();
      if (total_rem == 0) return;
      if (static_cast<double>(total_rem) <
          spec_.straggler.min_remaining_fraction *
              static_cast<double>(n)) {
        return;
      }
      // Straggler machinery runs over survivors only: a lost
      // node must never be detected as a straggler, donate, or
      // receive migrated work. With no losses `surv` is the
      // identity and the computation is unchanged.
      const Survivors sv = survivors();
      const std::vector<std::uint32_t>& surv = sv.ids;
      if (surv.size() < 2) return;
      const std::vector<std::uint32_t> stragglers =
          detect_stragglers(sv.models, sv.obs, spec_.straggler);
      if (stragglers.empty()) return;

      ++summary.replans;
      summary.stragglers_detected += stragglers.size();
      const std::vector<double> observed = observed_slopes(
          sv.models, sv.obs, spec_.straggler.min_observed_records);
      for (const std::uint32_t s : stragglers) {
        trace_.add_instant("straggler", "replan", surv[s],
                           exec_base + executor.node_time(surv[s]),
                           {{"observed_slope", observed[s]},
                            {"model_slope", sv.models[s].slope}});
      }

      const std::vector<optimize::NodeModel> refit = refit_models(
          sv.models, sv.obs, spec_.straggler.min_observed_records);
      const std::vector<std::size_t> target =
          replan_remaining(refit, sv.obs, replan_alpha);
      std::vector<std::size_t> current(surv.size());
      for (std::size_t k = 0; k < surv.size(); ++k) {
        current[k] = executor.remaining(surv[k]);
      }
      const std::vector<MigrationStep> steps =
          plan_migrations(current, target);

      std::size_t moved_records = 0;
      // Steps smaller than half a chunk can't shorten the
      // straggler's tail by more than half a chunk's compute,
      // but they would land as degenerate sub-chunk work on
      // the receiver. Not worth the fabric round trip.
      const std::size_t min_step =
          std::max<std::size_t>(1, opts.chunk_records / 2);
      for (const MigrationStep& step : steps) {
        if (step.count < min_step) continue;
        const std::uint32_t from = surv[step.from];
        const std::uint32_t to = surv[step.to];
        std::vector<std::uint32_t> taken =
            executor.take_from_tail(from, step.count);
        if (taken.empty()) continue;
        const TransferOutcome tr =
            transfer(std::move(taken), from, to, "migrate");
        summary.migrated_bytes += tr.bytes;
        summary.migrated_records += tr.delivered;
        ++summary.migration_steps;
        moved_records += tr.delivered;
      }
      // Adopt the refit models (survivor entries only) so
      // detection re-baselines and a node is only re-flagged
      // if it deviates *again*.
      for (std::size_t k = 0; k < surv.size(); ++k) {
        models_[surv[k]] = refit[k];
      }
      trace_.add_instant(
          "replan", "replan", TraceRecorder::kRuntimeLane,
          exec_base + now,
          {{"stragglers", static_cast<double>(stragglers.size())},
           {"moved_records", static_cast<double>(moved_records)}});
    });

    const ExecutorReport report = executor.run();
    exec_extra += report.makespan_s;
    summary.makespan_s += report.makespan_s;
    summary.total_work_units += report.total_work_units();
    summary.processed.resize(p);
    std::size_t processed_total = 0;
    for (std::size_t i = 0; i < p; ++i) {
      busy[i] += report.per_node[i].busy_s();
      summary.processed[i] = report.per_node[i].records_done;
      processed_total += report.per_node[i].records_done;
    }
    // Extended no-work-lost audit: every ingested record is processed,
    // stranded on a declared-dead node, or explicitly dropped by the
    // partition phase — nothing disappears silently, even across
    // phase retries and partial re-execution.
    HETSIM_CHECK_EQ(
        processed_total + report.unprocessed + summary.records_dropped, n);
    if (report.unprocessed > 0) {
      // Records stranded on dead nodes with no surviving copy to
      // rescue them from. The old runtime threw here; the typed
      // outcome states exactly what was lost.
      return PhaseResult::data_unavailable(
          "execute: " + std::to_string(report.unprocessed) +
          " records stranded on lost nodes");
    }
    return PhaseResult::ok();
  });

  add_phase("global", PhaseKind::kGlobal, {"execute"}, 1,
            JobStatus::kDegraded, [&](const PhaseAttempt&) {
    const std::vector<cluster::NodeTask> tasks =
        workload.make_global_tasks(dataset, *assignment);
    if (tasks.empty()) return PhaseResult::ok();
    common::require<common::ConfigError>(
        tasks.size() == p, "JobRuntime: global phase arity mismatch");
    const cluster::PhaseReport report =
        cluster_.run_phase("global", tasks);
    summary.makespan_s += report.makespan_s();
    for (const auto& r : report.per_node) {
      busy[r.node_id] += r.total_time_s();
      summary.total_work_units += r.work_units;
    }
    return PhaseResult::ok();
  });

  const DagReport dag_report = dag.run(trace_, job_clock);
  // Release the job's scratch lists on the master: ingest and sketch
  // RPush append, so a later job on this cluster would otherwise read
  // (and pay for) this job's records and sketches too. Control-plane
  // cleanup, off the costed data path: the job's clock and trace are
  // already final.
  auto& scratch = cluster_.store(master_);  // hetsim-analyze: allow(direct-store)
  scratch.del("data");
  for (std::size_t node = 0; node < p; ++node) {
    scratch.del("sketches:" + std::to_string(node));
  }
  summary.phase_retries = dag_report.phase_retries;
  summary.failed_phase = dag_report.failed_phase;
  summary.failure_detail = dag_report.failure_detail;
  summary.status = worse_job_status(summary.status, dag_report.status);

  for (std::size_t node = 0; node < p; ++node) {
    if (busy[node] <= 0.0) continue;
    const cluster::NodeSpec& node_spec =
        cluster_.node(static_cast<std::uint32_t>(node));
    const double dirty = energy_.dirty_energy_joules(
        node_spec, spec_.job_start_s, busy[node]);
    summary.dirty_energy_j += dirty;
    summary.green_energy_j += node_spec.power_watts * busy[node] - dirty;
  }
  summary.quality = workload.quality();
  const net::RetryStats kv_after = cluster_.fabric().retry_stats();
  summary.kv_retries = kv_after.retries - kv_before.retries;
  summary.kv_timeouts = kv_after.timeouts - kv_before.timeouts;
  summary.kv_failures = kv_after.failures - kv_before.failures;
  summary.elections = router_ ? router_->elections().size() : 0;
  if (summary.status == JobStatus::kOk && summary.degraded) {
    summary.status = JobStatus::kDegraded;
  }
  if (summary.status != JobStatus::kDataUnavailable) {
    verify_no_work_lost(summary);
  }
  return summary;
}

}  // namespace hetsim::runtime
