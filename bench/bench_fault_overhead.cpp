// bench_fault_overhead — cost of compiling fault injection in but not
// using it, plus a degraded-mode demonstration.
//
// The fault layer's contract (src/fault/fault.h) is that a null
// injector or an all-defaults plan costs one branch per interception
// point and changes no arithmetic. This bench enforces both halves:
//
//   1. byte-identity — the same job run with no injector and with an
//      empty-plan injector attached must produce byte-identical
//      summary JSON and Chrome-trace JSON (virtual time unchanged);
//   2. CPU-time overhead — the empty-plan run must cost < 2% extra
//      process CPU time (median ratio over 21 interleaved pairs of
//      runs), i.e. the interception branches are effectively free.
//
// It then runs the same job with an active plan (store errors plus one
// node fail-stop) and reports the degraded-mode outcome: retries,
// makespan inflation, and records rescued — the robustness story in
// one table.
//
// A second section covers the serving path (DESIGN.md §13): the
// deadline-budget + circuit-breaker machinery must be free when
// nothing fails (virtual time identical, < 2% CPU-time overhead), and
// under a flapping replica the breaker's shedding must keep the
// per-op p99 within 3x the fault-free baseline with zero records
// lost. Counters and the survival table land in BENCH_chaos.json.
//
// Exit status is non-zero when byte-identity or any overhead/survival
// gate fails, so CI can run the bench as an acceptance check.
#include <algorithm>
#include <cstddef>
#include <ctime>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/table.h"
#include "fault/fault.h"
#include "ha/group.h"
#include "runtime/runtime.h"

namespace {

using namespace hetsim;

/// Fixed metered cost per record: keeps the execute phase dominated by
/// simulator bookkeeping (the thing fault interception could slow
/// down), not by workload-specific compute.
class LinearWorkload final : public core::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "linear-scan"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(2e4 * static_cast<double>(indices.size()));
  }
};

/// CPU seconds used so far by this process, all threads included. The
/// overhead gates time runs on this clock, not the wall clock: time the
/// host gives to other processes does not count, so a loaded host does
/// not move the paired ratios. Idle par::ThreadPool workers block on a
/// condition variable, so they burn no CPU time between fan-outs.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct RunResult {
  runtime::JobSummary summary;
  std::string fingerprint;  // summary JSON + trace JSON
  double cpu_s = 0.0;
};

RunResult run_once(const data::Dataset& dataset, std::uint32_t partitions,
                   const fault::FaultPlan* plan, std::uint64_t seed) {
  cluster::Cluster cluster(cluster::standard_cluster(partitions));
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  std::unique_ptr<fault::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<fault::FaultInjector>(*plan);
    cluster.set_fault(injector.get());
  }
  LinearWorkload workload;

  runtime::JobSpec spec;
  spec.name = "fault-overhead-bench";
  spec.strategy = core::Strategy::kHetAware;
  spec.sampling.min_records = 40;
  spec.seed = seed;

  runtime::JobRuntime rt(cluster, energy, spec);
  RunResult result;
  const double t0 = process_cpu_s();
  result.summary = rt.run(dataset, workload);
  result.cpu_s = process_cpu_s() - t0;
  result.fingerprint =
      runtime::summary_json(result.summary) + "\n" +
      rt.trace().chrome_trace_json();
  return result;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// CPU time of a baseline leg against a treated leg.
struct PairedCpu {
  double base_s = 0.0;     // median CPU time of the baseline leg
  double treated_s = 0.0;  // median CPU time of the treated leg
  double overhead_pct = 0.0;  // from the median of the paired ratios
};

/// Runs `pairs` interleaved pairs and reports the median of the
/// per-pair treated/base ratios. Each pair runs the legs in the order
/// base, treated, treated, base, so host drift between pairs and any
/// run-order effect cancel inside the pair instead of landing in the
/// ratio. `run(treated)` returns one leg's CPU seconds.
template <typename Run>
PairedCpu paired_cpu(int pairs, Run run) {
  std::vector<double> base;
  std::vector<double> treated;
  std::vector<double> ratio;
  for (int i = 0; i < pairs; ++i) {
    const double b1 = run(false);
    const double t = run(true) + run(true);
    const double b = b1 + run(false);
    base.push_back(b / 2.0);
    treated.push_back(t / 2.0);
    ratio.push_back(t / b);
  }
  return {median_of(base), median_of(treated),
          100.0 * (median_of(ratio) - 1.0)};
}

// ---- serving path: deadline budget + breaker ---------------------------

struct ServeResult {
  std::vector<double> latencies;  // virtual seconds per put
  std::size_t ok_puts = 0;
  std::size_t lost = 0;  // acked keys the read path cannot produce
  double virtual_s = 0.0;
  double cpu_s = 0.0;
  ha::RouterStats stats;
};

/// Drive `ops` replicated puts (then read every key back) through a
/// 4-node group. Per-op latency is the group's virtual-time delta, so
/// the p99 is deterministic and host-speed independent.
ServeResult serve_once(const fault::FaultPlan* plan, bool breaker_on,
                       std::size_t ops) {
  ha::NodeGroupConfig cfg;
  cfg.nodes = 4;
  cfg.breaker.enabled = breaker_on;
  ha::NodeGroup group(cfg);
  if (plan != nullptr) group.set_fault(*plan);
  ha::Client& client = group.client(0);

  ServeResult r;
  r.latencies.reserve(ops);
  const double t0 = process_cpu_s();
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string key = "bk" + std::to_string(i);
    const std::string value = "v" + std::to_string(i * 2654435761ULL);
    const double before = group.consumed_time();
    const ha::WriteResult wr = client.put(key, value);
    r.latencies.push_back(group.consumed_time() - before);
    if (wr.status == kvstore::Status::kOk) ++r.ok_puts;
  }
  // Zero-records-lost sweep: every acknowledged key must still be
  // readable with the acknowledged bytes through the replicated read
  // path (shedding sheds load, not data).
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string key = "bk" + std::to_string(i);
    const std::string value = "v" + std::to_string(i * 2654435761ULL);
    const ha::ReadResult rr = client.get(key);
    if (rr.reply.status != kvstore::Status::kOk || !rr.reply.ok ||
        rr.reply.blob != value) {
      ++r.lost;
    }
  }
  r.cpu_s = process_cpu_s() - t0;
  r.virtual_s = group.consumed_time();
  r.stats = group.router().stats();
  return r;
}

double p99_of(std::vector<double> lat) {
  std::sort(lat.begin(), lat.end());
  const std::size_t idx = (lat.size() * 99) / 100;
  return lat[std::min(idx, lat.size() - 1)];
}

}  // namespace

int main() {
  const std::uint32_t partitions = 8;
  const std::uint64_t seed = 171;
  // Interleaved pairs per CPU-time gate: a job run takes ~0.1 s and a serve
  // run ~2 ms, and single runs scatter by several percent on a shared
  // host, so the cheap serve leg takes many more pairs.
  const int job_pairs = 21;
  const int serve_pairs = 101;
  const data::Dataset dataset =
      data::generate_text_corpus(data::rcv1_like(0.5), "rcv1");

  std::cout << "fault-injection overhead — " << dataset.name << " ("
            << dataset.size() << " records), " << partitions
            << " nodes, median of " << job_pairs
            << " interleaved pairs\n\n";

  bool ok = true;
  std::vector<bench::BenchMetric> metrics;

  // ---- byte-identity: empty plan must change nothing -----------------
  const RunResult bare = run_once(dataset, partitions, nullptr, seed);
  const fault::FaultPlan empty_plan;
  const RunResult gated = run_once(dataset, partitions, &empty_plan, seed);
  const bool identical = bare.fingerprint == gated.fingerprint;
  std::cout << "empty-plan byte-identity (summary + trace): "
            << (identical ? "byte-identical" : "MISMATCH") << " ("
            << bare.fingerprint.size() << " bytes)\n";
  metrics.push_back({"empty_plan_identical", identical ? 1.0 : 0.0, "bool"});
  if (!identical) ok = false;

  // ---- CPU-time overhead gate ----------------------------------------
  // One warm-up pass of each configuration already happened above.
  const PairedCpu job_cpu = paired_cpu(job_pairs, [&](bool gated_leg) {
    return run_once(dataset, partitions, gated_leg ? &empty_plan : nullptr,
                    seed)
        .cpu_s;
  });
  const double cpu_bare = job_cpu.base_s;
  const double cpu_gated = job_cpu.treated_s;
  const double overhead_pct = job_cpu.overhead_pct;
  std::cout << "CPU time: no injector " << common::format_double(cpu_bare, 4)
            << " s, empty plan " << common::format_double(cpu_gated, 4)
            << " s, overhead " << common::format_double(overhead_pct, 2)
            << "% (gate: < 2%)\n";
  metrics.push_back({"cpu_bare", cpu_bare, "s"});
  metrics.push_back({"cpu_empty_plan", cpu_gated, "s"});
  metrics.push_back({"empty_plan_overhead", overhead_pct, "%"});
  if (overhead_pct >= 2.0) {
    std::cout << "FAIL: empty-plan overhead " << overhead_pct
              << "% breaches the 2% gate\n";
    ok = false;
  }

  // ---- degraded mode under an active plan ----------------------------
  fault::FaultPlan active;
  active.seed = 7;
  active.stores[1].error_prob = 0.05;
  active.nodes[partitions - 1].fail_stop_at_s = bare.summary.makespan_s * 0.3;
  const RunResult faulty = run_once(dataset, partitions, &active, seed);

  common::Table table({"configuration", "makespan (s)", "degraded",
                       "records rescued", "kv retries", "kv failures"});
  const auto row = [&](const char* name, const RunResult& r) {
    table.add_row({name, common::format_double(r.summary.makespan_s, 4),
                   r.summary.degraded ? "yes" : "no",
                   std::to_string(r.summary.replanned_records),
                   std::to_string(r.summary.kv_retries),
                   std::to_string(r.summary.kv_failures)});
  };
  row("no injector", bare);
  row("empty plan", gated);
  row("store errors + fail-stop", faulty);
  std::cout << '\n';
  table.print(std::cout, "job outcome by fault configuration");

  const std::size_t processed = std::accumulate(
      faulty.summary.processed.begin(), faulty.summary.processed.end(),
      std::size_t{0});
  if (processed != faulty.summary.records) {
    std::cout << "FAIL: degraded run lost records (" << processed << " of "
              << faulty.summary.records << ")\n";
    ok = false;
  }
  metrics.push_back({"degraded_makespan", faulty.summary.makespan_s, "s"});
  metrics.push_back({"makespan", bare.summary.makespan_s, "s"});
  metrics.push_back(
      {"rescued_records",
       static_cast<double>(faulty.summary.replanned_records), "count"});
  metrics.push_back({"kv_retries",
                     static_cast<double>(faulty.summary.kv_retries), "count"});

  bench::write_bench_json("fault", metrics);

  // ---- serving path: breaker must be free when nothing fails ---------
  std::vector<bench::BenchMetric> chaos_metrics;
  const std::size_t serve_ops = 800;
  std::cout << "\nserving path — 4-node group, replication 2, " << serve_ops
            << " puts + full read-back\n\n";

  const ServeResult plain = serve_once(nullptr, /*breaker_on=*/false,
                                       serve_ops);
  const ServeResult armed = serve_once(nullptr, /*breaker_on=*/true,
                                       serve_ops);
  const bool virt_identical = plain.virtual_s == armed.virtual_s;
  std::cout << "fault-free virtual time, breaker off vs on: "
            << (virt_identical ? "identical" : "MISMATCH") << " ("
            << common::format_double(armed.virtual_s, 6) << " s)\n";
  chaos_metrics.push_back(
      {"breaker_virtual_identical", virt_identical ? 1.0 : 0.0, "bool"});
  if (!virt_identical) ok = false;

  const PairedCpu serve_cpu =
      paired_cpu(serve_pairs, [&](bool breaker_on) {
        return serve_once(nullptr, breaker_on, serve_ops).cpu_s;
      });
  const double serve_off = serve_cpu.base_s;
  const double serve_on = serve_cpu.treated_s;
  const double serve_overhead_pct = serve_cpu.overhead_pct;
  std::cout << "fault-free CPU time: breaker off "
            << common::format_double(serve_off, 4) << " s, on "
            << common::format_double(serve_on, 4) << " s, overhead "
            << common::format_double(serve_overhead_pct, 2)
            << "% (gate: < 2%)\n";
  chaos_metrics.push_back(
      {"breaker_overhead_pct", serve_overhead_pct, "%"});
  if (serve_overhead_pct >= 2.0) {
    std::cout << "FAIL: deadline+breaker overhead " << serve_overhead_pct
              << "% breaches the 2% gate\n";
    ok = false;
  }

  // ---- chaos survival: flapping replica, breaker shedding ------------
  fault::FaultPlan flapping;
  flapping.seed = 29;
  flapping.stores[1].error_prob = 1.0;
  const ServeResult shed = serve_once(&flapping, /*breaker_on=*/true,
                                      serve_ops);

  const double p99_clean = p99_of(armed.latencies);
  const double p99_shed = p99_of(shed.latencies);
  const double p99_ratio = p99_shed / p99_clean;

  common::Table survival({"configuration", "ok puts", "p99 (virtual s)",
                          "lost", "shed", "opens", "probes"});
  const auto srow = [&](const char* name, const ServeResult& r) {
    survival.add_row({name, std::to_string(r.ok_puts),
                      common::format_double(p99_of(r.latencies), 6),
                      std::to_string(r.lost), std::to_string(r.stats.shed),
                      std::to_string(r.stats.breaker_opens),
                      std::to_string(r.stats.breaker_probes)});
  };
  srow("fault-free", armed);
  srow("flapping replica (store 1 errors)", shed);
  std::cout << '\n';
  survival.print(std::cout, "chaos survival on the serving path");
  std::cout << "p99 inflation under flapping replica: "
            << common::format_double(p99_ratio, 2) << "x (gate: < 3x)\n";

  if (shed.lost != 0) {
    std::cout << "FAIL: flapping-replica run lost " << shed.lost
              << " record(s)\n";
    ok = false;
  }
  if (p99_ratio >= 3.0) {
    std::cout << "FAIL: p99 inflation " << p99_ratio
              << "x breaches the 3x gate\n";
    ok = false;
  }

  chaos_metrics.push_back({"p99_fault_free", p99_clean, "s"});
  chaos_metrics.push_back({"p99_flapping", p99_shed, "s"});
  chaos_metrics.push_back({"p99_inflation", p99_ratio, "x"});
  chaos_metrics.push_back(
      {"records_lost", static_cast<double>(shed.lost), "count"});
  chaos_metrics.push_back(
      {"ok_puts_flapping", static_cast<double>(shed.ok_puts), "count"});
  chaos_metrics.push_back(
      {"shed", static_cast<double>(shed.stats.shed), "count"});
  chaos_metrics.push_back(
      {"breaker_opens", static_cast<double>(shed.stats.breaker_opens),
       "count"});
  chaos_metrics.push_back(
      {"breaker_probes", static_cast<double>(shed.stats.breaker_probes),
       "count"});
  bench::write_bench_json("chaos", chaos_metrics);
  return ok ? 0 : 1;
}
