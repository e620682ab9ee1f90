// hetbench — runs one of the benchmark's fixed jobs through
// runtime::JobRuntime::run for a fixed number of host seconds, checks
// every job's outputs against independent computations, and prints one
// JSON result line.
//
//   hetbench --workload tree-son --seed 0 --seconds 20 --trace 0
//   hetbench --manifest            (the BENCHMARK.json contents)
//
// --trace 0 prints the end-to-end metrics (no instrumentation). --trace 1
// alternates plain and instrumented jobs and prints the per-layer
// metrics, including the instrumentation's own cost on job_wall_s.
// Usually driven by run.py, which builds this binary first.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "compress/webgraph.h"
#include "core/compression_workload.h"
#include "layers.h"
#include "manifest.h"
#include "oracles.h"
#include "par/pool.h"
#include "simd/simd.h"
#include "workloads.h"

namespace {

using namespace hetsim;
using namespace hetbench;

/// Set-up repetitions per run; setup_s reports their median.
constexpr int kSetupReps = 3;

struct Args {
  Kind kind = Kind::kTreeSon;
  std::uint64_t seed = 0;
  double seconds = kRunSeconds;
  bool trace = false;
  bool manifest = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "hetbench: " << error << "\n"
            << "usage: hetbench --workload tree-son|graph-energy|"
               "text-ha-replan [--seed N] [--seconds S] [--trace 0|1]\n"
               "       hetbench --manifest\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--manifest") {
      args.manifest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.kind = parse_kind(value);
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error& e) {
      usage("bad value for " + flag + ": " + e.what());
    }
  }
  if (!args.manifest && !have_workload) usage("--workload is required");
  return args;
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_manifest() {
  std::cout << "{\"run_seconds\": " << kRunSeconds << ", \"workloads\": [";
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    std::cout << (i ? ", " : "") << "{\"name\": "
              << json_string(kWorkloads[i].name)
              << ", \"why\": " << json_string(kWorkloads[i].why) << "}";
  }
  const auto metrics = [](const auto& table, bool bounded) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      std::cout << (i ? ", " : "") << "{\"name\": "
                << json_string(table[i].name)
                << ", \"unit\": " << json_string(table[i].unit)
                << ", \"better\": " << json_string(table[i].better);
      if (bounded) std::cout << ", \"bound\": " << json_number(table[i].bound);
      std::cout << "}";
    }
  };
  std::cout << "], \"end_to_end\": [";
  metrics(kEndToEnd, true);
  std::cout << "], \"per_layer\": [";
  metrics(kPerLayer, false);
  std::cout << "]}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The oracles' side of every check that does not depend on the job:
/// computed once per input, apart from the pipeline.
struct Reference {
  std::size_t frequent = 0;       // tree-son, text-ha-replan
  std::uint64_t raw_bytes = 0;    // graph-energy
  Verdict codec;                  // graph-energy: whole-corpus round trip
};

Reference make_reference(Kind kind, const Inputs& in, bool with_codec) {
  Reference ref;
  switch (kind) {
    case Kind::kTreeSon:
      ref.frequent =
          reference_subtree_count(in.trees, kMiningSupport, kMaxPatternSize);
      break;
    case Kind::kTextHaReplan:
      ref.frequent = reference_itemset_count(in.dataset, kMiningSupport,
                                             kMaxPatternSize);
      break;
    case Kind::kGraphEnergy: {
      ref.raw_bytes = reference_raw_bytes(in.dataset);
      if (with_codec) {
        const auto lists = adjacency_lists(in.dataset);
        ref.codec = check_lossless(lists, compress::compress_adjacency(lists));
      }
      break;
    }
  }
  return ref;
}

/// Every check of one finished job; empty = all passed.
std::vector<Verdict> check_job(Kind kind, const Inputs& in,
                               const Reference& ref,
                               const runtime::JobSummary& s,
                               const runtime::JobRuntime& rt,
                               const core::Workload& workload) {
  std::vector<Verdict> verdicts = {
      check_status(s),
      check_conservation(s, in.dataset.size(), kNodes),
      check_energy(s),
  };
  switch (kind) {
    case Kind::kTreeSon: {
      verdicts.push_back(
          check_equal("globally_frequent",
                      mining_counters(workload).globally_frequent, ref.frequent));
      // node_models() are the planning models unless a re-plan refit
      // them; then the initial plan came from models no longer visible,
      // and the planner is checked on the refit ones instead.
      const std::size_t n = in.dataset.size();
      verdicts.push_back(check_waterfill(
          rt.node_models(),
          s.replans == 0
              ? s.initial_sizes
              : optimize::solve_partition_sizes(rt.node_models(), n, 1.0).sizes,
          n));
      break;
    }
    case Kind::kTextHaReplan:
      verdicts.push_back(
          check_equal("globally_frequent",
                      mining_counters(workload).globally_frequent, ref.frequent));
      break;
    case Kind::kGraphEnergy: {
      const auto& w = dynamic_cast<const core::CompressionWorkload&>(workload);
      verdicts.push_back(
          check_equal("total_raw_bytes", w.total_raw_bytes(), ref.raw_bytes));
      verdicts.push_back(ref.codec);
      break;
    }
  }
  std::erase_if(verdicts, [](const Verdict& v) { return v.empty(); });
  return verdicts;
}

struct JobResult {
  double wall_s = 0.0;
  runtime::JobSummary summary;
  Values layers;  // instrumented jobs only
  bool ok = false;
};

JobResult run_job(Kind kind, const Inputs& in, const Reference& ref,
                  const energy::GreenEnergyEstimator& energy,
                  const runtime::JobSpec& spec, bool instrumented) {
  // A fresh cluster per job: stores, virtual clock, phase history and
  // fabric counters all start empty, so every job of a run is the same
  // operation and the counters read are this job's own.
  cluster::Cluster cluster(cluster::standard_cluster(kNodes));
  const std::unique_ptr<core::Workload> inner = make_workload(kind);
  std::optional<TimedWorkload> timed;
  core::Workload* workload = inner.get();
  if (instrumented) workload = &timed.emplace(*inner);

  runtime::JobRuntime rt(cluster, energy, spec);
  JobResult job;
  std::vector<Verdict> verdicts;
  try {
    const Clock::time_point start = Clock::now();
    job.summary = rt.run(in.dataset, *workload);
    job.wall_s = seconds_since(start);
    verdicts = check_job(kind, in, ref, job.summary, rt, *inner);
  } catch (const std::exception& e) {
    verdicts.push_back(std::string("exception escaped the job: ") + e.what());
  }
  for (const Verdict& v : verdicts) {
    std::cerr << "hetbench: " << kind_name(kind) << " job failed: " << v
              << '\n';
  }
  job.ok = verdicts.empty();
  if (instrumented && job.ok) {
    job.layers = {{"core.workload_run_s", timed->run_s()},
                  {"core.workload_run_calls",
                   static_cast<double>(timed->run_calls())},
                  {"core.workload_global_s", timed->global_s()},
                  {"runtime.pipeline_s",
                   job.wall_s - timed->run_s() - timed->global_s()}};
    for (auto& kv : probe_layers(in.dataset, spec, rt, job.summary, *inner)) {
      job.layers.push_back(std::move(kv));
    }
    for (auto& kv : virtual_layers(rt, job.summary, cluster)) {
      job.layers.push_back(std::move(kv));
    }
  }
  return job;
}

bool same_outcome(const runtime::JobSummary& a, const runtime::JobSummary& b) {
  return a.setup_time_s == b.setup_time_s && a.makespan_s == b.makespan_s &&
         a.dirty_energy_j == b.dirty_energy_j;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::map<std::string, double>& values, bool trace) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  const auto emit = [&](const auto& table) {
    bool first = true;
    for (const MetricDef& m : table) {
      const auto it = values.find(std::string(m.name));
      const double v = it == values.end() ? 0.0 : it->second;
      std::cout << (first ? "" : ", ") << json_string(m.name)
                << ": {\"value\": " << json_number(v)
                << ", \"unit\": " << json_string(m.unit) << "}";
      first = false;
    }
  };
  if (trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  std::cout << "}}\n";
}

/// One input of the run, with everything its jobs are checked against.
struct Variant {
  Inputs inputs;
  runtime::JobSpec spec;
  Reference ref;
  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  /// Virtual outcome of the variant's first passing job; every later
  /// job on the same input must reproduce it exactly.
  std::optional<runtime::JobSummary> first;
};

int run(const Args& args) {
  const char* sha = std::getenv("HETBENCH_GIT_SHA");
  std::cout << "# hetbench workload=" << kind_name(args.kind)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0)
            << " git_sha=" << (sha != nullptr ? sha : "unknown")
            << " HETSIM_THREADS=" << par::default_threads()
            << " simd=" << simd::isa_name(simd::active_isa())
            << " build=" << HETBENCH_BUILD_TYPE << '\n';

  // The traced run instruments one input; the end-to-end run averages
  // over kVariants of them (see workloads.h).
  const std::uint64_t num_variants = args.trace ? 1 : kVariants;
  std::vector<Variant> variants(num_variants);

  // Set-up: every input, the cluster and the energy estimator, several
  // times over.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::optional<energy::GreenEnergyEstimator> energy;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t v = 0; v < num_variants; ++v) {
      variants[v].inputs = make_inputs(args.kind, args.seed, v);
    }
    generate_s.push_back(seconds_since(start));
    // Timed as set-up cost; each job then runs on a fresh cluster.
    const cluster::Cluster cluster(cluster::standard_cluster(kNodes));
    energy.emplace(energy::GreenEnergyEstimator::standard(72));
    setup_s.push_back(seconds_since(start));
  }
  for (std::uint64_t v = 0; v < num_variants; ++v) {
    variants[v].spec = make_spec(args.kind, args.seed, v);
    // The whole-corpus codec round trip is the slowest oracle; one
    // corpus per run is enough to catch a lossy codec.
    variants[v].ref = make_reference(args.kind, variants[v].inputs, v == 0);
  }

  // Whole rounds until the time is up. A round is one job per variant,
  // or one plain and one instrumented job when tracing.
  std::map<std::string, std::vector<double>> layer_samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Clock::time_point loop_start = Clock::now();
  do {
    for (Variant& var : variants) {
      for (const bool instrumented : {false, true}) {
        if (instrumented && !args.trace) continue;
        JobResult job = run_job(args.kind, var.inputs, var.ref, *energy,
                                var.spec, instrumented);
        ++attempted;
        if (job.ok && var.first && !same_outcome(*var.first, job.summary)) {
          std::cerr << "hetbench: virtual outcome differs from an earlier "
                       "job on the same input\n";
          job.ok = false;
        }
        if (!job.ok) {
          ++failed;
          continue;
        }
        if (!var.first) var.first = job.summary;
        (instrumented ? var.traced_wall : var.plain_wall)
            .push_back(job.wall_s);
        for (const auto& [name, value] : job.layers) {
          layer_samples[name].push_back(value);
        }
      }
    }
  } while (seconds_since(loop_start) < args.seconds);

  // End-to-end metrics: the mean over the variants of each variant's
  // median job time and of its (deterministic) virtual outcome.
  std::vector<double> wall;
  std::vector<double> traced_wall;
  std::vector<double> sim_setup;
  std::vector<double> sim_makespan;
  std::vector<double> sim_dirty;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const Variant& var = variants[v];
    if (!var.first) continue;
    std::cerr << "hetbench: variant " << v << " jobs=" << var.plain_wall.size()
              << " job_wall_s=" << json_number(median(var.plain_wall))
              << " sim_setup_s=" << json_number(var.first->setup_time_s)
              << " sim_makespan_s=" << json_number(var.first->makespan_s)
              << " sim_dirty_energy_j="
              << json_number(var.first->dirty_energy_j)
              << " replans=" << var.first->replans << '\n';
    wall.push_back(median(var.plain_wall));
    traced_wall.push_back(median(var.traced_wall));
    sim_setup.push_back(var.first->setup_time_s);
    sim_makespan.push_back(var.first->makespan_s);
    sim_dirty.push_back(var.first->dirty_energy_j);
  }
  std::map<std::string, double> values;
  values["setup_s"] = median(setup_s);
  values["peak_rss_mb"] = peak_rss_mib();
  values["job_wall_s"] = mean(wall);
  values["sim_setup_s"] = mean(sim_setup);
  values["sim_makespan_s"] = mean(sim_makespan);
  values["sim_dirty_energy_j"] = mean(sim_dirty);
  if (args.trace) {
    for (const auto& [name, samples] : layer_samples) {
      values[name] = median(samples);
    }
    values["data.generate_s"] = median(generate_s);
    values["trace.untraced_job_wall_s"] = mean(wall);
    values["trace.job_wall_s"] = mean(traced_wall);
    values["trace.overhead_s"] = mean(traced_wall) - mean(wall);
  }
  print_result(failed == 0, attempted, failed, values, args.trace);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.manifest) {
    print_manifest();
    return 0;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "hetbench: " << e.what() << '\n';
    return 1;
  }
}
