#include "optimize/pareto.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.h"
#include "common/allocation.h"
#include "common/error.h"

namespace hetsim::optimize {

namespace {

constexpr double kTinyWork = 1e-9;

/// Feasibility contract on a solved partitioning LP (paper §III): the
/// continuous solution must satisfy Σ x_i = N, x_i >= 0 and
/// v >= m_i·x_i + c_i for every node, to solver tolerance. A solution
/// that violates its own constraints means the modeler is about to ship
/// an impossible plan — fail fast instead.
void check_lp_feasible(std::span<const NodeModel> models, std::size_t total,
                       std::span<const double> x, double v) {
  const std::size_t p = models.size();
  const double n = static_cast<double>(total);
  const double tol = 1e-6 * std::max(1.0, n);
  double sum_x = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    HETSIM_INVARIANT(x[i] >= -tol)
        << ": LP gave node " << i << " negative work x=" << x[i];
    sum_x += x[i];
  }
  HETSIM_INVARIANT(std::abs(sum_x - n) <= tol)
      << ": LP conservation broken, sum x_i=" << sum_x << " vs N=" << n;
  for (std::size_t i = 0; i < p; ++i) {
    const double finish = models[i].slope * x[i] + models[i].intercept;
    HETSIM_INVARIANT(v >= finish - 1e-6 * std::max(1.0, std::abs(finish)))
        << ": makespan var v=" << v << " below node " << i
        << " finish time " << finish;
  }
}

void validate_models(std::span<const NodeModel> models) {
  common::require<common::ConfigError>(!models.empty(),
                                       "pareto: no node models");
  for (const NodeModel& m : models) {
    common::require<common::ConfigError>(m.slope > 0.0 && m.intercept >= 0.0,
                                         "pareto: invalid time model");
  }
}

PartitionPlan finalize(std::span<const NodeModel> models, std::size_t total,
                       std::vector<double> continuous) {
  PartitionPlan plan;
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (continuous[i] > kTinyWork) {
      const double t = models[i].time_s(continuous[i]);
      plan.predicted_makespan_s = std::max(plan.predicted_makespan_s, t);
      plan.predicted_dirty_joules += models[i].dirty_rate * t;
    }
  }
  // predicted_dirty_joules may be negative (nodes with a green surplus
  // carry a negative dirty rate) but never non-finite.
  HETSIM_INVARIANT(std::isfinite(plan.predicted_dirty_joules))
      << ": non-finite predicted dirty energy "
      << plan.predicted_dirty_joules;
  plan.sizes = common::proportional_allocation(continuous, total);
  HETSIM_DCHECK_EQ(
      std::accumulate(plan.sizes.begin(), plan.sizes.end(), std::size_t{0}),
      total);
  plan.continuous = std::move(continuous);
  return plan;
}

/// Minimize w_time·v + w_energy·Σ (k_i·m_i + e_i)·x_i subject to the
/// partitioning constraints, where e_i is an optional extra per-record
/// energy rate (replica-write term; empty = none), by the breakpoint
/// walk described in pareto.h. Both weights must be >= 0, not both zero.
PartitionPlan solve_scalarized(std::span<const NodeModel> models,
                               std::size_t total, double w_time,
                               double w_energy,
                               std::span<const double> extra_energy = {}) {
  const std::size_t p = models.size();
  std::vector<double> cost(p);
  double c_max = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    cost[i] = models[i].dirty_rate * models[i].slope +
              (extra_energy.empty() ? 0.0 : extra_energy[i]);
    c_max = std::max(c_max, models[i].intercept);
  }
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](auto a, auto b) { return cost[a] < cost[b]; });

  // level[j]: v at which nodes order[0..j] hold N at their caps.
  // slope[j]: Σ (d_i - d_j)/m_i over the nodes strictly cheaper than
  // order[j], so equal costs add an exact zero.
  const double n = static_cast<double>(total);
  std::vector<double> level(p);
  std::vector<double> slope(p);
  double inv_m = 0.0, c_over_m = 0.0, d_over_m = 0.0;
  double cheaper_inv_m = 0.0, cheaper_d_over_m = 0.0;
  for (std::size_t j = 0; j < p; ++j) {
    const NodeModel& m = models[order[j]];
    const double d = cost[order[j]];
    if (j > 0 && d > cost[order[j - 1]]) {
      cheaper_inv_m = inv_m;
      cheaper_d_over_m = d_over_m;
    }
    inv_m += 1.0 / m.slope;
    c_over_m += m.intercept / m.slope;
    d_over_m += d / m.slope;
    level[j] = std::max(c_max, (n + c_over_m) / inv_m);
    slope[j] = cheaper_d_over_m - d * cheaper_inv_m;
  }
  std::size_t last = p - 1;
  while (last > 0 && w_time + w_energy * slope[last] < 0.0) --last;

  // Fill cheapest first at the chosen level; the last node takes the
  // rest so Σ x_i = N holds to rounding.
  const double v = level[last];
  std::vector<double> x(p, 0.0);
  double left = n;
  for (std::size_t j = 0; j <= last && left > 0.0; ++j) {
    const NodeModel& m = models[order[j]];
    x[order[j]] =
        j == last ? left : std::min(left, (v - m.intercept) / m.slope);
    left -= x[order[j]];
  }
  check_lp_feasible(models, total, x, v);
  return finalize(models, total, std::move(x));
}

/// Per-record replica-write dirty rate of each node's partition:
/// e_i = write_s_per_record · Σ_{j ∈ replica_sets[i]} dirty_rate_j.
std::vector<double> replica_energy_rates(std::span<const NodeModel> models,
                                         const ReplicaCostModel& replicas) {
  common::require<common::ConfigError>(
      replicas.replica_sets.size() == models.size(),
      "pareto: replica_sets arity mismatch");
  common::require<common::ConfigError>(
      replicas.write_s_per_record >= 0.0,
      "pareto: write_s_per_record must be >= 0");
  std::vector<double> rates(models.size(), 0.0);
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (const std::uint32_t j : replicas.replica_sets[i]) {
      common::require<common::ConfigError>(
          j < models.size(), "pareto: replica set names unknown node");
      rates[i] += replicas.write_s_per_record * models[j].dirty_rate;
    }
  }
  return rates;
}

}  // namespace

PartitionPlan solve_partition_sizes(std::span<const NodeModel> models,
                                    std::size_t total, double alpha) {
  validate_models(models);
  common::require<common::ConfigError>(alpha >= 0.0 && alpha <= 1.0,
                                       "pareto: alpha must be in [0, 1]");
  return solve_scalarized(models, total, alpha, 1.0 - alpha);
}

PartitionPlan solve_partition_sizes_replicated(
    std::span<const NodeModel> models, std::size_t total, double alpha,
    const ReplicaCostModel& replicas) {
  validate_models(models);
  common::require<common::ConfigError>(alpha >= 0.0 && alpha <= 1.0,
                                       "pareto: alpha must be in [0, 1]");
  if (replicas.replication <= 1 || replicas.write_s_per_record <= 0.0 ||
      replicas.replica_sets.empty()) {
    return solve_scalarized(models, total, alpha, 1.0 - alpha);
  }
  const std::vector<double> rates = replica_energy_rates(models, replicas);
  PartitionPlan plan =
      solve_scalarized(models, total, alpha, 1.0 - alpha, rates);
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (plan.continuous[i] > kTinyWork) {
      plan.predicted_dirty_joules += rates[i] * plan.continuous[i];
    }
  }
  return plan;
}

PartitionPlan solve_partition_sizes_normalized(
    std::span<const NodeModel> models, std::size_t total, double alpha) {
  validate_models(models);
  common::require<common::ConfigError>(alpha >= 0.0 && alpha <= 1.0,
                                       "pareto: alpha must be in [0, 1]");
  // Extreme points of the frontier give each objective's range.
  const PartitionPlan fast = solve_scalarized(models, total, 1.0, 0.0);
  const PartitionPlan green = solve_scalarized(models, total, 0.0, 1.0);
  const double v_range =
      green.predicted_makespan_s - fast.predicted_makespan_s;
  const double g_range =
      fast.predicted_dirty_joules - green.predicted_dirty_joules;
  // Degenerate frontier (one point optimizes both): any alpha gives it.
  if (v_range <= 1e-15 || g_range <= 1e-15) {
    return solve_scalarized(models, total, alpha, 1.0 - alpha);
  }
  return solve_scalarized(models, total, alpha / v_range,
                          (1.0 - alpha) / g_range);
}

PartitionPlan equal_split(std::span<const NodeModel> models, std::size_t total) {
  validate_models(models);
  std::vector<double> x(models.size(),
                        static_cast<double>(total) /
                            static_cast<double>(models.size()));
  return finalize(models, total, std::move(x));
}

namespace {

std::vector<FrontierPoint> sweep_impl(
    std::span<const NodeModel> models, std::size_t total,
    std::span<const double> alphas,
    PartitionPlan (*solver)(std::span<const NodeModel>, std::size_t, double)) {
  std::vector<FrontierPoint> frontier;
  frontier.reserve(alphas.size());
  for (const double alpha : alphas) {
    PartitionPlan plan = solver(models, total, alpha);
    FrontierPoint pt;
    pt.alpha = alpha;
    pt.makespan_s = plan.predicted_makespan_s;
    pt.dirty_joules = plan.predicted_dirty_joules;
    pt.sizes = std::move(plan.sizes);
    frontier.push_back(std::move(pt));
  }
  return frontier;
}

}  // namespace

std::vector<FrontierPoint> sweep_frontier(std::span<const NodeModel> models,
                                          std::size_t total,
                                          std::span<const double> alphas) {
  return sweep_impl(models, total, alphas, &solve_partition_sizes);
}

std::vector<FrontierPoint> sweep_frontier_normalized(
    std::span<const NodeModel> models, std::size_t total,
    std::span<const double> alphas) {
  return sweep_impl(models, total, alphas, &solve_partition_sizes_normalized);
}

double plan_makespan(std::span<const NodeModel> models,
                     std::span<const std::size_t> sizes) {
  common::require<common::ConfigError>(models.size() == sizes.size(),
                                       "plan_makespan: arity mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (sizes[i] > 0) {
      worst = std::max(worst, models[i].time_s(static_cast<double>(sizes[i])));
    }
  }
  return worst;
}

double plan_dirty_joules(std::span<const NodeModel> models,
                         std::span<const std::size_t> sizes) {
  common::require<common::ConfigError>(models.size() == sizes.size(),
                                       "plan_dirty_joules: arity mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (sizes[i] > 0) {
      total += models[i].dirty_rate *
               models[i].time_s(static_cast<double>(sizes[i]));
    }
  }
  return total;
}

}  // namespace hetsim::optimize
