// Dense two-phase primal simplex: the independent oracle the closed-form
// Pareto partition solver (optimize/pareto.h) is tested against. The
// partitioning LPs are tiny (p+1 variables, p+1 constraints), so a dense
// tableau with Bland's anti-cycling rule is both simple and exact enough.
//
//   minimize    c·x
//   subject to  a_r·x {<=,=,>=} b_r   for each constraint r
//               x >= 0
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "optimize/pareto.h"

namespace hetsim::optimize {

enum class Relation { kLe, kEq, kGe };

struct Constraint {
  std::vector<double> coeffs;  // length num_vars
  Relation rel = Relation::kLe;
  double rhs = 0.0;
};

struct LpProblem {
  std::size_t num_vars = 0;
  std::vector<double> objective;  // length num_vars (minimized)
  std::vector<Constraint> constraints;

  Constraint& add_constraint(std::vector<double> coeffs, Relation rel,
                             double rhs);
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;
  double objective = 0.0;
  std::size_t iterations = 0;
  /// Every nonbasic column has a strictly positive reduced cost, so no
  /// other point attains the optimum. (Sufficient, not necessary: a
  /// primal-degenerate optimum may be unique and still report false.)
  bool unique = false;
};

/// Solve with two-phase simplex. Throws ConfigError on malformed input
/// (wrong coefficient arity); infeasible/unbounded are reported via
/// status, not exceptions.
[[nodiscard]] LpSolution solve_lp(const LpProblem& problem);

/// The scalarized partitioning LP of optimize/pareto.h written out in
/// full: variables x_0..x_{p-1}, then v;
///   minimize   w_time·v + w_energy·Σ (k_i·m_i + e_i)·x_i
///   subject to v - m_i·x_i >= c_i,  Σ x_i = N,
/// where e_i = extra_energy[i] (empty = none).
[[nodiscard]] LpProblem partition_lp(std::span<const NodeModel> models,
                                     std::size_t total, double w_time,
                                     double w_energy,
                                     std::span<const double> extra_energy = {});

}  // namespace hetsim::optimize
