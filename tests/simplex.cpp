#include "simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace hetsim::optimize {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

Constraint& LpProblem::add_constraint(std::vector<double> coeffs, Relation rel,
                                      double rhs) {
  constraints.push_back(Constraint{std::move(coeffs), rel, rhs});
  return constraints.back();
}

namespace {

/// Dense tableau: rows 0..m-1 are constraints (last column = rhs), row m
/// is the reduced-cost row of the active objective.
class Tableau {
 public:
  Tableau(const LpProblem& p) {
    const std::size_t n = p.num_vars;
    m_ = p.constraints.size();
    // Column layout: [structural n][slack/surplus s][artificial a][rhs].
    std::size_t num_slack = 0;
    std::size_t num_artificial = 0;
    for (const auto& c : p.constraints) {
      common::require<common::ConfigError>(c.coeffs.size() == n,
                                           "solve_lp: coefficient arity");
      // After rhs normalization Le keeps a slack; Ge gets surplus +
      // artificial; Eq gets artificial. Normalization can flip Le<->Ge.
      Relation rel = c.rel;
      if (c.rhs < 0) rel = flip(rel);
      if (rel == Relation::kLe) {
        ++num_slack;
      } else if (rel == Relation::kGe) {
        ++num_slack;       // surplus
        ++num_artificial;
      } else {
        ++num_artificial;
      }
    }
    structural_ = n;
    slack_begin_ = n;
    artificial_begin_ = n + num_slack;
    cols_ = n + num_slack + num_artificial;
    rows_.assign(m_ + 1, std::vector<double>(cols_ + 1, 0.0));
    basis_.assign(m_, 0);

    std::size_t next_slack = slack_begin_;
    std::size_t next_art = artificial_begin_;
    for (std::size_t r = 0; r < m_; ++r) {
      const Constraint& c = p.constraints[r];
      const double sign = c.rhs < 0 ? -1.0 : 1.0;
      Relation rel = c.rhs < 0 ? flip(c.rel) : c.rel;
      for (std::size_t j = 0; j < n; ++j) rows_[r][j] = sign * c.coeffs[j];
      rows_[r][cols_] = sign * c.rhs;
      if (rel == Relation::kLe) {
        rows_[r][next_slack] = 1.0;
        basis_[r] = next_slack++;
      } else if (rel == Relation::kGe) {
        rows_[r][next_slack++] = -1.0;  // surplus
        rows_[r][next_art] = 1.0;
        basis_[r] = next_art++;
      } else {
        rows_[r][next_art] = 1.0;
        basis_[r] = next_art++;
      }
    }
  }

  static Relation flip(Relation rel) {
    if (rel == Relation::kLe) return Relation::kGe;
    if (rel == Relation::kGe) return Relation::kLe;
    return Relation::kEq;
  }

  /// Install an objective (minimize). Cost over columns [0, limit); other
  /// columns cost 0. Rebuilds the reduced-cost row for the current basis.
  void set_objective(const std::vector<double>& cost) {
    auto& z = rows_[m_];
    std::fill(z.begin(), z.end(), 0.0);
    for (std::size_t j = 0; j < cost.size() && j < cols_; ++j) z[j] = cost[j];
    for (std::size_t r = 0; r < m_; ++r) {
      const double cb = basis_[r] < cost.size() ? cost[basis_[r]] : 0.0;
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j) z[j] -= cb * rows_[r][j];
    }
  }

  /// Run simplex iterations. Entering columns restricted to < col_limit
  /// (used to fence artificials out in phase 2). Returns false if
  /// unbounded.
  bool optimize(std::size_t col_limit, std::size_t& iterations) {
    for (;;) {
      // Bland: entering = smallest-index column with negative reduced cost.
      std::size_t enter = cols_;
      for (std::size_t j = 0; j < col_limit; ++j) {
        if (rows_[m_][j] < -kEps) {
          enter = j;
          break;
        }
      }
      if (enter == cols_) return true;  // optimal
      // Ratio test; Bland tie-break on smallest basic variable index.
      std::size_t leave = m_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m_; ++r) {
        const double a = rows_[r][enter];
        if (a > kEps) {
          const double ratio = rows_[r][cols_] / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leave == m_ || basis_[r] < basis_[leave]))) {
            best_ratio = ratio;
            leave = r;
          }
        }
      }
      if (leave == m_) return false;  // unbounded
      pivot(leave, enter);
      ++iterations;
    }
  }

  void pivot(std::size_t row, std::size_t col) {
    auto& pr = rows_[row];
    const double pv = pr[col];
    for (double& v : pr) v /= pv;
    for (std::size_t r = 0; r <= m_; ++r) {
      if (r == row) continue;
      const double factor = rows_[r][col];
      if (std::abs(factor) < kEps) continue;
      for (std::size_t j = 0; j <= cols_; ++j) rows_[r][j] -= factor * pr[j];
    }
    basis_[row] = col;
  }

  /// Pivot remaining basic artificials out (or detect redundant rows).
  void expel_artificials() {
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < artificial_begin_) continue;
      // Try any non-artificial column with a nonzero coefficient.
      std::size_t col = cols_;
      for (std::size_t j = 0; j < artificial_begin_; ++j) {
        if (std::abs(rows_[r][j]) > kEps) {
          col = j;
          break;
        }
      }
      if (col != cols_) pivot(r, col);
      // else: row is redundant; the artificial stays basic at value 0 and
      // never re-enters because phase 2 fences entering columns.
    }
  }

  [[nodiscard]] double objective_value() const { return -rows_[m_][cols_]; }
  [[nodiscard]] double phase1_infeasibility() const { return objective_value(); }

  [[nodiscard]] std::vector<double> extract(std::size_t n) const {
    std::vector<double> x(n, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < n) x[basis_[r]] = rows_[r][cols_];
    }
    return x;
  }

  /// No nonbasic column below `col_limit` has a reduced cost <= tol.
  [[nodiscard]] bool optimum_unique(std::size_t col_limit, double tol) const {
    for (std::size_t j = 0; j < col_limit; ++j) {
      const bool basic =
          std::find(basis_.begin(), basis_.end(), j) != basis_.end();
      if (!basic && rows_[m_][j] <= tol) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t artificial_begin() const { return artificial_begin_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool has_artificials() const { return artificial_begin_ < cols_; }

 private:
  std::size_t m_ = 0;
  std::size_t cols_ = 0;
  std::size_t structural_ = 0;
  std::size_t slack_begin_ = 0;
  std::size_t artificial_begin_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<std::size_t> basis_;
};

}  // namespace

LpSolution solve_lp(const LpProblem& problem) {
  common::require<common::ConfigError>(
      problem.objective.size() == problem.num_vars,
      "solve_lp: objective arity mismatch");
  LpSolution sol;
  Tableau tab(problem);

  if (tab.has_artificials()) {
    // Phase 1: minimize the sum of artificials.
    std::vector<double> phase1_cost(tab.cols(), 0.0);
    for (std::size_t j = tab.artificial_begin(); j < tab.cols(); ++j) {
      phase1_cost[j] = 1.0;
    }
    tab.set_objective(phase1_cost);
    if (!tab.optimize(tab.cols(), sol.iterations)) {
      sol.status = LpStatus::kUnbounded;  // cannot happen: phase 1 bounded
      return sol;
    }
    if (tab.phase1_infeasibility() > 1e-6) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
    tab.expel_artificials();
  }

  // Phase 2: the real objective, artificial columns fenced out.
  std::vector<double> cost(problem.objective);
  cost.resize(tab.cols(), 0.0);
  tab.set_objective(cost);
  if (!tab.optimize(tab.artificial_begin(), sol.iterations)) {
    sol.status = LpStatus::kUnbounded;
    return sol;
  }
  sol.status = LpStatus::kOptimal;
  double max_cost = 0.0;
  for (const double c : problem.objective) {
    max_cost = std::max(max_cost, std::abs(c));
  }
  sol.unique = tab.optimum_unique(tab.artificial_begin(), kEps * max_cost);
  sol.x = tab.extract(problem.num_vars);
  sol.objective = 0.0;
  for (std::size_t j = 0; j < problem.num_vars; ++j) {
    sol.objective += problem.objective[j] * sol.x[j];
  }
  return sol;
}

LpProblem partition_lp(std::span<const NodeModel> models, std::size_t total,
                       double w_time, double w_energy,
                       std::span<const double> extra_energy) {
  const std::size_t p = models.size();
  LpProblem lp;
  lp.num_vars = p + 1;
  lp.objective.assign(p + 1, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    const double extra = extra_energy.empty() ? 0.0 : extra_energy[i];
    lp.objective[i] =
        w_energy * (models[i].dirty_rate * models[i].slope + extra);
  }
  lp.objective[p] = w_time;
  for (std::size_t i = 0; i < p; ++i) {
    std::vector<double> row(p + 1, 0.0);
    row[i] = -models[i].slope;
    row[p] = 1.0;
    lp.add_constraint(std::move(row), Relation::kGe, models[i].intercept);
  }
  std::vector<double> sum_row(p + 1, 0.0);
  for (std::size_t i = 0; i < p; ++i) sum_row[i] = 1.0;
  lp.add_constraint(std::move(sum_row), Relation::kEq,
                    static_cast<double>(total));
  return lp;
}

}  // namespace hetsim::optimize
