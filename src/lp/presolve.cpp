#include "gridsec/lp/presolve.hpp"

#include <cmath>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::lp {
namespace {

constexpr double kFeasTol = 1e-9;

std::string_view verdict_name(Presolved::Verdict v) {
  switch (v) {
    case Presolved::Verdict::kReduced: return "reduced";
    case Presolved::Verdict::kSolved: return "solved";
    case Presolved::Verdict::kInfeasible: return "infeasible";
    case Presolved::Verdict::kUnbounded: return "unbounded";
  }
  return "unknown";
}

/// Reduction counts go to the registry so B&B root presolve shows up in
/// run-report counter deltas alongside node/pivot counters.
void record_presolve_metrics(const Presolved& p) {
  auto& reg = obs::default_registry();
  static obs::Counter& runs = reg.counter("lp.presolve.runs");
  static obs::Counter& fixed = reg.counter("lp.presolve.fixed_variables");
  static obs::Counter& rows = reg.counter("lp.presolve.removed_rows");
  static obs::Counter& bounds = reg.counter("lp.presolve.tightened_bounds");
  static obs::Counter& free_fixed =
      reg.counter("lp.presolve.free_variables_fixed");
  static obs::Counter& passes = reg.counter("lp.presolve.passes");
  runs.add();
  fixed.add(p.stats().fixed_variables);
  rows.add(p.stats().removed_rows);
  bounds.add(p.stats().tightened_bounds);
  free_fixed.add(p.stats().free_variables_fixed);
  passes.add(p.stats().passes);
  GRIDSEC_LOG(kDebug, "lp.presolve")
      .field("verdict", verdict_name(p.verdict()))
      .field("fixed_vars", p.stats().fixed_variables)
      .field("removed_rows", p.stats().removed_rows)
      .field("tightened_bounds", p.stats().tightened_bounds)
      .field("passes", p.stats().passes);
}

}  // namespace

Presolved presolve(const Problem& problem) {
  GRIDSEC_TRACE_SPAN("lp.presolve");
  // The reduction loop lives in a lambda so every early return (infeasible /
  // unbounded verdicts) still flows through the metrics recording below.
  Presolved out = [&problem]() -> Presolved {
  Presolved out;
  out.original_ = &problem;
  const int nv = problem.num_variables();
  const int nr = problem.num_constraints();

  std::vector<double> lower(static_cast<std::size_t>(nv));
  std::vector<double> upper(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    lower[static_cast<std::size_t>(j)] = problem.variable(j).lower;
    upper[static_cast<std::size_t>(j)] = problem.variable(j).upper;
  }
  std::vector<bool> fixed(static_cast<std::size_t>(nv), false);
  std::vector<double> fixed_at(static_cast<std::size_t>(nv), 0.0);
  std::vector<bool> row_alive(static_cast<std::size_t>(nr), true);

  const bool maximize = problem.objective() == Objective::kMaximize;
  const auto min_sense_obj = [&](int j) {
    const double c = problem.variable(j).objective;
    return maximize ? -c : c;
  };

  const auto fix = [&](int j, double value) {
    fixed[static_cast<std::size_t>(j)] = true;
    fixed_at[static_cast<std::size_t>(j)] = value;
    ++out.stats_.fixed_variables;
  };

  bool changed = true;
  while (changed && out.verdict_ == Presolved::Verdict::kReduced) {
    changed = false;
    ++out.stats_.passes;

    // Fixed-by-bounds variables.
    for (int j = 0; j < nv; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (!fixed[js] && upper[js] - lower[js] <= kFeasTol) {
        fix(j, lower[js]);
        changed = true;
      }
    }

    // Row reductions.
    for (int i = 0; i < nr; ++i) {
      const auto is = static_cast<std::size_t>(i);
      if (!row_alive[is]) continue;
      const Constraint& con = problem.constraint(i);
      double rhs = con.rhs;
      int live_terms = 0;  // counts term entries, so duplicate-variable
                           // rows are conservatively treated as non-singleton
      int live_var = -1;
      for (const Term& t : con.terms) {
        if (t.coef == 0.0) continue;
        const auto vs = static_cast<std::size_t>(t.var);
        if (fixed[vs]) {
          rhs -= t.coef * fixed_at[vs];
        } else {
          ++live_terms;
          live_var = t.var;
        }
      }
      if (live_terms == 0) {
        // Empty row: verify and drop.
        const bool ok = (con.sense == Sense::kLessEqual && 0.0 <= rhs + kFeasTol) ||
                        (con.sense == Sense::kGreaterEqual &&
                         0.0 >= rhs - kFeasTol) ||
                        (con.sense == Sense::kEqual &&
                         std::fabs(rhs) <= kFeasTol);
        if (!ok) {
          out.verdict_ = Presolved::Verdict::kInfeasible;
          return out;
        }
        row_alive[is] = false;
        ++out.stats_.removed_rows;
        changed = true;
      } else if (live_terms == 1) {
        // Singleton row -> bound tightening. Duplicate-variable rows are
        // rare; recompute the aggregate coefficient defensively.
        double agg = 0.0;
        for (const Term& t : con.terms) {
          if (t.var == live_var && !fixed[static_cast<std::size_t>(t.var)]) {
            agg += t.coef;
          }
        }
        if (agg == 0.0) continue;  // cancels out; treat next pass as empty
        const auto vs = static_cast<std::size_t>(live_var);
        const double bound = rhs / agg;
        const bool upper_bound =
            (con.sense == Sense::kLessEqual) == (agg > 0.0);
        if (con.sense == Sense::kEqual) {
          if (bound < lower[vs] - kFeasTol || bound > upper[vs] + kFeasTol) {
            out.verdict_ = Presolved::Verdict::kInfeasible;
            return out;
          }
          lower[vs] = upper[vs] = bound;
        } else if (upper_bound) {
          if (bound < upper[vs]) {
            upper[vs] = bound;
            ++out.stats_.tightened_bounds;
          }
        } else {
          if (bound > lower[vs]) {
            lower[vs] = bound;
            ++out.stats_.tightened_bounds;
          }
        }
        if (lower[vs] > upper[vs] + kFeasTol) {
          out.verdict_ = Presolved::Verdict::kInfeasible;
          return out;
        }
        row_alive[is] = false;
        ++out.stats_.removed_rows;
        changed = true;
      }
    }

    // Variables in no live row: fix at the objective-optimal bound.
    std::vector<bool> appears(static_cast<std::size_t>(nv), false);
    bool any_live_row = false;
    for (int i = 0; i < nr; ++i) {
      if (!row_alive[static_cast<std::size_t>(i)]) continue;
      any_live_row = true;
      for (const Term& t : problem.constraint(i).terms) {
        if (t.coef != 0.0) appears[static_cast<std::size_t>(t.var)] = true;
      }
    }
    for (int j = 0; j < nv; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (fixed[js] || appears[js]) continue;
      const double c = min_sense_obj(j);
      if (c < 0.0) {
        if (!std::isfinite(upper[js])) {
          // Improving ray — but it only proves unboundedness if a feasible
          // point exists. With no live rows left that is certain (every
          // removed row was verified consistent and bounds are ordered);
          // otherwise leave the column for the simplex, which establishes
          // feasibility in phase 1 before it can report unbounded.
          if (!any_live_row) {
            out.verdict_ = Presolved::Verdict::kUnbounded;
            return out;
          }
          continue;
        }
        fix(j, upper[js]);
      } else {
        fix(j, lower[js]);
      }
      ++out.stats_.free_variables_fixed;
      changed = true;
    }
  }

  // Build the reduced problem and the mappings.
  out.fixed_value_.assign(static_cast<std::size_t>(nv), std::nullopt);
  out.reduced_column_.assign(static_cast<std::size_t>(nv), -1);
  out.reduced_row_.assign(static_cast<std::size_t>(nr), -1);
  out.reduced_ = Problem(problem.objective());
  for (int j = 0; j < nv; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (fixed[js]) {
      out.fixed_value_[js] = fixed_at[js];
      out.objective_offset_ += problem.variable(j).objective * fixed_at[js];
    } else {
      const Variable& v = problem.variable(j);
      out.reduced_column_[js] = out.reduced_.add_variable(
          v.name, lower[js], upper[js], v.objective, v.type);
    }
  }
  for (int i = 0; i < nr; ++i) {
    const auto is = static_cast<std::size_t>(i);
    if (!row_alive[is]) continue;
    const Constraint& con = problem.constraint(i);
    double rhs = con.rhs;
    LinearExpr expr;
    for (const Term& t : con.terms) {
      const auto vs = static_cast<std::size_t>(t.var);
      if (out.fixed_value_[vs].has_value()) {
        rhs -= t.coef * *out.fixed_value_[vs];
      } else {
        expr.add(out.reduced_column_[vs], t.coef);
      }
    }
    out.reduced_row_[is] =
        out.reduced_.add_constraint(con.name, std::move(expr), con.sense, rhs);
  }
  if (out.reduced_.num_variables() == 0 &&
      out.verdict_ == Presolved::Verdict::kReduced) {
    out.verdict_ = Presolved::Verdict::kSolved;
  }
  return out;
  }();
  record_presolve_metrics(out);
  return out;
}

Solution Presolved::postsolve(const Solution& reduced_solution) const {
  GRIDSEC_ASSERT(original_ != nullptr);
  Solution out;
  out.status = reduced_solution.status;
  out.iterations = reduced_solution.iterations;
  if (verdict_ == Verdict::kInfeasible) {
    out.status = SolveStatus::kInfeasible;
    return out;
  }
  if (verdict_ == Verdict::kUnbounded) {
    out.status = SolveStatus::kUnbounded;
    return out;
  }
  if (verdict_ == Verdict::kSolved) out.status = SolveStatus::kOptimal;
  if (out.status != SolveStatus::kOptimal) return out;

  const int nv = original_->num_variables();
  const int nr = original_->num_constraints();
  out.x.resize(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (fixed_value_[js].has_value()) {
      out.x[js] = *fixed_value_[js];
    } else {
      out.x[js] = reduced_solution.x[static_cast<std::size_t>(
          reduced_column_[js])];
    }
  }
  out.objective = original_->objective_value(out.x);

  out.duals.assign(static_cast<std::size_t>(nr), 0.0);
  for (int i = 0; i < nr; ++i) {
    const int rr = reduced_row_[static_cast<std::size_t>(i)];
    if (rr >= 0 && static_cast<std::size_t>(rr) <
                       reduced_solution.duals.size()) {
      out.duals[static_cast<std::size_t>(i)] =
          reduced_solution.duals[static_cast<std::size_t>(rr)];
    }
  }
  out.reduced_costs.assign(static_cast<std::size_t>(nv), 0.0);
  for (int j = 0; j < nv; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (reduced_column_[js] >= 0 &&
        static_cast<std::size_t>(reduced_column_[js]) <
            reduced_solution.reduced_costs.size()) {
      out.reduced_costs[js] = reduced_solution.reduced_costs[
          static_cast<std::size_t>(reduced_column_[js])];
    }
  }
  return out;
}

Equilibrated equilibrate(const Problem& problem,
                         const EquilibrateOptions& options) {
  GRIDSEC_TRACE_SPAN("lp.presolve.equilibrate");
  Equilibrated out;
  const int nr = problem.num_constraints();
  const int nv = problem.num_variables();
  out.row_scale_.assign(static_cast<std::size_t>(nr), 1.0);
  out.col_scale_.assign(static_cast<std::size_t>(nv), 1.0);

  // Nearest power of two to 1/sqrt(m): exp2(round(-log2(m)/2)). Powers of
  // two keep every scale/unscale multiplication exact.
  const auto ruiz_factor = [](double m) {
    if (!(m > 0.0) || !std::isfinite(m)) return 1.0;
    return std::exp2(std::round(-0.5 * std::log2(m)));
  };

  std::vector<double> row_max(static_cast<std::size_t>(nr));
  std::vector<double> col_max(static_cast<std::size_t>(nv));
  for (int pass = 0; pass < options.max_passes; ++pass) {
    row_max.assign(static_cast<std::size_t>(nr), 0.0);
    col_max.assign(static_cast<std::size_t>(nv), 0.0);
    for (int i = 0; i < nr; ++i) {
      const auto is = static_cast<std::size_t>(i);
      for (const Term& t : problem.constraint(i).terms) {
        const auto js = static_cast<std::size_t>(t.var);
        const double mag = std::fabs(t.coef) * out.row_scale_[is] *
                           out.col_scale_[js];
        row_max[is] = std::max(row_max[is], mag);
        col_max[js] = std::max(col_max[js], mag);
      }
    }
    bool any = false;
    for (int i = 0; i < nr; ++i) {
      const auto is = static_cast<std::size_t>(i);
      const double f = ruiz_factor(row_max[is]);
      if (f != 1.0) {
        out.row_scale_[is] *= f;
        any = true;
      }
    }
    for (int j = 0; j < nv; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double f = ruiz_factor(col_max[js]);
      if (f != 1.0) {
        out.col_scale_[js] *= f;
        any = true;
      }
    }
    if (any) out.scaled_any_ = true;
    if (!any) break;  // all row/col maxima already in [1/sqrt2, sqrt2)
  }

  // Build the scaled problem per the header contract.
  out.scaled_ = Problem(problem.objective());
  for (int j = 0; j < nv; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const Variable& v = problem.variable(j);
    const double c = out.col_scale_[js];
    const double upper = std::isfinite(v.upper) ? v.upper / c : v.upper;
    out.scaled_.add_variable(v.name, v.lower / c, upper, v.objective * c,
                             v.type);
  }
  for (int i = 0; i < nr; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const Constraint& con = problem.constraint(i);
    const double r = out.row_scale_[is];
    LinearExpr expr;
    for (const Term& t : con.terms) {
      expr.add(t.var,
               t.coef * r * out.col_scale_[static_cast<std::size_t>(t.var)]);
    }
    out.scaled_.add_constraint(con.name, std::move(expr), con.sense,
                               con.rhs * r);
  }
  GRIDSEC_LOG(kDebug, "lp.presolve")
      .field("rows", nr)
      .field("vars", nv)
      .field("scaled_any", out.scaled_any_ ? 1 : 0)
      .message("equilibrate");
  return out;
}

Solution Equilibrated::unscale(const Solution& scaled_solution) const {
  Solution out = scaled_solution;
  if (out.x.size() == col_scale_.size()) {
    for (std::size_t j = 0; j < out.x.size(); ++j) {
      out.x[j] *= col_scale_[j];
    }
  }
  if (out.reduced_costs.size() == col_scale_.size()) {
    for (std::size_t j = 0; j < out.reduced_costs.size(); ++j) {
      out.reduced_costs[j] /= col_scale_[j];
    }
  }
  if (out.duals.size() == row_scale_.size()) {
    for (std::size_t i = 0; i < out.duals.size(); ++i) {
      out.duals[i] *= row_scale_[i];
    }
  }
  // objective, status, iterations, basis, warm_started, recovery_trail
  // all pass through: the objective is bit-identical (obj'_j·x'_j =
  // obj_j·c_j·x_j/c_j with c_j a power of two) and basis statuses are
  // scale-invariant.
  return out;
}

Solution Equilibrated::rescale(const Solution& original_solution) const {
  Solution out = original_solution;
  if (out.x.size() == col_scale_.size()) {
    for (std::size_t j = 0; j < out.x.size(); ++j) {
      out.x[j] /= col_scale_[j];
    }
  }
  if (out.reduced_costs.size() == col_scale_.size()) {
    for (std::size_t j = 0; j < out.reduced_costs.size(); ++j) {
      out.reduced_costs[j] *= col_scale_[j];
    }
  }
  if (out.duals.size() == row_scale_.size()) {
    for (std::size_t i = 0; i < out.duals.size(); ++i) {
      out.duals[i] /= row_scale_[i];
    }
  }
  return out;
}

Solution solve_lp_with_presolve(const Problem& problem,
                                const SimplexOptions& options) {
  // Guardrail: presolve's reductions compare and fold coefficients, so
  // NaN/Inf data must be rejected before it can corrupt a verdict.
  if (!validate_problem(problem).is_ok()) {
    Solution out;
    out.status = SolveStatus::kNumericalError;
    return out;
  }
  Presolved pre = presolve(problem);
  switch (pre.verdict()) {
    case Presolved::Verdict::kInfeasible:
    case Presolved::Verdict::kUnbounded:
    case Presolved::Verdict::kSolved: {
      Solution dummy;
      dummy.status = SolveStatus::kOptimal;
      return pre.postsolve(dummy);
    }
    case Presolved::Verdict::kReduced:
      break;
  }
  SimplexSolver solver(options);
  return pre.postsolve(solver.solve(pre.reduced()));
}

}  // namespace gridsec::lp
