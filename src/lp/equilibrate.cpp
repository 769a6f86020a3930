#include "gridsec/lp/equilibrate.hpp"

#include <algorithm>
#include <cmath>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::lp {
namespace {

/// Ruiz iterations (each sweeps rows then columns); a sweep that moves no
/// factor ends the loop early.
constexpr int kRuizPasses = 10;

}  // namespace

Equilibrated equilibrate(const Problem& problem) {
  GRIDSEC_TRACE_SPAN("lp.equilibrate");
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
  for (int pass = 0; pass < kRuizPasses; ++pass) {
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
  GRIDSEC_LOG(kDebug, "lp.equilibrate")
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

}  // namespace gridsec::lp
