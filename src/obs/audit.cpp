#include "gridsec/obs/audit.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "gridsec/lp/simplex.hpp"
#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "json.hpp"

namespace gridsec::obs {
namespace {

using lp::Objective;
using lp::Problem;
using lp::Sense;
using lp::Solution;
using lp::SolveStatus;
using lp::VarType;

// ---------------------------------------------------------------------------
// Small shared helpers

// Infinite bounds are elided by the writer; any other non-finite value is
// a data bug that write_number keeps visible as a quoted string.
using json::write_number;

std::string_view sense_token(Sense s) {
  switch (s) {
    case Sense::kLessEqual: return "<=";
    case Sense::kGreaterEqual: return ">=";
    case Sense::kEqual: return "=";
  }
  return "?";
}

bool parse_sense(std::string_view token, Sense* out) {
  if (token == "<=") { *out = Sense::kLessEqual; return true; }
  if (token == ">=") { *out = Sense::kGreaterEqual; return true; }
  if (token == "=") { *out = Sense::kEqual; return true; }
  return false;
}

std::string_view vartype_token(VarType t) {
  switch (t) {
    case VarType::kContinuous: return "cont";
    case VarType::kBinary: return "bin";
    case VarType::kInteger: return "int";
  }
  return "?";
}

bool parse_vartype(std::string_view token, VarType* out) {
  if (token == "cont") { *out = VarType::kContinuous; return true; }
  if (token == "bin") { *out = VarType::kBinary; return true; }
  if (token == "int") { *out = VarType::kInteger; return true; }
  return false;
}

bool parse_solve_status(std::string_view token, SolveStatus* out) {
  for (const SolveStatus s :
       {SolveStatus::kOptimal, SolveStatus::kInfeasible,
        SolveStatus::kUnbounded, SolveStatus::kIterationLimit,
        SolveStatus::kTimeLimit, SolveStatus::kNumericalError}) {
    if (token == lp::to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

bool parse_verdict(std::string_view token, CertVerdict* out) {
  for (const CertVerdict v :
       {CertVerdict::kVerified, CertVerdict::kFeasibleOnly,
        CertVerdict::kFailed, CertVerdict::kNotApplicable}) {
    if (token == to_string(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Certificate checker

/// Tracks the worst violation per check family and the narrative lines.
struct Residuals {
  Certificate cert;

  void note(double* slot, double violation, double scale,
            const char* fmt, auto... fmt_args) {
    const double rel = violation / scale;
    if (rel > *slot) *slot = rel;
    if (rel > limit_for(slot)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), fmt, fmt_args...);
      char line[320];
      std::snprintf(line, sizeof(line), "%s (residual %.3e)", buf, rel);
      cert.violations.emplace_back(line);
    }
  }

  // Each slot's pass/fail threshold, bound at construction.
  double feasibility_tol = 1e-6;
  double dual_tol = 1e-6;
  double duality_gap_tol = 1e-6;
  double integrality_tol = 1e-5;

  double limit_for(const double* slot) const {
    if (slot == &cert.primal_residual || slot == &cert.bound_residual ||
        slot == &cert.objective_residual) {
      return feasibility_tol;
    }
    if (slot == &cert.integrality_residual) return integrality_tol;
    if (slot == &cert.duality_gap) return duality_gap_tol;
    return dual_tol;
  }
};

/// Row activity plus the absolute-magnitude sum used for relative scaling.
struct RowActivity {
  double value = 0.0;
  double abs_sum = 0.0;
};

RowActivity row_activity(const lp::Constraint& row,
                         const std::vector<double>& x) {
  RowActivity act;
  for (const lp::Term& t : row.terms) {
    const double contrib = t.coef * x[static_cast<std::size_t>(t.var)];
    act.value += contrib;
    act.abs_sum += std::fabs(contrib);
  }
  return act;
}

void check_primal(const Problem& problem, const std::vector<double>& x,
                  Residuals& r) {
  const int m = problem.num_constraints();
  for (int i = 0; i < m; ++i) {
    const lp::Constraint& row = problem.constraint(i);
    const RowActivity act = row_activity(row, x);
    const double scale = 1.0 + std::fabs(row.rhs) + act.abs_sum;
    double violation = 0.0;
    switch (row.sense) {
      case Sense::kLessEqual:
        violation = std::max(0.0, act.value - row.rhs);
        break;
      case Sense::kGreaterEqual:
        violation = std::max(0.0, row.rhs - act.value);
        break;
      case Sense::kEqual:
        violation = std::fabs(act.value - row.rhs);
        break;
    }
    r.note(&r.cert.primal_residual, violation, scale,
           "row %d '%s' violates %s %.6g by %.3e", i, row.name.c_str(),
           std::string(sense_token(row.sense)).c_str(), row.rhs, violation);
  }
  const int n = problem.num_variables();
  for (int j = 0; j < n; ++j) {
    const lp::Variable& v = problem.variable(j);
    const double xj = x[static_cast<std::size_t>(j)];
    const double scale = 1.0 + std::fabs(xj);
    const double below = std::max(0.0, v.lower - xj);
    const double above =
        std::isfinite(v.upper) ? std::max(0.0, xj - v.upper) : 0.0;
    r.note(&r.cert.bound_residual, std::max(below, above), scale,
           "var %d '%s' = %.6g outside [%.6g, %.6g]", j, v.name.c_str(), xj,
           v.lower, v.upper);
  }
}

void check_objective(const Problem& problem, const Solution& sol,
                     Residuals& r) {
  const double recomputed = problem.objective_value(sol.x);
  const double scale = 1.0 + std::fabs(recomputed) + std::fabs(sol.objective);
  r.note(&r.cert.objective_residual, std::fabs(recomputed - sol.objective),
         scale, "reported objective %.9g but c'x = %.9g", sol.objective,
         recomputed);
}

void check_integrality(const Problem& problem, const std::vector<double>& x,
                       Residuals& r) {
  const int n = problem.num_variables();
  for (int j = 0; j < n; ++j) {
    if (problem.variable(j).type == VarType::kContinuous) continue;
    const double xj = x[static_cast<std::size_t>(j)];
    const double frac = std::fabs(xj - std::round(xj));
    r.note(&r.cert.integrality_residual, frac, 1.0,
           "integer var %d '%s' = %.9g is fractional", j,
           problem.variable(j).name.c_str(), xj);
  }
}

void check_bnb_stats(const Solution& sol, Residuals& r) {
  const lp::BranchAndBoundStats& s = sol.bnb;
  auto fail = [&r](const char* what, long a, long b) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s (%ld vs %ld)", what, a, b);
    r.cert.violations.emplace_back(buf);
  };
  if (s.nodes_explored < 0 || s.lp_solves < 0 || s.incumbent_updates < 0) {
    fail("negative branch-and-bound counter", s.nodes_explored, s.lp_solves);
  }
  // Every explored node solves at least its own relaxation.
  if (s.lp_solves < s.nodes_explored) {
    fail("lp_solves < nodes_explored", s.lp_solves, s.nodes_explored);
  }
  if (sol.status == SolveStatus::kOptimal && s.nodes_explored > 0 &&
      s.incumbent_updates < 1) {
    fail("optimal MILP with explored nodes but no incumbent update",
         s.incumbent_updates, s.nodes_explored);
  }
}

/// Dual-side checks for an optimal LP solve that carries duals.
/// Everything is derived in the internal minimize sense:
///   c_int = maximize ? -c : c, y_int = maximize ? -duals : duals,
///   d_j = c_int_j - sum_i y_int_i a_ij.
/// Sign conditions (min sense): y <= 0 on <= rows, y >= 0 on >= rows,
/// free on = rows; d_j >= 0 when x_j sits at lower, d_j <= 0 at upper,
/// d_j = 0 strictly inside. Dual objective: y'b + sum_j (d_j > 0 ?
/// d_j l_j : d_j u_j) — a d_j < 0 on an unbounded-above column is itself
/// a dual infeasibility.
void check_dual(const Problem& problem, const Solution& sol, Residuals& r) {
  const bool maximize = problem.objective() == Objective::kMaximize;
  const int n = problem.num_variables();
  const int m = problem.num_constraints();

  std::vector<double> y(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const double yi = sol.duals[static_cast<std::size_t>(i)];
    y[static_cast<std::size_t>(i)] = maximize ? -yi : yi;
  }

  double dual_obj = 0.0;
  // Magnitude of the terms entering each objective, accumulated alongside
  // the sums: on wide-range instances (the fuzzer rescales coefficients by
  // ~1e9) the two objectives are small differences of huge products, and a
  // gap scale built only from the final values would demand absolute
  // precision the arithmetic cannot deliver.
  double dual_obj_mag = 0.0;
  for (int i = 0; i < m; ++i) {
    const lp::Constraint& row = problem.constraint(i);
    const double yi = y[static_cast<std::size_t>(i)];
    const double yscale = 1.0 + std::fabs(yi);
    double sign_violation = 0.0;
    if (row.sense == Sense::kLessEqual) sign_violation = std::max(0.0, yi);
    if (row.sense == Sense::kGreaterEqual) sign_violation = std::max(0.0, -yi);
    r.note(&r.cert.dual_residual, sign_violation, yscale,
           "row %d '%s' dual %.6g has the wrong sign for %s", i,
           row.name.c_str(), yi,
           std::string(sense_token(row.sense)).c_str());

    const RowActivity act = row_activity(row, sol.x);
    if (row.sense != Sense::kEqual) {
      const double slack = std::fabs(row.rhs - act.value);
      const double scale =
          (1.0 + std::fabs(yi)) * (1.0 + std::fabs(row.rhs) + act.abs_sum);
      r.note(&r.cert.complementary_slackness, std::fabs(yi) * slack, scale,
             "row %d '%s': dual %.6g nonzero on slack %.6g", i,
             row.name.c_str(), yi, slack);
    }
    dual_obj += yi * row.rhs;
    dual_obj_mag += std::fabs(yi * row.rhs);
  }

  // Reduced costs, recomputed from scratch. `dmag` tracks each column's
  // accumulation magnitude |c_j| + Σ|y_i·a_ij| alongside, and violations
  // under lp::kDualRoundingFloor of it are this check's own arithmetic,
  // not the solver's.
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> dmag(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double cj = problem.variable(j).objective;
    d[static_cast<std::size_t>(j)] = maximize ? -cj : cj;
    dmag[static_cast<std::size_t>(j)] = std::fabs(cj);
  }
  for (int i = 0; i < m; ++i) {
    const double yi = y[static_cast<std::size_t>(i)];
    if (yi == 0.0) continue;
    for (const lp::Term& t : problem.constraint(i).terms) {
      d[static_cast<std::size_t>(t.var)] -= yi * t.coef;
      dmag[static_cast<std::size_t>(t.var)] += std::fabs(yi * t.coef);
    }
  }

  for (int j = 0; j < n; ++j) {
    const lp::Variable& v = problem.variable(j);
    const double xj = sol.x[static_cast<std::size_t>(j)];
    const double dj = d[static_cast<std::size_t>(j)];
    const double cscale = 1.0 + std::fabs(v.objective);
    const double dj_floor =
        lp::kDualRoundingFloor * dmag[static_cast<std::size_t>(j)];
    const double at_tol = r.feasibility_tol * (1.0 + std::fabs(xj));
    const bool at_lower = xj - v.lower <= at_tol;
    const bool at_upper = std::isfinite(v.upper) && v.upper - xj <= at_tol;
    double violation = 0.0;
    if (at_lower && at_upper) {
      violation = 0.0;  // fixed variable, d free
    } else if (at_lower) {
      violation = std::max(0.0, -dj);
    } else if (at_upper) {
      violation = std::max(0.0, dj);
    } else {
      violation = std::fabs(dj);
    }
    violation = std::max(0.0, violation - dj_floor);
    r.note(&r.cert.complementary_slackness, violation, cscale,
           "var %d '%s': reduced cost %.6g inconsistent with x = %.6g", j,
           v.name.c_str(), dj, xj);

    if (!sol.reduced_costs.empty()) {
      const double reported = sol.reduced_costs[static_cast<std::size_t>(j)];
      const double mine = maximize ? -dj : dj;
      r.note(&r.cert.reduced_cost_residual, std::fabs(mine - reported),
             1.0 + std::fabs(mine) + std::fabs(reported),
             "var %d '%s': reported reduced cost %.6g, recomputed %.6g", j,
             v.name.c_str(), reported, mine);
    }

    // Dual objective contribution from the bound constraints. The bound
    // multipliers are reconstructed from the sign of dj, so a reduced
    // cost inside the dual tolerance band must count as zero here: the
    // complementarity check above already excuses |dj| <= tol·cscale as
    // noise, and branching on the sign of that noise would multiply it
    // by an arbitrarily large opposite bound (a 1e-8 "negative" dj on a
    // variable at lower with a 1e7 upper bound fakes an O(0.1) gap).
    const double dj_eff =
        std::fabs(dj) <= r.dual_tol * cscale + dj_floor ? 0.0 : dj;
    if (dj_eff > 0.0) {
      dual_obj += dj_eff * v.lower;
      dual_obj_mag += std::fabs(dj_eff * v.lower);
    } else if (dj_eff < 0.0 && std::isfinite(v.upper)) {
      dual_obj += dj_eff * v.upper;
      dual_obj_mag += std::fabs(dj_eff * v.upper);
    } else if (dj_eff < 0.0) {
      r.note(&r.cert.dual_residual, -dj_eff, cscale,
             "var %d '%s': negative reduced cost %.6g on an unbounded "
             "column",
             j, v.name.c_str(), dj_eff);
    }
  }

  double primal_obj = 0.0;
  double primal_obj_mag = 0.0;
  for (int j = 0; j < n; ++j) {
    const double cj = problem.variable(j).objective;
    const double term =
        (maximize ? -cj : cj) * sol.x[static_cast<std::size_t>(j)];
    primal_obj += term;
    primal_obj_mag += std::fabs(term);
  }
  r.note(&r.cert.duality_gap, std::fabs(primal_obj - dual_obj),
         1.0 + primal_obj_mag + dual_obj_mag,
         "duality gap: primal %.9g vs dual %.9g", primal_obj, dual_obj);
}

}  // namespace

std::string_view to_string(CertVerdict v) {
  switch (v) {
    case CertVerdict::kVerified: return "verified";
    case CertVerdict::kFeasibleOnly: return "feasible_only";
    case CertVerdict::kFailed: return "failed";
    case CertVerdict::kNotApplicable: return "not_applicable";
  }
  return "unknown";
}

bool context_is_relaxation(std::string_view context) {
  return context == "lp.simplex" || context == "lp.bnb.node";
}

Certificate certify(const Problem& problem, const Solution& solution,
                    const CertifyOptions& options) {
  static Counter& c_runs = default_registry().counter("obs.audit.certified");
  static Counter& c_failed =
      default_registry().counter("obs.audit.cert_failures");
  c_runs.add();

  Residuals r;
  r.feasibility_tol = options.feasibility_tol;
  r.dual_tol = options.dual_tol;
  r.duality_gap_tol = options.duality_gap_tol;
  r.integrality_tol = options.integrality_tol;
  // A relaxation solve legitimately returns fractional values for
  // declared-integer variables; certify it as the LP it actually solved.
  r.cert.milp = problem.has_integer_variables() && !options.relaxation;

  // Verdicts with no usable point carry nothing to check: the solver
  // already told us the model (or the arithmetic) is the problem.
  const bool has_point =
      solution.x.size() ==
      static_cast<std::size_t>(problem.num_variables());
  const bool checkable =
      has_point && (solution.status == SolveStatus::kOptimal ||
                    lp::is_budget_limited(solution.status));
  if (!checkable) {
    r.cert.verdict = CertVerdict::kNotApplicable;
    return r.cert;
  }

  check_primal(problem, solution.x, r);
  check_objective(problem, solution, r);
  if (r.cert.milp) check_integrality(problem, solution.x, r);

  bool optimality_checked = false;
  if (solution.status == SolveStatus::kOptimal) {
    if (r.cert.milp) {
      // MILP duals (when present) come from a fixed-integer LP, not from
      // an optimality proof of the integer program; the stats invariants
      // are the strongest consistency check available.
      check_bnb_stats(solution, r);
      optimality_checked = true;
    } else if (solution.duals.size() ==
               static_cast<std::size_t>(problem.num_constraints())) {
      check_dual(problem, solution, r);
      optimality_checked = true;
    }
  }

  if (!r.cert.violations.empty()) {
    r.cert.verdict = CertVerdict::kFailed;
    c_failed.add();
  } else if (optimality_checked) {
    r.cert.verdict = CertVerdict::kVerified;
  } else {
    r.cert.verdict = CertVerdict::kFeasibleOnly;
  }
  return r.cert;
}

std::vector<BindingConstraint> binding_constraints(const Problem& problem,
                                                   const Solution& solution,
                                                   double tol) {
  std::vector<BindingConstraint> out;
  if (solution.x.size() !=
      static_cast<std::size_t>(problem.num_variables())) {
    return out;
  }
  const bool have_duals =
      solution.duals.size() ==
      static_cast<std::size_t>(problem.num_constraints());
  for (int i = 0; i < problem.num_constraints(); ++i) {
    const lp::Constraint& row = problem.constraint(i);
    const RowActivity act = row_activity(row, solution.x);
    const double scale = 1.0 + std::fabs(row.rhs) + act.abs_sum;
    if (std::fabs(act.value - row.rhs) > tol * scale) continue;
    BindingConstraint b;
    b.row = i;
    b.name = row.name;
    b.sense = std::string(sense_token(row.sense));
    b.activity = act.value;
    b.rhs = row.rhs;
    b.dual = have_duals ? solution.duals[static_cast<std::size_t>(i)] : 0.0;
    out.push_back(std::move(b));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Attribution rows

namespace {
std::mutex g_attr_mu;
std::vector<AttributionRow> g_attr;
}  // namespace

void set_audit_attribution(std::vector<AttributionRow> rows) {
  const std::lock_guard<std::mutex> lock(g_attr_mu);
  g_attr = std::move(rows);
}

void add_audit_attribution(std::string key, std::string note) {
  const std::lock_guard<std::mutex> lock(g_attr_mu);
  g_attr.push_back({std::move(key), std::move(note)});
}

void clear_audit_attribution() {
  const std::lock_guard<std::mutex> lock(g_attr_mu);
  g_attr.clear();
}

std::vector<AttributionRow> audit_attribution() {
  const std::lock_guard<std::mutex> lock(g_attr_mu);
  return g_attr;
}

// ---------------------------------------------------------------------------
// Bundle assembly + JSON round trip

AuditBundle make_audit_bundle(const Problem& problem, const Solution& solution,
                              std::string context, std::string trigger,
                              const CertifyOptions& options) {
  AuditBundle b;
  b.context = std::move(context);
  b.trigger = std::move(trigger);
  b.created_utc = json::utc_now_iso8601();
  b.problem = problem;
  b.solution = solution;
  CertifyOptions opts = options;
  opts.relaxation = opts.relaxation || context_is_relaxation(b.context);
  b.certificate = certify(problem, solution, opts);
  b.binding = binding_constraints(problem, solution, opts.feasibility_tol);
  b.attribution = audit_attribution();
  b.log_tail = Logger::tail();
  return b;
}

namespace {

void write_problem(std::ostream& os, const Problem& p) {
  os << "{\"objective\":\""
     << (p.objective() == Objective::kMaximize ? "max" : "min")
     << "\",\"variables\":[";
  for (int j = 0; j < p.num_variables(); ++j) {
    const lp::Variable& v = p.variable(j);
    if (j > 0) os << ',';
    os << "{\"name\":";
    json::write_string(os, v.name);
    os << ",\"lower\":";
    write_number(os, v.lower);
    if (std::isfinite(v.upper)) {
      os << ",\"upper\":";
      write_number(os, v.upper);
    }
    os << ",\"obj\":";
    write_number(os, v.objective);
    os << ",\"type\":\"" << vartype_token(v.type) << "\"}";
  }
  os << "],\"constraints\":[";
  for (int i = 0; i < p.num_constraints(); ++i) {
    const lp::Constraint& row = p.constraint(i);
    if (i > 0) os << ',';
    os << "{\"name\":";
    json::write_string(os, row.name);
    os << ",\"sense\":\"" << sense_token(row.sense) << "\",\"rhs\":";
    write_number(os, row.rhs);
    os << ",\"terms\":[";
    for (std::size_t t = 0; t < row.terms.size(); ++t) {
      if (t > 0) os << ',';
      os << '[' << row.terms[t].var << ',';
      write_number(os, row.terms[t].coef);
      os << ']';
    }
    os << "]}";
  }
  os << "]}";
}

void write_double_array(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    write_number(os, v[i]);
  }
  os << ']';
}

void write_solution(std::ostream& os, const Solution& s) {
  os << "{\"status\":\"" << lp::to_string(s.status) << "\",\"objective\":";
  write_number(os, s.objective);
  os << ",\"iterations\":" << s.iterations << ",\"x\":";
  write_double_array(os, s.x);
  os << ",\"duals\":";
  write_double_array(os, s.duals);
  os << ",\"reduced_costs\":";
  write_double_array(os, s.reduced_costs);
  os << ",\"bnb\":{\"nodes_explored\":" << s.bnb.nodes_explored
     << ",\"lp_solves\":" << s.bnb.lp_solves
     << ",\"incumbent_updates\":" << s.bnb.incumbent_updates << "}";
  // Warm-start provenance: whether the solve started from a supplied basis,
  // and the final basis itself so a replay can reproduce the warm path.
  os << ",\"warm_started\":" << (s.warm_started ? "true" : "false");
  if (!s.basis.empty()) {
    os << ",\"basis\":";
    json::write_string(os, lp::to_string(s.basis));
  }
  // Recovery trail: present only when the numerical-recovery ladder
  // engaged. One entry per rung attempted, in order — the audit of a
  // failure shows the whole ladder, not just the verdict.
  if (!s.recovery_trail.empty()) {
    os << ",\"recovery_trail\":[";
    for (std::size_t i = 0; i < s.recovery_trail.size(); ++i) {
      const lp::RecoveryStepInfo& step = s.recovery_trail[i];
      if (i > 0) os << ',';
      os << "{\"rung\":";
      json::write_string(os, step.rung);
      os << ",\"status\":\"" << lp::to_string(step.status)
         << "\",\"certified\":" << (step.certified ? "true" : "false")
         << '}';
    }
    os << ']';
  }
  os << '}';
}

void write_certificate(std::ostream& os, const Certificate& c) {
  os << "{\"verdict\":\"" << to_string(c.verdict) << "\",\"milp\":"
     << (c.milp ? "true" : "false");
  const auto field = [&os](const char* name, double v) {
    os << ",\"" << name << "\":";
    write_number(os, v);
  };
  field("primal_residual", c.primal_residual);
  field("bound_residual", c.bound_residual);
  field("dual_residual", c.dual_residual);
  field("reduced_cost_residual", c.reduced_cost_residual);
  field("complementary_slackness", c.complementary_slackness);
  field("duality_gap", c.duality_gap);
  field("integrality_residual", c.integrality_residual);
  field("objective_residual", c.objective_residual);
  os << ",\"violations\":[";
  for (std::size_t i = 0; i < c.violations.size(); ++i) {
    if (i > 0) os << ',';
    json::write_string(os, c.violations[i]);
  }
  os << "]}";
}

}  // namespace

void write_audit_bundle(std::ostream& os, const AuditBundle& b) {
  os << "{\"schema\":\"gridsec.audit_bundle\",\"version\":" << b.version
     << ",\"context\":";
  json::write_string(os, b.context);
  os << ",\"trigger\":";
  json::write_string(os, b.trigger);
  os << ",\"created_utc\":";
  json::write_string(os, b.created_utc);
  os << ",\"problem\":";
  write_problem(os, b.problem);
  os << ",\"solution\":";
  write_solution(os, b.solution);
  os << ",\"certificate\":";
  write_certificate(os, b.certificate);
  os << ",\"binding_constraints\":[";
  for (std::size_t i = 0; i < b.binding.size(); ++i) {
    const BindingConstraint& bc = b.binding[i];
    if (i > 0) os << ',';
    os << "{\"row\":" << bc.row << ",\"name\":";
    json::write_string(os, bc.name);
    os << ",\"sense\":";
    json::write_string(os, bc.sense);
    os << ",\"activity\":";
    write_number(os, bc.activity);
    os << ",\"rhs\":";
    write_number(os, bc.rhs);
    os << ",\"dual\":";
    write_number(os, bc.dual);
    os << '}';
  }
  os << "],\"attribution\":[";
  for (std::size_t i = 0; i < b.attribution.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"key\":";
    json::write_string(os, b.attribution[i].key);
    os << ",\"note\":";
    json::write_string(os, b.attribution[i].note);
    os << '}';
  }
  os << "],\"log_tail\":[";
  for (std::size_t i = 0; i < b.log_tail.size(); ++i) {
    if (i > 0) os << ',';
    json::write_string(os, b.log_tail[i]);
  }
  os << "]}\n";
}

Status write_audit_bundle_file(const std::string& path,
                               const AuditBundle& bundle) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::invalid_argument("audit: cannot open " + path);
  }
  write_audit_bundle(out, bundle);
  out.flush();
  if (!out.good()) {
    return Status::internal("audit: short write to " + path);
  }
  static Counter& c_dumps = default_registry().counter("obs.audit.dumps");
  c_dumps.add();
  return Status::ok();
}

namespace {

Status parse_error(const std::string& what) {
  return Status::invalid_argument("audit_bundle: " + what);
}

Status parse_problem(const json::JsonValue& v, Problem* out) {
  const json::JsonValue* obj = v.find("objective");
  if (obj == nullptr) return parse_error("problem.objective missing");
  *out = Problem(obj->string_or("min") == "max" ? Objective::kMaximize
                                                : Objective::kMinimize);
  const json::JsonValue* vars = v.find("variables");
  if (vars == nullptr || vars->kind != json::JsonValue::Kind::kArray) {
    return parse_error("problem.variables missing");
  }
  for (const json::JsonValue& var : vars->array) {
    const json::JsonValue* type = var.find("type");
    VarType vt = VarType::kContinuous;
    if (type != nullptr && !parse_vartype(type->string_or("cont"), &vt)) {
      return parse_error("unknown variable type");
    }
    const json::JsonValue* upper = var.find("upper");
    const json::JsonValue* name = var.find("name");
    const json::JsonValue* lower = var.find("lower");
    const json::JsonValue* objc = var.find("obj");
    if (name == nullptr || lower == nullptr || objc == nullptr) {
      return parse_error("variable fields missing");
    }
    out->add_variable(name->string_or(""), lower->number_or(0.0),
                      upper != nullptr ? upper->number_or(lp::kInfinity)
                                       : lp::kInfinity,
                      objc->number_or(0.0), vt);
  }
  const json::JsonValue* rows = v.find("constraints");
  if (rows == nullptr || rows->kind != json::JsonValue::Kind::kArray) {
    return parse_error("problem.constraints missing");
  }
  for (const json::JsonValue& row : rows->array) {
    const json::JsonValue* name = row.find("name");
    const json::JsonValue* sense = row.find("sense");
    const json::JsonValue* rhs = row.find("rhs");
    const json::JsonValue* terms = row.find("terms");
    if (name == nullptr || sense == nullptr || rhs == nullptr ||
        terms == nullptr || terms->kind != json::JsonValue::Kind::kArray) {
      return parse_error("constraint fields missing");
    }
    Sense s = Sense::kLessEqual;
    if (!parse_sense(sense->string_or(""), &s)) {
      return parse_error("unknown constraint sense");
    }
    lp::LinearExpr expr;
    for (const json::JsonValue& t : terms->array) {
      if (t.kind != json::JsonValue::Kind::kArray || t.array.size() != 2) {
        return parse_error("malformed constraint term");
      }
      const int var = static_cast<int>(t.array[0].number_or(-1.0));
      if (var < 0 || var >= out->num_variables()) {
        return parse_error("constraint term references unknown variable");
      }
      expr.add(var, t.array[1].number_or(0.0));
    }
    out->add_constraint(name->string_or(""), std::move(expr), s,
                        rhs->number_or(0.0));
  }
  return Status::ok();
}

Status parse_double_array(const json::JsonValue* v, std::vector<double>* out) {
  out->clear();
  if (v == nullptr) return parse_error("array field missing");
  if (v->kind != json::JsonValue::Kind::kArray) {
    return parse_error("expected array");
  }
  out->reserve(v->array.size());
  for (const json::JsonValue& e : v->array) out->push_back(e.number_or(0.0));
  return Status::ok();
}

Status parse_solution(const json::JsonValue& v, Solution* out) {
  const json::JsonValue* status = v.find("status");
  if (status == nullptr ||
      !parse_solve_status(status->string_or(""), &out->status)) {
    return parse_error("solution.status missing or unknown");
  }
  out->objective = v.find("objective") != nullptr
                       ? v.find("objective")->number_or(0.0)
                       : 0.0;
  out->iterations = v.find("iterations") != nullptr
                        ? static_cast<long>(
                              v.find("iterations")->number_or(0.0))
                        : 0;
  Status st = parse_double_array(v.find("x"), &out->x);
  if (!st.is_ok()) return st;
  st = parse_double_array(v.find("duals"), &out->duals);
  if (!st.is_ok()) return st;
  st = parse_double_array(v.find("reduced_costs"), &out->reduced_costs);
  if (!st.is_ok()) return st;
  if (const json::JsonValue* bnb = v.find("bnb"); bnb != nullptr) {
    out->bnb.nodes_explored = static_cast<long>(
        bnb->find("nodes_explored") != nullptr
            ? bnb->find("nodes_explored")->number_or(0.0)
            : 0.0);
    out->bnb.lp_solves = static_cast<long>(
        bnb->find("lp_solves") != nullptr
            ? bnb->find("lp_solves")->number_or(0.0)
            : 0.0);
    out->bnb.incumbent_updates = static_cast<long>(
        bnb->find("incumbent_updates") != nullptr
            ? bnb->find("incumbent_updates")->number_or(0.0)
            : 0.0);
  }
  // Warm-start provenance (absent in pre-warm-start bundles).
  if (const json::JsonValue* ws = v.find("warm_started"); ws != nullptr) {
    out->warm_started =
        ws->kind == json::JsonValue::Kind::kBool && ws->boolean;
  }
  if (const json::JsonValue* basis = v.find("basis"); basis != nullptr) {
    auto parsed = lp::parse_basis(basis->string_or(""));
    if (!parsed.is_ok()) return parsed.status();
    out->basis = std::move(parsed.value());
  }
  // Recovery trail (absent in pre-recovery bundles and on clean solves).
  if (const json::JsonValue* trail = v.find("recovery_trail");
      trail != nullptr) {
    if (trail->kind != json::JsonValue::Kind::kArray) {
      return parse_error("solution.recovery_trail must be an array");
    }
    for (const json::JsonValue& e : trail->array) {
      const json::JsonValue* rung = e.find("rung");
      const json::JsonValue* step_status = e.find("status");
      lp::RecoveryStepInfo step;
      if (rung == nullptr || step_status == nullptr ||
          !parse_solve_status(step_status->string_or(""), &step.status)) {
        return parse_error("malformed recovery_trail entry");
      }
      step.rung = rung->string_or("");
      const json::JsonValue* cert = e.find("certified");
      step.certified = cert != nullptr &&
                       cert->kind == json::JsonValue::Kind::kBool &&
                       cert->boolean;
      out->recovery_trail.push_back(std::move(step));
    }
  }
  return Status::ok();
}

Status parse_certificate(const json::JsonValue& v, Certificate* out) {
  const json::JsonValue* verdict = v.find("verdict");
  if (verdict == nullptr ||
      !parse_verdict(verdict->string_or(""), &out->verdict)) {
    return parse_error("certificate.verdict missing or unknown");
  }
  const json::JsonValue* milp = v.find("milp");
  out->milp = milp != nullptr && milp->kind == json::JsonValue::Kind::kBool &&
              milp->boolean;
  const auto num = [&v](const char* name) {
    const json::JsonValue* f = v.find(name);
    return f != nullptr ? f->number_or(0.0) : 0.0;
  };
  out->primal_residual = num("primal_residual");
  out->bound_residual = num("bound_residual");
  out->dual_residual = num("dual_residual");
  out->reduced_cost_residual = num("reduced_cost_residual");
  out->complementary_slackness = num("complementary_slackness");
  out->duality_gap = num("duality_gap");
  out->integrality_residual = num("integrality_residual");
  out->objective_residual = num("objective_residual");
  if (const json::JsonValue* viol = v.find("violations");
      viol != nullptr && viol->kind == json::JsonValue::Kind::kArray) {
    for (const json::JsonValue& e : viol->array) {
      out->violations.push_back(e.string_or(""));
    }
  }
  return Status::ok();
}

}  // namespace

StatusOr<AuditBundle> parse_audit_bundle(const std::string& text) {
  json::JsonParser parser(text);
  StatusOr<json::JsonValue> parsed = parser.parse();
  if (!parsed.is_ok()) return parsed.status();
  const json::JsonValue& root = parsed.value();

  const json::JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->string_or("") != "gridsec.audit_bundle") {
    return parse_error("not a gridsec.audit_bundle document");
  }
  AuditBundle b;
  const json::JsonValue* version = root.find("version");
  if (version == nullptr) return parse_error("version missing");
  b.version = static_cast<int>(version->number_or(0.0));
  if (b.version != 1) {
    return parse_error("unsupported version " + std::to_string(b.version));
  }
  b.context =
      root.find("context") != nullptr ? root.find("context")->string_or("")
                                      : "";
  b.trigger =
      root.find("trigger") != nullptr ? root.find("trigger")->string_or("")
                                      : "";
  b.created_utc = root.find("created_utc") != nullptr
                      ? root.find("created_utc")->string_or("")
                      : "";
  const json::JsonValue* problem = root.find("problem");
  if (problem == nullptr) return parse_error("problem missing");
  Status st = parse_problem(*problem, &b.problem);
  if (!st.is_ok()) return st;
  const json::JsonValue* solution = root.find("solution");
  if (solution == nullptr) return parse_error("solution missing");
  st = parse_solution(*solution, &b.solution);
  if (!st.is_ok()) return st;
  const json::JsonValue* cert = root.find("certificate");
  if (cert == nullptr) return parse_error("certificate missing");
  st = parse_certificate(*cert, &b.certificate);
  if (!st.is_ok()) return st;

  if (const json::JsonValue* binding = root.find("binding_constraints");
      binding != nullptr && binding->kind == json::JsonValue::Kind::kArray) {
    for (const json::JsonValue& e : binding->array) {
      BindingConstraint bc;
      bc.row = static_cast<int>(
          e.find("row") != nullptr ? e.find("row")->number_or(-1.0) : -1.0);
      bc.name = e.find("name") != nullptr ? e.find("name")->string_or("") : "";
      bc.sense =
          e.find("sense") != nullptr ? e.find("sense")->string_or("") : "";
      bc.activity = e.find("activity") != nullptr
                        ? e.find("activity")->number_or(0.0)
                        : 0.0;
      bc.rhs = e.find("rhs") != nullptr ? e.find("rhs")->number_or(0.0) : 0.0;
      bc.dual =
          e.find("dual") != nullptr ? e.find("dual")->number_or(0.0) : 0.0;
      b.binding.push_back(std::move(bc));
    }
  }
  if (const json::JsonValue* attr = root.find("attribution");
      attr != nullptr && attr->kind == json::JsonValue::Kind::kArray) {
    for (const json::JsonValue& e : attr->array) {
      AttributionRow row;
      row.key = e.find("key") != nullptr ? e.find("key")->string_or("") : "";
      row.note =
          e.find("note") != nullptr ? e.find("note")->string_or("") : "";
      b.attribution.push_back(std::move(row));
    }
  }
  if (const json::JsonValue* tail = root.find("log_tail");
      tail != nullptr && tail->kind == json::JsonValue::Kind::kArray) {
    for (const json::JsonValue& e : tail->array) {
      b.log_tail.push_back(e.string_or(""));
    }
  }
  return b;
}

StatusOr<AuditBundle> read_audit_bundle_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::invalid_argument("audit: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_audit_bundle(buf.str());
}

// ---------------------------------------------------------------------------
// The armed hook

namespace {

struct AuditState {
  std::mutex mu;
  AuditConfig config;
  bool armed = false;
  std::uint64_t dumps = 0;
  std::uint64_t cert_failures = 0;
  std::optional<AuditBundle> first_failure;
  std::optional<AuditBundle> last_capture;
};

AuditState& audit_state() {
  static AuditState* s = new AuditState();  // leaked; see Logger rationale
  return *s;
}

bool failure_status(SolveStatus s) {
  return s == SolveStatus::kNumericalError || s == SolveStatus::kTimeLimit;
}

void audit_solve_hook(const Problem& problem, const Solution& solution,
                      std::string_view context) {
  AuditState& st = audit_state();
  CertifyOptions certify_opts;
  bool capture_all = false;
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    if (!st.armed) return;
    certify_opts = st.config.certify;
    capture_all = st.config.capture_all;
  }
  certify_opts.relaxation =
      certify_opts.relaxation || context_is_relaxation(context);

  const Certificate cert = certify(problem, solution, certify_opts);
  const bool failed_cert = !cert.ok();
  const bool failed_solve = failure_status(solution.status);
  if (!failed_cert && !failed_solve && !capture_all) return;

  if (failed_cert) {
    GRIDSEC_LOG(kError, context)
        .field("verdict", to_string(cert.verdict))
        .field("violations", cert.violations.size())
        .message("solve certificate failed");
  }

  AuditBundle bundle = make_audit_bundle(
      problem, solution, std::string(context),
      (failed_solve || failed_cert) ? "failure" : "capture", certify_opts);

  std::string dump_path;
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    if (!st.armed) return;  // disarmed while certifying
    if (failed_cert) ++st.cert_failures;
    if (capture_all) st.last_capture = bundle;
    if (failed_solve || failed_cert) {
      if (!st.first_failure.has_value()) st.first_failure = bundle;
      if (!st.config.dump_dir.empty() &&
          st.dumps < static_cast<std::uint64_t>(st.config.max_dumps)) {
        dump_path = st.config.dump_dir + "/audit_fail_" +
                    std::to_string(st.dumps) + ".json";
        ++st.dumps;
      }
    }
  }
  if (!dump_path.empty()) {
    const Status written = write_audit_bundle_file(dump_path, bundle);
    if (written.is_ok()) {
      GRIDSEC_LOG(kWarn, "obs.audit")
          .field("path", dump_path)
          .field("status", lp::to_string(solution.status))
          .field("verdict", to_string(bundle.certificate.verdict))
          .message("audit bundle dumped");
    } else {
      GRIDSEC_LOG(kError, "obs.audit")
          .field("path", dump_path)
          .message(written.message());
    }
  }
}

}  // namespace

void arm_audit(AuditConfig config) {
  AuditState& st = audit_state();
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    st.config = std::move(config);
    st.armed = true;
    st.dumps = 0;
    st.cert_failures = 0;
    st.first_failure.reset();
    st.last_capture.reset();
  }
  lp::set_solve_hook(&audit_solve_hook);
}

void disarm_audit() {
  lp::set_solve_hook(nullptr);
  AuditState& st = audit_state();
  const std::lock_guard<std::mutex> lock(st.mu);
  st.armed = false;
}

bool audit_armed() {
  AuditState& st = audit_state();
  const std::lock_guard<std::mutex> lock(st.mu);
  return st.armed;
}

std::uint64_t audit_dump_count() {
  AuditState& st = audit_state();
  const std::lock_guard<std::mutex> lock(st.mu);
  return st.dumps;
}

std::uint64_t audit_cert_failure_count() {
  AuditState& st = audit_state();
  const std::lock_guard<std::mutex> lock(st.mu);
  return st.cert_failures;
}

bool first_audit_failure(AuditBundle* out) {
  AuditState& st = audit_state();
  const std::lock_guard<std::mutex> lock(st.mu);
  if (!st.first_failure.has_value()) return false;
  *out = *st.first_failure;
  return true;
}

bool last_audit_capture(AuditBundle* out) {
  AuditState& st = audit_state();
  const std::lock_guard<std::mutex> lock(st.mu);
  if (!st.last_capture.has_value()) return false;
  *out = *st.last_capture;
  return true;
}

}  // namespace gridsec::obs
