#include "gridsec/lp/problem.hpp"

#include <atomic>
#include <bit>
#include <cmath>

namespace gridsec::lp {

namespace {
std::atomic<SolveHook> g_solve_hook{nullptr};
std::atomic<RecoveryHook> g_recovery_hook{nullptr};
thread_local int g_solve_hook_suppressed = 0;

/// Equal down to the sign of zero: a value that compares equal but differs
/// in its bits would not rebuild the same A.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

std::uint64_t Problem::fresh_rows_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

SolveHook set_solve_hook(SolveHook hook) {
  return g_solve_hook.exchange(hook, std::memory_order_acq_rel);
}

SolveHook solve_hook() {
  if (g_solve_hook_suppressed > 0) return nullptr;
  return g_solve_hook.load(std::memory_order_acquire);
}

ScopedSolveHookSuppress::ScopedSolveHookSuppress() {
  ++g_solve_hook_suppressed;
}

ScopedSolveHookSuppress::~ScopedSolveHookSuppress() {
  --g_solve_hook_suppressed;
}

int solve_hook_suppression_depth() { return g_solve_hook_suppressed; }

RecoveryHook set_recovery_hook(RecoveryHook hook) {
  return g_recovery_hook.exchange(hook, std::memory_order_acq_rel);
}

RecoveryHook recovery_hook() {
  return g_recovery_hook.load(std::memory_order_acquire);
}

int Problem::add_variable(std::string name, double lower, double upper,
                          double objective_coef, VarType type) {
  GRIDSEC_ASSERT_MSG(std::isfinite(lower), "lower bound must be finite");
  GRIDSEC_ASSERT_MSG(lower <= upper, "lower > upper");
  if (type == VarType::kBinary) {
    GRIDSEC_ASSERT_MSG(lower >= 0.0 && upper <= 1.0, "binary bounds");
  }
  variables_.push_back(
      {std::move(name), lower, upper, objective_coef, type});
  rows_id_ = fresh_rows_id();
  return num_variables() - 1;
}

int Problem::add_binary(std::string name, double objective_coef) {
  return add_variable(std::move(name), 0.0, 1.0, objective_coef,
                      VarType::kBinary);
}

int Problem::add_constraint(std::string name, LinearExpr expr, Sense sense,
                            double rhs) {
  for (const Term& t : expr.terms()) {
    GRIDSEC_ASSERT_MSG(t.var >= 0 && t.var < num_variables(),
                       "constraint references unknown variable");
  }
  constraints_.push_back({std::move(name), expr.terms(), sense, rhs});
  rows_id_ = fresh_rows_id();
  return num_constraints() - 1;
}

void Problem::set_objective_coef(int var, double coef) {
  GRIDSEC_ASSERT(var >= 0 && var < num_variables());
  variables_[static_cast<std::size_t>(var)].objective = coef;
}

void Problem::set_bounds(int var, double lower, double upper) {
  GRIDSEC_ASSERT(var >= 0 && var < num_variables());
  GRIDSEC_ASSERT_MSG(std::isfinite(lower) && lower <= upper, "bad bounds");
  auto& v = variables_[static_cast<std::size_t>(var)];
  v.lower = lower;
  v.upper = upper;
}

void Problem::set_rhs(int row, double rhs) {
  GRIDSEC_ASSERT(row >= 0 && row < num_constraints());
  double& old = constraints_[static_cast<std::size_t>(row)].rhs;
  if (same_bits(old, rhs)) return;
  old = rhs;
  rows_id_ = fresh_rows_id();
}

void Problem::set_constraint_coef(int row, int term, double coef) {
  GRIDSEC_ASSERT(row >= 0 && row < num_constraints());
  auto& con = constraints_[static_cast<std::size_t>(row)];
  GRIDSEC_ASSERT(term >= 0 &&
                 term < static_cast<int>(con.terms.size()));
  GRIDSEC_ASSERT_MSG(coef != 0.0, "zero coef would change sparsity");
  double& old = con.terms[static_cast<std::size_t>(term)].coef;
  if (same_bits(old, coef)) return;
  old = coef;
  rows_id_ = fresh_rows_id();
}

void Problem::scale_constraint(int row, double factor) {
  GRIDSEC_ASSERT(row >= 0 && row < num_constraints());
  GRIDSEC_ASSERT_MSG(factor > 0.0 && std::isfinite(factor),
                     "scale factor must be positive and finite");
  auto& con = constraints_[static_cast<std::size_t>(row)];
  for (Term& t : con.terms) t.coef *= factor;
  con.rhs *= factor;
  rows_id_ = fresh_rows_id();
}

bool Problem::has_integer_variables() const {
  for (const auto& v : variables_) {
    if (v.type != VarType::kContinuous) return true;
  }
  return false;
}

double Problem::objective_value(const std::vector<double>& x) const {
  GRIDSEC_ASSERT(x.size() == variables_.size());
  double obj = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    obj += variables_[i].objective * x[i];
  }
  return obj;
}

bool Problem::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (x[i] < variables_[i].lower - tol) return false;
    if (x[i] > variables_[i].upper + tol) return false;
    if (variables_[i].type != VarType::kContinuous &&
        std::fabs(x[i] - std::round(x[i])) > tol) {
      return false;
    }
  }
  for (const auto& con : constraints_) {
    double lhs = 0.0;
    for (const Term& t : con.terms) {
      lhs += t.coef * x[static_cast<std::size_t>(t.var)];
    }
    switch (con.sense) {
      case Sense::kLessEqual:
        if (lhs > con.rhs + tol) return false;
        break;
      case Sense::kGreaterEqual:
        if (lhs < con.rhs - tol) return false;
        break;
      case Sense::kEqual:
        if (std::fabs(lhs - con.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

std::string_view to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal:
      return "OPTIMAL";
    case SolveStatus::kInfeasible:
      return "INFEASIBLE";
    case SolveStatus::kUnbounded:
      return "UNBOUNDED";
    case SolveStatus::kIterationLimit:
      return "ITERATION_LIMIT";
    case SolveStatus::kTimeLimit:
      return "TIME_LIMIT";
    case SolveStatus::kNumericalError:
      return "NUMERICAL_ERROR";
  }
  return "UNKNOWN";
}

Status to_status(SolveStatus s, std::string_view context) {
  std::string msg(context);
  msg += ": ";
  msg += to_string(s);
  switch (s) {
    case SolveStatus::kOptimal:
      return Status::ok();
    case SolveStatus::kInfeasible:
      return Status::infeasible(std::move(msg));
    case SolveStatus::kUnbounded:
      return Status::unbounded(std::move(msg));
    case SolveStatus::kIterationLimit:
      return Status::iteration_limit(std::move(msg));
    case SolveStatus::kTimeLimit:
      return Status::time_limit(std::move(msg));
    case SolveStatus::kNumericalError:
      return Status::numerical_error(std::move(msg));
  }
  return Status::internal(std::move(msg));
}

namespace {

Status bad(const std::string& what, int index) {
  return Status::numerical_error("validate_problem: non-finite " + what +
                                 " at index " + std::to_string(index));
}

// Finite but beyond kMaxMagnitude: pivot products overflow to Inf
// mid-solve, so such data is a modeling error, not a numerical accident.
Status huge(const std::string& what, int index) {
  return Status::invalid_argument("validate_problem: " + what +
                                  " at index " + std::to_string(index) +
                                  " exceeds the magnitude cap 1e30");
}

bool too_big(double v) {
  return std::isfinite(v) && std::fabs(v) > kMaxMagnitude;
}

}  // namespace

Status validate_variables(const Problem& problem) {
  for (int j = 0; j < problem.num_variables(); ++j) {
    const Variable& v = problem.variable(j);
    if (std::isnan(v.objective) || std::isinf(v.objective)) {
      return bad("objective coefficient", j);
    }
    if (too_big(v.objective)) return huge("objective coefficient", j);
    // Bounds: lower must be finite (solvers anchor nonbasic columns there),
    // upper may be +inf but never NaN or -inf, and the interval must be
    // non-empty. NaN comparisons are false, so test each way explicitly.
    if (!std::isfinite(v.lower) || std::isnan(v.upper) ||
        v.upper == -kInfinity) {
      return bad("variable bound", j);
    }
    if (too_big(v.lower) || too_big(v.upper)) {
      return huge("variable bound", j);
    }
    if (v.lower > v.upper) {
      return Status::numerical_error(
          "validate_problem: inconsistent bounds (lower > upper) at index " +
          std::to_string(j));
    }
  }
  return Status::ok();
}

Status validate_problem(const Problem& problem) {
  if (Status vars = validate_variables(problem); !vars.is_ok()) return vars;
  for (int i = 0; i < problem.num_constraints(); ++i) {
    const Constraint& con = problem.constraint(i);
    if (!std::isfinite(con.rhs)) return bad("constraint rhs", i);
    if (too_big(con.rhs)) return huge("constraint rhs", i);
    for (const Term& t : con.terms) {
      if (t.var < 0 || t.var >= problem.num_variables()) {
        return Status::numerical_error(
            "validate_problem: constraint " + std::to_string(i) +
            " references unknown variable " + std::to_string(t.var));
      }
      if (!std::isfinite(t.coef)) return bad("constraint coefficient", i);
      if (too_big(t.coef)) return huge("constraint coefficient", i);
    }
  }
  return Status::ok();
}

}  // namespace gridsec::lp
