// Linear / mixed-integer program model builder.
//
// A Problem owns variables (with bounds, objective coefficients, optional
// integrality) and linear constraints (sparse rows with a sense and rhs).
// It is solver-agnostic data; SimplexSolver and BranchAndBoundSolver consume
// it. Mirrors the role `linprog`/GLPK model structs played in the paper's
// MATLAB implementation.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gridsec/lp/basis.hpp"
#include "gridsec/util/error.hpp"

namespace gridsec::lp {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kLessEqual, kGreaterEqual, kEqual };
enum class Objective { kMinimize, kMaximize };
enum class VarType { kContinuous, kBinary, kInteger };

/// One term of a linear expression: coefficient * variable.
struct Term {
  int var = -1;
  double coef = 0.0;
};

/// Sparse linear expression, built by accumulation.
class LinearExpr {
 public:
  LinearExpr() = default;

  LinearExpr& add(int var, double coef) {
    if (coef != 0.0) terms_.push_back({var, coef});
    return *this;
  }

  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }
  [[nodiscard]] bool empty() const { return terms_.empty(); }

 private:
  std::vector<Term> terms_;
};

struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  VarType type = VarType::kContinuous;
};

struct Constraint {
  std::string name;
  std::vector<Term> terms;  // duplicate vars are summed at solve time
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

class Problem {
 public:
  explicit Problem(Objective objective = Objective::kMinimize)
      : objective_(objective) {}

  /// Adds a variable; returns its index. Lower bound must be finite
  /// (the solvers anchor nonbasic variables at a finite bound).
  int add_variable(std::string name, double lower, double upper,
                   double objective_coef,
                   VarType type = VarType::kContinuous);

  /// Shorthand for a [0,1] binary decision variable.
  int add_binary(std::string name, double objective_coef);

  /// Adds a constraint; returns its row index.
  int add_constraint(std::string name, LinearExpr expr, Sense sense,
                     double rhs);

  /// Re-points an existing variable's objective coefficient.
  void set_objective_coef(int var, double coef);
  /// Overwrites an existing variable's bounds.
  void set_bounds(int var, double lower, double upper);
  /// Overwrites an existing constraint's rhs.
  void set_rhs(int row, double rhs);
  /// Overwrites the coefficient of one existing term of an existing
  /// constraint. `term` indexes the row's term list in insertion order —
  /// model builders with a deterministic term layout (e.g. the
  /// social-welfare LP's [out-edges... | in-edges...] rows) refresh
  /// coefficients in place through this instead of rebuilding the model.
  /// The new coefficient must be nonzero: a zero would silently change the
  /// sparsity pattern relative to a fresh build.
  void set_constraint_coef(int row, int term, double coef);
  /// Multiplies every coefficient and the rhs of an existing constraint by
  /// `factor` (must be positive so the sense is preserved). The feasible
  /// set is unchanged; only the row's conditioning moves — this is what
  /// the numerical-stress fault kinds and equilibration tests exercise.
  void scale_constraint(int row, double factor);

  [[nodiscard]] Objective objective() const { return objective_; }
  /// Identifies the rows: A, b, the row senses and the column count. A
  /// Problem gets a fresh id on construction and on every change to these
  /// (add_variable, add_constraint, scale_constraint, and set_rhs or
  /// set_constraint_coef when the value changes); copies share the id, and
  /// bounds and costs never touch it. A solver workspace keeps A built
  /// from the last id it saw and reuses it while the id stays the same
  /// (see workspace.hpp).
  [[nodiscard]] std::uint64_t rows_id() const { return rows_id_; }
  [[nodiscard]] int num_variables() const {
    return static_cast<int>(variables_.size());
  }
  [[nodiscard]] int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }
  [[nodiscard]] const Variable& variable(int i) const {
    GRIDSEC_ASSERT(i >= 0 && i < num_variables());
    return variables_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const Constraint& constraint(int i) const {
    GRIDSEC_ASSERT(i >= 0 && i < num_constraints());
    return constraints_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::vector<Variable>& variables() const {
    return variables_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] bool has_integer_variables() const;

  /// Evaluates the objective at a point (no feasibility check).
  [[nodiscard]] double objective_value(
      const std::vector<double>& x) const;

  /// Checks primal feasibility of x within `tol`.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x,
                                 double tol = 1e-6) const;

 private:
  static std::uint64_t fresh_rows_id();

  Objective objective_;
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  std::uint64_t rows_id_ = fresh_rows_id();
};

/// Solver verdicts shared by LP and MILP layers.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,       // wall-clock deadline hit; any returned point is feasible
  kNumericalError,  // NaN/Inf input data or a numerically wedged basis
};

std::string_view to_string(SolveStatus s);

/// Maps a solver verdict to the shared Status vocabulary (kOptimal -> ok).
/// `context` prefixes the message, e.g. "solve_milp".
Status to_status(SolveStatus s, std::string_view context);

/// True for verdicts that still carry a usable feasible point when x is
/// non-empty (budget exhaustion, not model pathology).
[[nodiscard]] constexpr bool is_budget_limited(SolveStatus s) {
  return s == SolveStatus::kIterationLimit || s == SolveStatus::kTimeLimit;
}

/// Largest finite magnitude validate_problem accepts for coefficients,
/// bounds and rhs values. Anything beyond it overflows to Inf in ordinary
/// pivot products (1e30 * 1e30 > DBL_MAX), so such data is rejected at the
/// gate as kInvalidArgument instead of surfacing mid-solve as a
/// kNumericalError.
constexpr double kMaxMagnitude = 1e30;

/// Input validation shared by every solver entry point: rejects NaN/Inf
/// objective coefficients, constraint coefficients and rhs, non-finite or
/// inconsistent bounds (NaN, lower > upper, infinite lower), out-of-range
/// constraint variable indices (all kNumericalError), and finite values
/// beyond kMaxMagnitude (kInvalidArgument) — via Status instead of
/// undefined behaviour inside the pivoting arithmetic. Note the solve
/// entry points collapse any validation failure to
/// SolveStatus::kNumericalError (there is no invalid-input solve status);
/// callers wanting the distinction run validate_problem themselves.
/// It is validate_variables followed by the same checks on the rows.
[[nodiscard]] Status validate_problem(const Problem& problem);

/// The variables part of validate_problem: costs and bounds only. The
/// simplex runs just this part when its workspace still holds A built from
/// the problem's rows_id, whose rows passed validation then.
[[nodiscard]] Status validate_variables(const Problem& problem);

/// Branch-and-bound search counters. Lives here (not milp.hpp) so Solution
/// can carry a copy back to one-shot solve_milp() callers.
struct BranchAndBoundStats {
  long nodes_explored = 0;
  long lp_solves = 0;
  long incumbent_updates = 0;
};

/// One attempt recorded by the numerical-recovery ladder
/// (robust::recovery). Carried as a plain string + status so the lp layer
/// stays ignorant of the robust layer; audit bundles persist the trail
/// verbatim.
struct RecoveryStepInfo {
  std::string rung;  // "warm", "cold", "bland" or "equilibrated"
  SolveStatus status = SolveStatus::kNumericalError;
  // True on the (at most one) entry whose answer the ladder adopted: it
  // passed the ladder's scale-invariant certificate at 1e-9 tolerances.
  bool certified = false;
};

/// A primal (and for LP, dual) solution.
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;          // in the problem's own sense
  std::vector<double> x;           // primal values, per variable
  std::vector<double> duals;       // per constraint (LP only; empty for MILP)
  std::vector<double> reduced_costs;  // per variable (LP only)
  long iterations = 0;             // simplex pivots (LP; 0 for MILP solves)
  /// Filled by BranchAndBoundSolver; all-zero for plain LP solves.
  BranchAndBoundStats bnb;
  /// The optimal basis (LP: final simplex basis; MILP: the incumbent
  /// node's relaxation basis). Feed it back through
  /// SimplexOptions::warm_start to hot-start a sibling solve. Empty when
  /// the solve did not reach optimality.
  Basis basis;
  /// True when this solve started from a warm basis (after any crash
  /// repair) rather than the cold slack/artificial basis. Audit bundles
  /// record this provenance bit.
  bool warm_started = false;
  /// Non-empty iff the numerical-recovery ladder engaged on this solve:
  /// one entry per rung attempted (including the original failed
  /// attempts), in order. The last entry with certified=true produced the
  /// values in this Solution. Flows into audit bundles and the JSONL log
  /// (docs/robustness.md#numerical-recovery).
  std::vector<RecoveryStepInfo> recovery_trail;

  [[nodiscard]] bool optimal() const {
    return status == SolveStatus::kOptimal;
  }
};

/// Post-solve observation hook. The lp layer cannot depend on the audit
/// library (audit links lp), so certification is inverted: audit registers
/// a hook here and every solver entry point reports through it.
///
/// `context` names the solve site ("lp.simplex" for direct LP solves,
/// "lp.bnb" for a finished branch-and-bound solve, "lp.bnb.node" for the
/// relaxation solved at one search node). The problem/solution references
/// are valid only for the duration of the call.
using SolveHook = void (*)(const Problem& problem, const Solution& solution,
                           std::string_view context);

/// Atomically installs `hook` (nullptr uninstalls); returns the previous
/// hook so scoped users can restore it. The hook may be invoked
/// concurrently from many threads and must be internally synchronized.
SolveHook set_solve_hook(SolveHook hook);

/// The currently installed hook (nullptr when none, or when suppressed on
/// the calling thread — see ScopedSolveHookSuppress). Solvers call this
/// once per solve; one relaxed atomic load when no hook is installed.
[[nodiscard]] SolveHook solve_hook();

/// RAII: suppresses the solve hook on the CURRENT THREAD for its lifetime.
/// For harnesses that deliberately drive the solver into numerical
/// trouble — the recovery ladder's diagnostic rung attempts and the
/// stress-numerics fuzzer's probe solves. Reporting those engineered
/// failures to an armed audit hook would count them as product defects;
/// the real (outer) solve still reports normally. Nests safely.
class ScopedSolveHookSuppress {
 public:
  ScopedSolveHookSuppress();
  ~ScopedSolveHookSuppress();
  ScopedSolveHookSuppress(const ScopedSolveHookSuppress&) = delete;
  ScopedSolveHookSuppress& operator=(const ScopedSolveHookSuppress&) = delete;
};

/// Current nesting depth of ScopedSolveHookSuppress on the calling thread
/// (0 = not suppressed). Exposed so tests can assert scopes balance.
[[nodiscard]] int solve_hook_suppression_depth();

struct SimplexOptions;  // simplex.hpp; the hook only needs a reference

/// Numerical-recovery hook — the same dependency inversion as SolveHook:
/// robust::recovery registers here, and SimplexSolver invokes the hook
/// when a solve still ends in kNumericalError after its built-in
/// warm→cold retry. The hook may run its escalation ladder (re-entrant
/// solves must be guarded by the hook itself), overwrite *solution with a
/// certified answer, and return true; returning false leaves the failed
/// solution in place (the hook may still have attached a recovery_trail
/// documenting the failed attempts). See robust/recovery.hpp.
using RecoveryHook = bool (*)(const Problem& problem,
                              const SimplexOptions& options,
                              Solution* solution);

/// Atomically installs `hook` (nullptr uninstalls); returns the previous
/// hook. May be invoked concurrently from many threads.
RecoveryHook set_recovery_hook(RecoveryHook hook);

/// The currently installed recovery hook (nullptr when none).
[[nodiscard]] RecoveryHook recovery_hook();

}  // namespace gridsec::lp
