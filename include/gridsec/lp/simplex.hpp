// Two-phase primal simplex for LPs with bounded variables, with a bounded
// dual simplex for warm re-solves.
//
// Scope: the small sparse LPs produced by gridsec's 12-hub energy graphs
// (tens of rows and columns, a few nonzeros per column; A is stored by
// column). The basis matrix is LU-factorized once and kept
// current across pivots with product-form eta updates (BasisFactorization;
// periodic refactorization on an update-count or pivot-accuracy trigger),
// Bland's rule kicks in after a pivot budget to guarantee termination, and
// variables may be nonbasic at either bound (capacities live in the bounds,
// not in rows). Solves can warm-start from a previous Solution::basis:
// an independent basis is crash-selected from it and dual simplex pivots
// restore primal feasibility before phase 2; a basis the dual simplex
// cannot finish from falls back to a cold solve, never fatal (see
// docs/solvers.md, "Warm starts & basis factorization").
//
// Duals: Solution::duals[i] is the shadow price of constraint i — the rate
// of change of the optimal objective (in the problem's own sense) per unit
// increase of the rhs, valid while the optimal basis persists. These are the
// locational marginal prices when applied to the social-welfare LP.
#pragma once

#include "gridsec/lp/problem.hpp"

namespace gridsec::lp {

class SolverWorkspace;

/// Rounding floor of a recomputed reduced cost c_j − Σ_i y_i·a_ij, as a
/// fraction of the dot product's magnitude Σ_i |y_i·a_ij| (~450·eps). The
/// sum rounds at eps per term, so on a column whose duals reach 1e11 even
/// exact duals leave an O(1e-5) remainder; a residual under this floor is
/// the check's own arithmetic, not the solver's. The simplex extraction
/// gate and the solve certificate (obs::certify) both use it.
inline constexpr double kDualRoundingFloor = 1e-13;

struct SimplexOptions {
  /// Price by Bland's rule from the first pivot (the recovery ladder's
  /// deterministic-termination rung and the fuzz's cold oracle). Without
  /// it pricing takes the steepest violation and switches to Bland's rule
  /// after max(200, 20·(m+n)) pivots.
  bool bland = false;
  /// Wall-clock deadline in milliseconds, checked once per pivot (a pivot
  /// refactorizes the basis, so the clock read is noise). 0 = no limit.
  /// Expiry returns SolveStatus::kTimeLimit.
  double time_limit_ms = 0.0;
  /// Consecutive degenerate pivots tolerated before the pricing rule is
  /// forced to Bland's rule for the rest of the solve (cycling detection;
  /// Bland guarantees termination). 0 = automatic (scales with size).
  long cycle_streak_limit = 0;
  /// Warm-start basis, typically a previous Solution::basis from a
  /// structurally similar model. Empty (the default) = cold start. The
  /// row count must match the problem's; the variable statuses may cover
  /// a prefix of the columns (extra variables start at their lower
  /// bound). A stale or rank-deficient basis is crash-selected into an
  /// independent one, and any primal infeasibility is removed by dual
  /// simplex pivots (counter lp.simplex.basis_repairs counts the
  /// demotions, fills, bound flips and cost shifts this takes); a basis
  /// the dual simplex cannot finish from is dropped for a cold solve
  /// (lp.simplex.warm_start_rejects). The answer is always
  /// certificate-identical to a cold solve. Ignored when
  /// set_warm_start_enabled(false) is in effect.
  Basis warm_start;
  /// Workspace carrying all per-solve solver state (see workspace.hpp).
  /// nullptr (the default) uses the calling thread's workspace — the right
  /// choice for every ordinary solve. Set it only to keep a problem's
  /// resident A and warm checkpoint apart from the thread's.
  SolverWorkspace* workspace = nullptr;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the continuous relaxation of `problem` (integrality markers are
  /// ignored). Never throws for solver outcomes; the status field reports
  /// infeasible/unbounded/iteration-limit/time-limit/numerical-error.
  /// NaN/Inf coefficients, inconsistent bounds, and finite magnitudes past
  /// lp::kMaxMagnitude are rejected up front (see validate_problem) instead
  /// of corrupting pivots. When a solve on valid input still ends in
  /// kNumericalError and robust::install_recovery() is in effect, the
  /// recovery ladder runs before the verdict is returned — a recovered
  /// Solution carries the rung-by-rung trail in recovery_trail.
  [[nodiscard]] Solution solve(const Problem& problem) const;

 private:
  SimplexOptions options_;
};

/// Convenience wrapper: one-shot solve with default options.
Solution solve_lp(const Problem& problem);

/// One-shot solve with explicit options. Equivalent to
/// SimplexSolver(options).solve(problem) minus the options/basis copy —
/// the form hot loops (B&B nodes, recovery rungs, model re-solves) use.
Solution solve_lp(const Problem& problem, const SimplexOptions& options);

/// The same solve into the caller's `out`: every field is reset first and
/// its vectors keep their capacity, so a loop that re-solves into one
/// Solution stops allocating them once they have grown. Every other solve
/// entry point returns what this writes. A non-optimal result has empty
/// x, duals, reduced_costs and basis.
void solve_lp(const Problem& problem, const SimplexOptions& options,
              Solution& out);

/// A closed interval; ±infinity for unbounded sides.
struct SensitivityRange {
  double lo = -kInfinity;
  double hi = kInfinity;
};

/// Post-optimal sensitivity (ranging) information.
struct SensitivityReport {
  Solution solution;
  /// Per variable: the interval its objective coefficient may move through
  /// (other data fixed) while the current optimal basis stays optimal —
  /// within it, the optimal point is unchanged. In the problem's own sense.
  std::vector<SensitivityRange> objective_range;
  /// Per constraint: the interval its rhs may move through while the
  /// current basis stays feasible — within it, the objective changes
  /// linearly at the rate Solution::duals[i].
  std::vector<SensitivityRange> rhs_range;
};

/// Solves `problem` and computes classic simplex ranging from the final
/// basis. When the solve is not optimal, the ranges are empty and
/// report.solution carries the failure status. Degenerate optima yield
/// conservative (possibly single-point) ranges.
SensitivityReport analyze_sensitivity(const Problem& problem,
                                      const SimplexOptions& options = {});

}  // namespace gridsec::lp
