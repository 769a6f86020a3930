#include "gridsec/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "gridsec/lp/basis.hpp"
#include "gridsec/lp/workspace.hpp"
#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"
#include "gridsec/util/deadline.hpp"
#include "workspace_internal.hpp"

namespace gridsec::lp {
namespace {

// The working Tableau and all per-solve scratch live in a SolverWorkspace
// (see workspace.hpp / workspace_internal.hpp): capacity-reused vectors,
// re-bound per solve, zero steady-state heap traffic.
using detail::Tableau;
using detail::VarState;
using detail::WorkspaceImpl;
using detail::WorkspaceLease;

/// Bound and constraint violation tolerance.
constexpr double kFeasibilityTol = 1e-7;
/// Reduced-cost threshold: a column prices as attractive only past it.
constexpr double kOptimalityTol = 1e-9;

struct IterationOutcome {
  SolveStatus status = SolveStatus::kOptimal;
  long iterations = 0;
  long degenerate_pivots = 0;
  long bound_flips = 0;
  long bland_pivots = 0;      // pivots taken under Bland's rule
  bool cycle_fallback = false;  // cycling detected; Bland forced early
  long refactorizations = 0;  // LU rebuilds of the basis matrix
  long eta_updates = 0;       // product-form pivot updates applied
  long refine_steps = 0;      // iterative-refinement corrections applied
  /// Refactorizations forced by a stability signal (refused or
  /// growth-flagged eta pivot, or a drift repair that moved the basic
  /// values) rather than the periodic chain-length schedule.
  long residual_refactorizations = 0;
};

/// Computes x_B = B^{-1} (b - A_N x_N) into `out` (size m) via the
/// factorization's refined ftran (residual-checked iterative refinement)
/// without writing into the tableau. Correction steps accumulate into
/// refine_steps.
void compute_basic_values(const Tableau& t, const BasisFactorization& factor,
                          std::span<double> out, long& refine_steps) {
  for (int i = 0; i < t.m; ++i) {
    out[static_cast<std::size_t>(i)] = t.b[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < t.n_total; ++j) {
    if (t.state[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
    const double xj = t.x[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    for (const ColumnEntry& e : t.a.column(j)) {
      out[static_cast<std::size_t>(e.row)] -= e.val * xj;
    }
  }
  refine_steps += factor.ftran_refined(out);
}

/// Recomputes the values of the basic variables from the nonbasic point
/// with iterative refinement, so ill-conditioned bases still yield
/// certificate-grade residuals. `factor` must be current for t's basis;
/// `xb` is m-sized scratch.
void recompute_basics(Tableau& t, const BasisFactorization& factor,
                      std::span<double> xb, long& refine_steps) {
  compute_basic_values(t, factor, xb, refine_steps);
  for (int i = 0; i < t.m; ++i) {
    const auto is = static_cast<std::size_t>(i);
    t.x[static_cast<std::size_t>(t.basis[is])] = xb[is];
  }
}

/// Reduced cost c_j − yᵀA_j of column j (internal min sense).
double reduced_cost(const Tableau& t, std::span<const double> y, int j) {
  double dj = t.cost[static_cast<std::size_t>(j)];
  for (const ColumnEntry& e : t.a.column(j)) {
    dj -= y[static_cast<std::size_t>(e.row)] * e.val;
  }
  return dj;
}

/// Columns whose bound range is narrower than this are fixed: pricing
/// never lets them enter the basis.
constexpr double kFixedWidth = 1e-11;

bool is_fixed(const Tableau& t, std::size_t js) {
  return t.upper[js] - t.lower[js] < kFixedWidth;
}

/// Direction in which nonbasic, non-fixed column js would enter at reduced
/// cost dj: +1 rising from its lower bound when dj < −dtol, −1 falling from
/// its upper bound when dj > dtol, 0 when neither improves the objective.
/// The pivot loop's pricing, the dual simplex's dual-feasible start and the
/// post-solve sweep all decide with this one rule.
int entering_direction(const Tableau& t, std::size_t js, double dj,
                       double dtol) {
  if (t.state[js] == VarState::kAtLower) return dj < -dtol ? +1 : 0;
  return dj > dtol ? -1 : 0;
}

/// Solves B^T y = c_B for the simplex multipliers via btran, into `y`.
void compute_multipliers(const Tableau& t, const BasisFactorization& factor,
                         std::span<double> y) {
  for (int i = 0; i < t.m; ++i) {
    y[static_cast<std::size_t>(i)] =
        t.cost[static_cast<std::size_t>(t.basis[static_cast<std::size_t>(i)])];
  }
  factor.btran(y);
}

/// Keeps ws.lu() current after a pivot replaced the basic column in
/// `row` (t.basis already names the entering column; `w` is its ftran
/// image against the old basis): a product-form update, with a
/// refactorization into ws.factor when the eta chain is long, the update
/// pivot is unsafe, or the accumulated pivot growth says the chain
/// amplifies rounding. Returns false when the rebuilt basis is singular.
bool update_factorization(Tableau& t, WorkspaceImpl& ws, int row,
                          std::span<const double> w, IterationOutcome& out) {
  BasisFactorization& factor = ws.lu();
  const bool chain_full =
      factor.eta_count() + 1 >= BasisFactorization::kRefactorInterval;
  bool need_refactor = chain_full;
  bool stability_event = false;
  if (!need_refactor) {
    if (!factor.update(row, w)) {
      need_refactor = true;  // refused: pivot too small to trust
      stability_event = true;
    } else if (factor.pivot_growth() >
               BasisFactorization::kGrowthRefactorLimit) {
      need_refactor = true;  // accepted but growth-flagged: rebuild early
      stability_event = true;
    } else {
      ++out.eta_updates;
    }
  }
  if (need_refactor) {
    ++out.refactorizations;
    if (!ws.refactorize()) return false;
    // Drift repair: the pivot loops track x incrementally, so a rebuilt
    // factorization is the cheap moment to compare against the exact
    // x_B = B^{-1}(b - A_N x_N). Adopt the recomputed values only when
    // they moved measurably — clean solves keep bit-identical paths.
    compute_basic_values(t, ws.factor, ws.xb, out.refine_steps);
    const std::span<const double> xb = ws.xb;
    constexpr double kDriftRepairTol = 1e-9;
    double drift = 0.0;
    for (int i = 0; i < t.m; ++i) {
      const auto is = static_cast<std::size_t>(i);
      const auto bcol = static_cast<std::size_t>(t.basis[is]);
      drift = std::max(drift, std::fabs(xb[is] - t.x[bcol]) /
                                  (1.0 + std::fabs(xb[is])));
    }
    if (drift > kDriftRepairTol) {
      for (int i = 0; i < t.m; ++i) {
        const auto is = static_cast<std::size_t>(i);
        t.x[static_cast<std::size_t>(t.basis[is])] = xb[is];
      }
      stability_event = true;
    }
    if (stability_event) ++out.residual_refactorizations;
  }
  return true;
}

/// Runs primal simplex pivots on `t` (= ws.t) with the current cost vector
/// until optimal / unbounded / iteration budget exhausted. ws.lu() must
/// be current for t's basis on entry and is kept current across pivots
/// by update_factorization. Pricing/direction vectors live in the
/// workspace — zero heap traffic per pivot.
IterationOutcome iterate(Tableau& t, WorkspaceImpl& ws,
                         const SimplexOptions& opt,
                         long max_iters, long bland_after,
                         const Deadline& deadline) {
  IterationOutcome out;
  const double dtol = kOptimalityTol;
  const double eps = 1e-11;

  // Cycling detection: a run of degenerate pivots this long under the
  // steepest-violation rule is treated as (near-)cycling and the pricing
  // falls back to Bland's rule, which provably terminates.
  long cycle_limit = opt.cycle_streak_limit;
  if (cycle_limit <= 0) cycle_limit = std::max(20L, 2L * (t.m + t.n_total));
  long degen_streak = 0;
  bool forced_bland = false;

  for (long iter = 0; iter < max_iters; ++iter) {
    if (deadline.expired()) {
      out.status = SolveStatus::kTimeLimit;
      out.iterations = iter;
      return out;
    }
    const bool bland = forced_bland || iter >= bland_after;
    compute_multipliers(t, ws.lu(), ws.y);
    const std::span<const double> y = ws.y;

    // Pricing: pick an entering column.
    int entering = -1;
    double best_violation = dtol;
    int enter_dir = 0;  // +1 entering rises from lower, -1 falls from upper
    for (int j = 0; j < t.n_total; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (t.state[js] == VarState::kBasic || is_fixed(t, js)) continue;
      const double dj = reduced_cost(t, y, j);
      const int dir = entering_direction(t, js, dj, dtol);
      if (dir == 0) continue;
      const double violation = dir > 0 ? -dj : dj;
      if (bland) {
        entering = j;
        enter_dir = dir;
        break;  // first eligible index (Bland)
      }
      if (violation > best_violation) {
        best_violation = violation;
        entering = j;
        enter_dir = dir;
      }
    }
    if (entering < 0) {
      out.status = SolveStatus::kOptimal;
      out.iterations = iter;
      return out;
    }

    // Direction of basic variables: w = B^{-1} A_q; moving the entering
    // variable by t changes x_B by -enter_dir * w * t.
    const std::span<double> w = ws.w;
    std::fill(w.begin(), w.end(), 0.0);
    for (const ColumnEntry& e : t.a.column(entering)) {
      w[static_cast<std::size_t>(e.row)] = e.val;
    }
    ws.lu().ftran(w);

    const auto eq = static_cast<std::size_t>(entering);
    double t_limit = t.upper[eq] - t.lower[eq];  // bound-flip distance
    int leaving_row = -1;     // -1 = bound flip
    int leaving_bound = 0;    // -1 lower, +1 upper
    for (int i = 0; i < t.m; ++i) {
      const auto is = static_cast<std::size_t>(i);
      const double delta = -enter_dir * w[is];
      const auto bcol = static_cast<std::size_t>(t.basis[is]);
      double limit;
      int hit;
      if (delta < -eps) {
        limit = (t.x[bcol] - t.lower[bcol]) / (-delta);
        hit = -1;
      } else if (delta > eps) {
        if (!std::isfinite(t.upper[bcol])) continue;
        limit = (t.upper[bcol] - t.x[bcol]) / delta;
        hit = +1;
      } else {
        continue;
      }
      if (limit < 0.0) limit = 0.0;  // degenerate clip
      if (limit < t_limit - eps) {
        t_limit = limit;
        leaving_row = i;
        leaving_bound = hit;
      } else if (leaving_row >= 0 && limit < t_limit + eps) {
        // Tie: under Bland prefer the smallest basic index (termination);
        // otherwise the largest pivot magnitude (stability).
        const auto ls = static_cast<std::size_t>(leaving_row);
        const bool take = bland ? t.basis[is] < t.basis[ls]
                                : std::fabs(w[is]) > std::fabs(w[ls]);
        if (take) {
          t_limit = std::min(t_limit, limit);
          leaving_row = i;
          leaving_bound = hit;
        }
      }
    }

    if (!std::isfinite(t_limit)) {
      out.status = SolveStatus::kUnbounded;
      out.iterations = iter;
      return out;
    }

    // Apply the step.
    for (int i = 0; i < t.m; ++i) {
      const auto is = static_cast<std::size_t>(i);
      const auto bcol = static_cast<std::size_t>(t.basis[is]);
      t.x[bcol] += -enter_dir * w[is] * t_limit;
    }
    t.x[eq] += enter_dir * t_limit;

    const bool degenerate = t_limit <= eps;
    if (degenerate) ++out.degenerate_pivots;
    if (bland) ++out.bland_pivots;
    degen_streak = degenerate ? degen_streak + 1 : 0;
    if (!forced_bland && degen_streak >= cycle_limit) {
      forced_bland = true;  // takes effect from the next pivot on
      out.cycle_fallback = true;
    }

    if (leaving_row < 0) {
      // Bound flip: entering variable traverses to its opposite bound.
      t.state[eq] = enter_dir > 0 ? VarState::kAtUpper : VarState::kAtLower;
      t.x[eq] = enter_dir > 0 ? t.upper[eq] : t.lower[eq];
      ++out.bound_flips;
      continue;
    }

    const auto lrow = static_cast<std::size_t>(leaving_row);
    const auto lcol = static_cast<std::size_t>(t.basis[lrow]);
    t.state[lcol] =
        leaving_bound < 0 ? VarState::kAtLower : VarState::kAtUpper;
    t.x[lcol] = leaving_bound < 0 ? t.lower[lcol] : t.upper[lcol];
    t.basis[lrow] = entering;
    t.state[eq] = VarState::kBasic;
    if (!update_factorization(t, ws, leaving_row, w, out)) {
      out.status = SolveStatus::kNumericalError;
      out.iterations = iter + 1;
      return out;
    }
  }
  out.status = SolveStatus::kIterationLimit;
  out.iterations = max_iters;
  return out;
}

/// Flushes per-solve pivot totals into the default metric registry on every
/// exit path. Registry handles are resolved once per process (function-local
/// statics), so the steady-state cost is a handful of relaxed atomic adds
/// per *solve* — never per iteration. A zero delta is skipped: it leaves the
/// counter as it is, and each add is a locked read-modify-write on a line
/// every solving thread shares.
struct SimplexMetricsGuard {
  long pivots = 0;
  long degenerate = 0;
  long bound_flips = 0;
  long bland = 0;
  long cycle_fallbacks = 0;
  long refactorizations = 0;
  long eta_updates = 0;
  long basis_repairs = 0;
  long refine_steps = 0;
  long residual_refactorizations = 0;
  bool warm_started = false;
  bool warm_rejected = false;
  SolveStatus status = SolveStatus::kOptimal;

  ~SimplexMetricsGuard() {
    auto& reg = obs::default_registry();
    static obs::Counter& solves = reg.counter("lp.simplex.solves");
    static obs::Counter& c_pivots = reg.counter("lp.simplex.pivots");
    static obs::Counter& c_degen =
        reg.counter("lp.simplex.degenerate_pivots");
    static obs::Counter& c_flips = reg.counter("lp.simplex.bound_flips");
    static obs::Counter& c_bland = reg.counter("lp.simplex.bland_pivots");
    static obs::Counter& c_failed = reg.counter("lp.simplex.non_optimal");
    static obs::Counter& c_cycles = reg.counter("lp.simplex.cycle_fallbacks");
    static obs::Counter& c_timeouts = reg.counter("lp.simplex.time_limits");
    static obs::Counter& c_numerical =
        reg.counter("lp.simplex.numerical_errors");
    static obs::Counter& c_refactor =
        reg.counter("lp.simplex.refactorizations");
    static obs::Counter& c_etas = reg.counter("lp.simplex.eta_updates");
    static obs::Counter& c_warm = reg.counter("lp.simplex.warm_starts");
    static obs::Counter& c_repairs = reg.counter("lp.simplex.basis_repairs");
    static obs::Counter& c_warm_rejects =
        reg.counter("lp.simplex.warm_start_rejects");
    static obs::Counter& c_refines = reg.counter("lp.basis.refine_steps");
    static obs::Counter& c_stability =
        reg.counter("lp.basis.residual_refactorizations");
    const auto add_nonzero = [](obs::Counter& c, long delta) {
      if (delta != 0) c.add(delta);
    };
    solves.add();
    add_nonzero(c_pivots, pivots);
    add_nonzero(c_degen, degenerate);
    add_nonzero(c_flips, bound_flips);
    add_nonzero(c_bland, bland);
    add_nonzero(c_cycles, cycle_fallbacks);
    add_nonzero(c_refactor, refactorizations);
    add_nonzero(c_etas, eta_updates);
    add_nonzero(c_repairs, basis_repairs);
    add_nonzero(c_refines, refine_steps);
    add_nonzero(c_stability, residual_refactorizations);
    if (warm_started) c_warm.add();
    if (warm_rejected) c_warm_rejects.add();
    if (status != SolveStatus::kOptimal) c_failed.add();
    if (status == SolveStatus::kTimeLimit) c_timeouts.add();
    if (status == SolveStatus::kNumericalError) c_numerical.add();
  }

  void absorb(const IterationOutcome& out) {
    pivots += out.iterations;
    degenerate += out.degenerate_pivots;
    bound_flips += out.bound_flips;
    bland += out.bland_pivots;
    refactorizations += out.refactorizations;
    eta_updates += out.eta_updates;
    refine_steps += out.refine_steps;
    residual_refactorizations += out.residual_refactorizations;
    if (out.cycle_fallback) ++cycle_fallbacks;
  }
};

/// Demotes a would-be basic column to a nonbasic bound during crash
/// repair. Artificial columns are retired outright (fixed at zero).
void demote_candidate(Tableau& t, int col, int art_base,
                      std::span<unsigned char> artificial_used) {
  const auto cs = static_cast<std::size_t>(col);
  t.state[cs] = VarState::kAtLower;
  t.x[cs] = t.lower[cs];
  if (col >= art_base) {
    t.upper[cs] = 0.0;
    t.x[cs] = 0.0;
    artificial_used[static_cast<std::size_t>(col - art_base)] = 0;
  }
}

/// Installs row i's artificial column as basic (bounds [0, inf), unit
/// coefficient; phase 1 prices it at 1 and drives it out).
void install_artificial(Tableau& t, int i, int art_base,
                        std::span<unsigned char> artificial_used) {
  const int art = art_base + i;
  const auto is = static_cast<std::size_t>(i);
  const auto as = static_cast<std::size_t>(art);
  t.a.single(art) = 1.0;
  t.lower[as] = 0.0;
  t.upper[as] = kInfinity;
  t.x[as] = 0.0;
  t.state[as] = VarState::kBasic;
  t.basis[is] = art;
  artificial_used[is] = 1;
}

/// Applies a warm basis to a tableau in its cold-start state
/// (install_cold_columns) in two stages:
///   1. adopt the nonbasic statuses (stale at-upper states with an
///      infinite bound are demoted);
///   2. crash-select a linearly independent subset of the requested
///      basic columns by Gaussian elimination, demoting dependent ones
///      and filling uncovered rows with artificials.
/// Every demotion/fill counts as one repair. The basic values are left
/// for start_warm, which factors this basis, and dual_simplex, which
/// restores primal feasibility. All scratch (row/column maps, the
/// crash-elimination matrix) comes from the workspace.
void apply_warm_start(Tableau& t, WorkspaceImpl& ws, const Basis& warm,
                      int art_base, long& repairs) {
  const std::span<const int> slack_of_row = ws.slack_of_row;
  const std::span<unsigned char> artificial_used = ws.artificial_used;
  const int m = t.m;
  const int n_warm = static_cast<int>(warm.variables.size());

  // Stage 1: nonbasic statuses for the covered structural columns;
  // uncovered ones keep the cold default (at lower bound).
  for (int j = 0; j < n_warm; ++j) {
    const auto js = static_cast<std::size_t>(j);
    VarStatus s = warm.variables[js];
    if (s == VarStatus::kAtUpper && !std::isfinite(t.upper[js])) {
      s = VarStatus::kAtLower;  // stale: the bound is no longer finite
      ++repairs;
    }
    switch (s) {
      case VarStatus::kBasic:
        t.state[js] = VarState::kBasic;  // value assigned by dual_simplex
        break;
      case VarStatus::kAtUpper:
        t.state[js] = VarState::kAtUpper;
        t.x[js] = t.upper[js];
        break;
      case VarStatus::kAtLower:
        t.state[js] = VarState::kAtLower;
        t.x[js] = t.lower[js];
        break;
    }
  }

  // Row statuses: a kBasic row contributes its slack — or, for an
  // equality row, its artificial — to the basic set. Nonbasic rows keep
  // the slack at its (lower) bound, which the cold defaults already are.
  const std::span<int> row_basic_col = ws.row_basic_col;
  std::fill(row_basic_col.begin(), row_basic_col.end(), -1);
  for (int i = 0; i < m; ++i) {
    const auto is = static_cast<std::size_t>(i);
    if (warm.rows[is] != VarStatus::kBasic) continue;
    int col = slack_of_row[is];
    if (col < 0) {
      col = art_base + i;
      const auto as = static_cast<std::size_t>(col);
      t.a.single(col) = 1.0;
      t.lower[as] = 0.0;
      t.upper[as] = kInfinity;
      artificial_used[is] = 1;
    }
    t.state[static_cast<std::size_t>(col)] = VarState::kBasic;
    row_basic_col[is] = col;
  }

  // Stage 2: crash selection. Eliminate over the candidate columns,
  // assigning each independent one a pivot row.
  const std::span<int> candidates = ws.candidates;
  std::size_t k = 0;
  for (int j = 0; j < n_warm; ++j) {
    if (t.state[static_cast<std::size_t>(j)] == VarState::kBasic) {
      candidates[k++] = j;
    }
  }
  for (int i = 0; i < m; ++i) {
    const int col = row_basic_col[static_cast<std::size_t>(i)];
    if (col >= 0) candidates[k++] = col;
  }
  // Row-major m×k: entry (r, c) at work[r * k + c].
  std::vector<double>& work = ws.crash_work;
  work.assign(static_cast<std::size_t>(m) * k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    const int col = candidates[c];
    for (const ColumnEntry& e : t.a.column(col)) {
      work[static_cast<std::size_t>(e.row) * k + c] = e.val;
    }
  }
  const std::span<unsigned char> used_row = ws.used_row;
  std::fill(used_row.begin(), used_row.end(), static_cast<unsigned char>(0));
  std::fill(t.basis.begin(), t.basis.end(), -1);
  constexpr double kCrashPivotTol = 1e-9;
  for (std::size_t c = 0; c < k; ++c) {
    int best_row = -1;
    double best = kCrashPivotTol;
    for (int r = 0; r < m; ++r) {
      const auto rs = static_cast<std::size_t>(r);
      if (used_row[rs]) continue;
      const double mag = std::fabs(work[rs * k + c]);
      if (mag > best) {
        best = mag;
        best_row = r;
      }
    }
    if (best_row < 0) {
      // Linearly dependent on the columns already selected.
      demote_candidate(t, candidates[c], art_base, artificial_used);
      ++repairs;
      continue;
    }
    const auto ps = static_cast<std::size_t>(best_row);
    t.basis[ps] = candidates[c];
    used_row[ps] = 1;
    const double diag = work[ps * k + c];
    for (int r = 0; r < m; ++r) {
      const auto rs = static_cast<std::size_t>(r);
      if (used_row[rs] || work[rs * k + c] == 0.0) continue;
      const double f = work[rs * k + c] / diag;
      for (std::size_t c2 = c + 1; c2 < k; ++c2) {
        work[rs * k + c2] -= f * work[ps * k + c2];
      }
    }
  }
  for (int i = 0; i < m; ++i) {
    if (t.basis[static_cast<std::size_t>(i)] >= 0) continue;
    install_artificial(t, i, art_base, artificial_used);
    ++repairs;
  }
}

/// Installs the phase-2 costs that install_cold_columns or restore_crash
/// loaded into ws.phase2_cost this solve.
void install_phase2_costs(Tableau& t, const WorkspaceImpl& ws) {
  std::copy(ws.phase2_cost.begin(), ws.phase2_cost.end(), t.cost.begin());
}

/// Fixes every artificial column at [0, 0]; nonbasic ones also take the
/// value 0. Basic artificials keep their value until a pivot moves them
/// onto the fixed bound.
void fix_artificials(Tableau& t) {
  for (int j = t.n_total - t.m; j < t.n_total; ++j) {
    const auto js = static_cast<std::size_t>(j);
    t.lower[js] = 0.0;
    t.upper[js] = 0.0;
    if (t.state[js] != VarState::kBasic) t.x[js] = 0.0;
  }
}

/// Entry j of the pivot row: ρᵀA_j.
double pivot_row_entry(const Tableau& t, std::span<const double> rho, int j) {
  double a = 0.0;
  for (const ColumnEntry& e : t.a.column(j)) {
    a += rho[static_cast<std::size_t>(e.row)] * e.val;
  }
  return a;
}

/// Bounded dual simplex from the dual-feasible start start_warm set up,
/// accumulating into `out`. The basic variable with the largest bound
/// violation leaves, until every basic is within kFeasibilityTol; the
/// reduced costs in t.cost are kept current from the pivot row and the
/// factorization by update_factorization, as in iterate. Status on return:
///   kOptimal          primal feasible: run phase 2;
///   kInfeasible       a dual ray whose row misses its bound even with
///                     every helping column at its far bound;
///   kTimeLimit        the deadline expired;
///   kNumericalError,  the basis is singular, a dual ray proves nothing,
///   kIterationLimit   or the pivot cap was hit: solve cold instead.
void dual_simplex(Tableau& t, WorkspaceImpl& ws, long max_iters,
                  const Deadline& deadline, IterationOutcome& out) {
  GRIDSEC_TRACE_SPAN("lp.simplex.dual");
  const double ftol = kFeasibilityTol;
  const double eps = 1e-11;
  // Smallest pivot-row entry a column may enter on: dividing a reduced
  // cost by less would make the dual step meaningless.
  constexpr double kDualPivotTol = 1e-9;
  const std::span<double> d = t.cost;
  // ρᵀA_j of every priced column, from the ratio test; the dual step and
  // the dual-ray bound reuse them.
  const std::span<double> alpha = ws.alpha;
  // The columns the ratio test priced (nonbasic and not fixed), in column
  // order: the dual step and the dual-ray bound walk this list.
  const std::span<int> priced = ws.priced;

  for (long iter = 0; iter < max_iters; ++iter) {
    if (deadline.expired()) {
      out.status = SolveStatus::kTimeLimit;
      out.iterations = iter;
      return;
    }
    // Leaving row: the largest bound violation.
    int r = -1;
    double worst = ftol;
    for (int i = 0; i < t.m; ++i) {
      const auto bcol =
          static_cast<std::size_t>(t.basis[static_cast<std::size_t>(i)]);
      const double viol =
          std::max(t.lower[bcol] - t.x[bcol], t.x[bcol] - t.upper[bcol]);
      if (viol > worst) {
        worst = viol;
        r = i;
      }
    }
    if (r < 0) {
      out.status = SolveStatus::kOptimal;
      out.iterations = iter;
      return;
    }
    const auto rs = static_cast<std::size_t>(r);
    const auto p = static_cast<std::size_t>(t.basis[rs]);
    const bool to_upper = t.x[p] > t.upper[p];
    const double target = to_upper ? t.upper[p] : t.lower[p];
    // Sign that makes a pivot-row entry positive when a rise of its column
    // pushes x_p toward the target (x_p falls by ρᵀA_j per unit of x_j).
    const double toward = to_upper ? 1.0 : -1.0;

    // Pivot row ρ = B⁻ᵀe_r and the dual ratio test.
    const std::span<double> rho = ws.y;
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[rs] = 1.0;
    ws.lu().btran(rho);
    int entering = -1;
    double alpha_q = 0.0;
    double best_ratio = kInfinity;
    std::size_t n_priced = 0;
    for (int j = 0; j < t.n_total; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (t.state[js] == VarState::kBasic || is_fixed(t, js)) continue;
      priced[n_priced++] = j;
      const double a = pivot_row_entry(t, rho, j);
      alpha[js] = a;
      const bool at_lower = t.state[js] == VarState::kAtLower;
      if (at_lower ? toward * a <= kDualPivotTol
                   : toward * a >= -kDualPivotTol) {
        continue;
      }
      const double ratio =
          std::max(0.0, at_lower ? d[js] : -d[js]) / std::fabs(a);
      if (ratio < best_ratio - eps ||
          (ratio < best_ratio + eps && std::fabs(a) > std::fabs(alpha_q))) {
        best_ratio = std::min(best_ratio, ratio);
        alpha_q = a;
        entering = j;
      }
    }

    if (entering < 0) {
      // Dual ray. Row r reads x_p = β_r − Σ_N ρᵀA_j·x_j, so the basic can
      // get no nearer its bound than every helping column at its far
      // bound takes it; only a miss beyond that proves infeasibility.
      // Anything else (an infinite far bound, a miss within tolerance) is
      // left to the cold solve.
      compute_basic_values(t, ws.lu(), ws.xb, out.refine_steps);
      const double xp = ws.xb[rs];
      double miss = to_upper ? xp - t.upper[p] : t.lower[p] - xp;
      for (std::size_t k = 0; k < n_priced; ++k) {
        const auto js = static_cast<std::size_t>(priced[k]);
        const double a = toward * alpha[js];
        if (t.state[js] == VarState::kAtLower ? a > 0.0 : a < 0.0) {
          miss -= std::fabs(a) * (t.upper[js] - t.lower[js]);
        }
      }
      out.status = miss > ftol ? SolveStatus::kInfeasible
                               : SolveStatus::kNumericalError;
      out.iterations = iter;
      return;
    }

    const auto eq = static_cast<std::size_t>(entering);
    const std::span<double> w = ws.w;
    std::fill(w.begin(), w.end(), 0.0);
    for (const ColumnEntry& e : t.a.column(entering)) {
      w[static_cast<std::size_t>(e.row)] = e.val;
    }
    ws.lu().ftran(w);
    if (w[rs] * alpha_q <= 0.0) {
      // The column and row images disagree on the pivot's sign: the
      // factorization is too inaccurate to continue on.
      out.status = SolveStatus::kNumericalError;
      out.iterations = iter;
      return;
    }

    // Primal step: the entering column moves until x_p reaches its bound.
    const double step = (t.x[p] - target) / w[rs];
    for (int i = 0; i < t.m; ++i) {
      const auto is = static_cast<std::size_t>(i);
      t.x[static_cast<std::size_t>(t.basis[is])] -= w[is] * step;
    }
    t.x[eq] += step;
    // Dual step: d_j −= theta·ρᵀA_j zeroes the entering reduced cost and
    // leaves x_p nonbasic with reduced cost −theta.
    const double theta = d[eq] / alpha_q;
    for (std::size_t k = 0; k < n_priced; ++k) {
      const auto js = static_cast<std::size_t>(priced[k]);
      d[js] -= theta * alpha[js];
    }
    d[eq] = 0.0;
    d[p] = -theta;
    t.x[p] = target;
    t.state[p] = to_upper ? VarState::kAtUpper : VarState::kAtLower;
    t.basis[rs] = entering;
    t.state[eq] = VarState::kBasic;

    if (std::fabs(theta) <= eps) ++out.degenerate_pivots;
    if (!update_factorization(t, ws, r, w, out)) {
      out.status = SolveStatus::kNumericalError;
      out.iterations = iter + 1;
      return;
    }
  }
  out.status = SolveStatus::kIterationLimit;
  out.iterations = max_iters;
}

/// Builds A column-sparse straight from the problem's rows, plus b and
/// the slack map. Rows are scattered in order, so each column's rows
/// ascend and a variable a row names twice meets the entry that row
/// already opened: duplicate terms sum in term order and exact zeros are
/// dropped, leaving each entry equal to what a dense row-wise
/// accumulation would hold. Slack and artificial columns get one entry
/// each (artificials start at 0 until installed).
void build_columns(const Problem& problem, Tableau& t,
                   std::span<int> col_fill, std::span<int> slack_of_row) {
  const int n = t.n_struct;
  detail::SparseColumns& a = t.a;
  std::fill(a.start.begin(), a.start.begin() + n + 1, 0);
  for (const Constraint& con : problem.constraints()) {
    for (const Term& term : con.terms) {
      ++a.start[static_cast<std::size_t>(term.var) + 1];
    }
  }
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    a.start[js + 1] += a.start[js];
    col_fill[js] = a.start[js];
  }
  for (int i = 0; i < t.m; ++i) {
    for (const Term& term : problem.constraint(i).terms) {
      const auto js = static_cast<std::size_t>(term.var);
      int& fill = col_fill[js];
      ColumnEntry* last =
          fill > a.start[js] ? &a.entries[static_cast<std::size_t>(fill - 1)]
                             : nullptr;
      if (last != nullptr && last->row == i) {
        last->val += term.coef;
      } else {
        a.entries[static_cast<std::size_t>(fill++)] = {i, term.coef};
      }
    }
  }
  // Compact left over the slots merges freed, dropping exact zeros.
  int nnz = 0;
  const auto push = [&](ColumnEntry e) {
    a.entries[static_cast<std::size_t>(nnz++)] = e;
  };
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const int first = a.start[js];
    a.start[js] = nnz;
    for (int k = first; k < col_fill[js]; ++k) {
      const ColumnEntry e = a.entries[static_cast<std::size_t>(k)];
      if (e.val != 0.0) push(e);
    }
  }
  int col = n;
  for (int i = 0; i < t.m; ++i) {
    const Constraint& con = problem.constraint(i);
    const auto is = static_cast<std::size_t>(i);
    t.b[is] = con.rhs;
    slack_of_row[is] = -1;
    if (con.sense == Sense::kEqual) continue;
    slack_of_row[is] = col;
    a.start[static_cast<std::size_t>(col++)] = nnz;
    push({i, con.sense == Sense::kLessEqual ? 1.0 : -1.0});
  }
  for (int i = 0; i < t.m; ++i) {
    a.start[static_cast<std::size_t>(col++)] = nnz;
    push({i, 0.0});
  }
  a.start[static_cast<std::size_t>(col)] = nnz;
}

/// Loads column j's bounds into t and its phase-2 cost into
/// ws.phase2_cost, reading its Variable once: a structural takes the
/// variable's bounds and objective (negated for maximization; internal =
/// minimize), a slack [0, inf) and cost 0, an artificial [0, 0] and cost 0.
void load_column(const Problem& problem, bool maximize, Tableau& t,
                 WorkspaceImpl& ws, int j) {
  const auto js = static_cast<std::size_t>(j);
  double lower = 0.0;
  double upper = 0.0;
  double cost = 0.0;
  if (j < t.n_struct) {
    const Variable& v = problem.variable(j);
    lower = v.lower;
    upper = v.upper;
    cost = maximize ? -v.objective : v.objective;
  } else if (j < t.n_total - t.m) {
    upper = kInfinity;
  }
  t.lower[js] = lower;
  t.upper[js] = upper;
  ws.phase2_cost[js] = cost;
}

/// Installs the cold-start column state: structural columns at their
/// lower bound, slacks in [0, inf) at zero, every artificial unused (fixed
/// at zero, coefficient 0), zero costs and no basis, and loads the phase-2
/// costs. The crash starts from it, and so does the cold start basis, also
/// after a warm start the dual simplex could not finish.
void install_cold_columns(const Problem& problem, Tableau& t,
                          WorkspaceImpl& ws) {
  const bool maximize = problem.objective() == Objective::kMaximize;
  const int art_base = t.n_total - t.m;
  for (int j = 0; j < t.n_total; ++j) {
    const auto js = static_cast<std::size_t>(j);
    load_column(problem, maximize, t, ws, j);
    if (j >= art_base) t.a.single(j) = 0.0;
    t.x[js] = t.lower[js];
    t.state[js] = VarState::kAtLower;
    t.cost[js] = 0.0;
  }
  std::fill(t.basis.begin(), t.basis.end(), -1);
  std::fill(ws.artificial_used.begin(), ws.artificial_used.end(),
            static_cast<unsigned char>(0));
}

/// A warm at-upper column whose upper bound is no longer finite:
/// apply_warm_start demotes it. This is the one bound fact the crash
/// reads, so the warm checkpoint is keyed on it.
bool stale_upper(const Problem& problem, const Basis& warm, std::size_t j) {
  return warm.variables[j] == VarStatus::kAtUpper &&
         !std::isfinite(problem.variable(static_cast<int>(j)).upper);
}

bool checkpoint_matches(const detail::WarmCheckpoint& ck,
                        const Problem& problem, const Basis& warm) {
  if (!ck.valid || ck.warm != warm) return false;
  for (std::size_t j = 0; j < warm.variables.size(); ++j) {
    if ((ck.stale_upper[j] != 0) != stale_upper(problem, warm, j)) {
      return false;
    }
  }
  return true;
}

/// Keeps what apply_warm_start and fix_artificials left in `t` and the
/// crash repair count in the workspace's checkpoint, keyed on `warm`,
/// beside the LU of t's basis that warm.lu already holds.
void save_crash(const Problem& problem, const Tableau& t, WorkspaceImpl& ws,
                const Basis& warm, long repairs) {
  detail::WarmCheckpoint& ck = ws.warm;
  ck.warm = warm;
  for (std::size_t j = 0; j < warm.variables.size(); ++j) {
    ck.stale_upper[j] = stale_upper(problem, warm, j) ? 1 : 0;
  }
  std::copy(t.state.begin(), t.state.end(), ck.state.begin());
  std::copy(t.basis.begin(), t.basis.end(), ck.basis.begin());
  std::copy(ws.artificial_used.begin(), ws.artificial_used.end(),
            ck.artificial_used.begin());
  const int art_base = t.n_total - t.m;
  for (int i = 0; i < t.m; ++i) {
    ck.artificial_coef[static_cast<std::size_t>(i)] = t.a.single(art_base + i);
  }
  ck.repairs = repairs;
  ck.priced = false;
  ck.valid = true;
}

/// Puts the checkpoint's crash back. The tableau then holds what
/// install_cold_columns, apply_warm_start, fix_artificials and
/// install_phase2_costs would leave for this problem's bounds and costs,
/// and the rewound warm.lu, which the solve reads, the LU of its basis,
/// bit for bit: the crash and the elimination read nothing the key leaves
/// open. Each column's bounds and
/// cost are loaded in the same pass (artificials stay fixed at zero).
void restore_crash(const Problem& problem, Tableau& t, WorkspaceImpl& ws,
                   long& repairs) {
  const detail::WarmCheckpoint& ck = ws.warm;
  const bool maximize = problem.objective() == Objective::kMaximize;
  const int art_base = t.n_total - t.m;
  for (int j = 0; j < t.n_total; ++j) {
    const auto js = static_cast<std::size_t>(j);
    load_column(problem, maximize, t, ws, j);
    t.state[js] = ck.state[js];
    t.x[js] = ck.state[js] == VarState::kAtUpper ? t.upper[js] : t.lower[js];
    t.cost[js] = ws.phase2_cost[js];
  }
  std::copy(ck.basis.begin(), ck.basis.end(), t.basis.begin());
  std::copy(ck.artificial_used.begin(), ck.artificial_used.end(),
            ws.artificial_used.begin());
  for (int i = 0; i < t.m; ++i) {
    t.a.single(art_base + i) = ck.artificial_coef[static_cast<std::size_t>(i)];
  }
  repairs += ck.repairs;
  ws.warm.lu.rewind();
  ws.on_warm_lu = true;
}

/// Prices every column once against the phase-2 costs in t.cost:
/// y = B⁻ᵀc_B, then d_j = c_j − yᵀA_j (zero on basics) replaces c_j in
/// place. The checkpoint keeps d beside the costs it came from; a warm
/// start from the same checkpoint with the same costs copies d instead.
void price_dual_start(Tableau& t, WorkspaceImpl& ws) {
  detail::WarmCheckpoint& ck = ws.warm;
  const std::size_t bytes = t.cost.size() * sizeof(double);
  if (ck.priced && std::memcmp(ck.cost.data(), t.cost.data(), bytes) == 0) {
    std::copy(ck.d.begin(), ck.d.end(), t.cost.begin());
    return;
  }
  std::copy(t.cost.begin(), t.cost.end(), ck.cost.begin());
  compute_multipliers(t, ws.lu(), ws.y);
  for (int j = 0; j < t.n_total; ++j) {
    const auto js = static_cast<std::size_t>(j);
    t.cost[js] =
        t.state[js] == VarState::kBasic ? 0.0 : reduced_cost(t, ws.y, j);
  }
  std::copy(t.cost.begin(), t.cost.end(), ck.d.begin());
  ck.priced = true;
}

/// Sets up the bounded dual simplex from `warm`: the crash basis with the
/// phase-2 costs and every artificial fixed at zero, ws.lu() the
/// checkpoint's LU of it, and a dual-feasible start. The crash, its LU and
/// the first pricing come from the workspace's checkpoint when its key
/// matches; otherwise they are computed there (one refactorization). From
/// here on t.cost holds the reduced costs d = c − Aᵀy: the costs of an
/// equivalent LP in which every basic column prices at zero;
/// install_phase2_costs restores the true costs for phase 2. A column
/// whose reduced cost has the wrong sign moves to its other bound when
/// that bound is finite, else its cost is shifted to make the reduced cost
/// zero (each one counted in `repairs`). Returns false when the crash
/// basis is singular.
bool start_warm(const Problem& problem, Tableau& t, WorkspaceImpl& ws,
                const Basis& warm, long& repairs, IterationOutcome& out) {
  GRIDSEC_TRACE_SPAN("lp.simplex.warm_start");
  const int art_base = t.n_total - t.m;
  if (checkpoint_matches(ws.warm, problem, warm)) {
    restore_crash(problem, t, ws, repairs);
  } else {
    ws.warm.valid = false;
    install_cold_columns(problem, t, ws);
    long crash_repairs = 0;
    apply_warm_start(t, ws, warm, art_base, crash_repairs);
    repairs += crash_repairs;
    fix_artificials(t);
    install_phase2_costs(t, ws);
    ++out.refactorizations;
    if (!ws.warm.lu.refactorize(t.a.start, t.a.entries, t.basis,
                                ws.lu_scratch)) {
      return false;
    }
    ws.on_warm_lu = true;
    save_crash(problem, t, ws, warm, crash_repairs);
  }
  price_dual_start(t, ws);

  const std::span<double> d = t.cost;
  for (int j = 0; j < t.n_total; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (t.state[js] == VarState::kBasic || is_fixed(t, js)) continue;
    const int dir = entering_direction(t, js, d[js], kOptimalityTol);
    if (dir == 0) continue;
    ++repairs;
    if (dir < 0) {
      t.state[js] = VarState::kAtLower;  // at-upper: the lower is finite
      t.x[js] = t.lower[js];
    } else if (std::isfinite(t.upper[js])) {
      t.state[js] = VarState::kAtUpper;
      t.x[js] = t.upper[js];
    } else {
      d[js] = 0.0;  // cost shift
    }
  }
  recompute_basics(t, ws.lu(), ws.xb, out.refine_steps);
  return true;
}

/// Resets every field of `sol` to a default Solution's, keeping the
/// capacity of its vectors.
void reset_solution(Solution& sol) {
  sol.status = Solution{}.status;
  sol.objective = 0.0;
  sol.x.clear();
  sol.duals.clear();
  sol.reduced_costs.clear();
  sol.iterations = 0;
  sol.bnb = BranchAndBoundStats{};
  sol.basis.variables.clear();
  sol.basis.rows.clear();
  sol.warm_started = false;
  sol.recovery_trail.clear();
}

/// Full solve into `sol`, which it resets first; when `final_tableau` is
/// non-null and the solve is optimal, the final tableau is copied out for
/// post-optimal analysis.
void solve_impl_inner(const Problem& problem, const SimplexOptions& options,
                      Tableau* final_tableau, SimplexMetricsGuard& metrics,
                      WorkspaceImpl& ws, Solution& sol) {
  reset_solution(sol);
  const Deadline deadline = Deadline::in_ms(options.time_limit_ms);
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  const bool maximize = problem.objective() == Objective::kMaximize;
  Tableau& t = ws.t;
  {
    GRIDSEC_TRACE_SPAN("lp.simplex.setup");
    // A built from this problem's rows_id is still resident, and its rows
    // passed validation when it was built: check the variables only.
    const bool resident =
        ws.rows_id == problem.rows_id() && t.m == m && t.n_struct == n;
    if (!(resident ? validate_variables(problem) : validate_problem(problem))
             .is_ok()) {
      sol.status = SolveStatus::kNumericalError;
      return;
    }
    if (!resident) {
      // Count slacks and the terms that bound A's nonzeros, bind the
      // workspace to this shape (its vectors resized; artificials
      // allocated per row, used lazily) and build A into it.
      int n_slack = 0;
      std::size_t n_terms = 0;
      for (const auto& con : problem.constraints()) {
        if (con.sense != Sense::kEqual) ++n_slack;
        n_terms += con.terms.size();
      }
      ws.bind(m, n, n + n_slack + m,
              n_terms + static_cast<std::size_t>(n_slack + m));
      build_columns(problem, t, ws.col_fill, ws.slack_of_row);
      ws.rows_id = problem.rows_id();
    }
  }
  const int art_base = t.n_total - m;
  const std::span<int> slack_of_row = ws.slack_of_row;
  const std::span<unsigned char> artificial_used = ws.artificial_used;

  const long max_iters = 2000 + 200L * (m + n);
  // Pivot from which pricing follows Bland's rule.
  const long bland_after = options.bland ? 0 : std::max(200L, 20L * (m + n));
  // Pivot cap of the dual simplex and of each optimality resume below.
  const long confirm_budget = 4L * (m + n) + 16;
  long total_iters = 0;

  // Warm start: adopt the caller's basis when it is dimensionally
  // compatible, crash-select an independent basis from it (or restore the
  // checkpointed one), and restore primal feasibility by dual simplex
  // pivots. A basis the dual simplex cannot finish from falls back to the
  // cold start below — a warm start can never make a solve fail that would
  // have succeeded cold.
  bool warm_applied = false;
  if (warm_start_enabled() && !options.warm_start.empty()) {
    if (static_cast<int>(options.warm_start.rows.size()) == m &&
        static_cast<int>(options.warm_start.variables.size()) <= n) {
      long repairs = 0;
      IterationOutcome dual;
      ws.size_warm();
      if (start_warm(problem, t, ws, options.warm_start, repairs, dual)) {
        dual_simplex(t, ws, std::min(max_iters, confirm_budget), deadline,
                     dual);
      } else {
        dual.status = SolveStatus::kNumericalError;
      }
      total_iters += dual.iterations;
      metrics.absorb(dual);
      warm_applied = dual.status == SolveStatus::kOptimal ||
                     dual.status == SolveStatus::kInfeasible ||
                     dual.status == SolveStatus::kTimeLimit;
      if (!warm_applied) {
        metrics.warm_rejected = true;
      } else {
        metrics.warm_started = true;
        metrics.basis_repairs += repairs;
        if (dual.status != SolveStatus::kOptimal) {
          sol.warm_started = true;
          sol.status = dual.status;
          sol.iterations = total_iters;
          return;
        }
      }
    } else {
      metrics.warm_rejected = true;
    }
  }
  sol.warm_started = warm_applied;

  IterationOutcome outcome;
  {
    GRIDSEC_TRACE_SPAN("lp.simplex.primal");
    if (!warm_applied) {
      // Cold initial basis from the cold-start column state: slack when it
      // yields a feasible basic value, else an artificial sized to the
      // residual. Row residuals b − A_S x_S at the structural start point
      // are summed column by column: each row still subtracts its terms in
      // ascending column order.
      install_cold_columns(problem, t, ws);
      const std::span<double> residuals = ws.xb;
      std::copy(t.b.begin(), t.b.end(), residuals.begin());
      for (int j = 0; j < n; ++j) {
        const double xj = t.x[static_cast<std::size_t>(j)];
        for (const ColumnEntry& e : t.a.column(j)) {
          residuals[static_cast<std::size_t>(e.row)] -= e.val * xj;
        }
      }
      bool any_artificial = false;
      for (int i = 0; i < m; ++i) {
        const auto is = static_cast<std::size_t>(i);
        const double residual = residuals[is];
        const auto& con = problem.constraint(i);
        const int s = slack_of_row[is];
        const bool slack_feasible =
            s >= 0 && ((con.sense == Sense::kLessEqual && residual >= 0.0) ||
                       (con.sense == Sense::kGreaterEqual && residual <= 0.0));
        if (slack_feasible) {
          const auto ss = static_cast<std::size_t>(s);
          t.basis[is] = s;
          t.state[ss] = VarState::kBasic;
          t.x[ss] = con.sense == Sense::kLessEqual ? residual : -residual;
          continue;
        }
        const int art = art_base + i;
        const auto as = static_cast<std::size_t>(art);
        t.a.single(art) = residual >= 0.0 ? 1.0 : -1.0;
        t.lower[as] = 0.0;
        t.upper[as] = kInfinity;
        t.x[as] = std::fabs(residual);
        t.basis[is] = art;
        t.state[as] = VarState::kBasic;
        artificial_used[is] = 1;
        any_artificial = true;
      }
      // The slack/artificial start basis is diagonal; factorize it once.
      ++metrics.refactorizations;
      if (!ws.refactorize()) {
        sol.status = SolveStatus::kNumericalError;
        return;
      }

      // Phase 1: drive the artificials to zero.
      if (any_artificial) {
        for (int i = 0; i < m; ++i) {
          if (artificial_used[static_cast<std::size_t>(i)]) {
            t.cost[static_cast<std::size_t>(art_base + i)] = 1.0;
          }
        }
        const IterationOutcome phase1 =
            iterate(t, ws, options, max_iters, bland_after, deadline);
        total_iters += phase1.iterations;
        metrics.absorb(phase1);
        if (phase1.status == SolveStatus::kIterationLimit ||
            phase1.status == SolveStatus::kTimeLimit ||
            phase1.status == SolveStatus::kNumericalError) {
          sol.status = phase1.status;
          sol.iterations = total_iters;
          return;
        }
        if (phase1.status == SolveStatus::kUnbounded) {
          // Phase 1 minimizes a sum of nonnegative artificials: an
          // "unbounded" verdict can only come from numerical breakdown.
          sol.status = SolveStatus::kNumericalError;
          sol.iterations = total_iters;
          return;
        }
        double phase1_obj = 0.0;
        for (int i = 0; i < m; ++i) {
          if (artificial_used[static_cast<std::size_t>(i)]) {
            phase1_obj += t.x[static_cast<std::size_t>(art_base + i)];
          }
        }
        if (phase1_obj > kFeasibilityTol) {
          sol.status = SolveStatus::kInfeasible;
          sol.iterations = total_iters;
          return;
        }
        fix_artificials(t);  // frozen at zero for phase 2
      }
    }

    // Phase 2: the original costs (replacing the dual simplex's reduced
    // costs on a warm start) from a primal feasible basis.
    install_phase2_costs(t, ws);
    outcome = iterate(t, ws, options, max_iters, bland_after, deadline);
    total_iters += outcome.iterations;
    metrics.absorb(outcome);
    sol.iterations = total_iters;
    if (outcome.status != SolveStatus::kOptimal) {
      sol.status = outcome.status;
      return;
    }
  }

  // One post-solve check, repeated only on a resume. Each round cleans up
  // eta-chain drift (a fresh factorization unless no eta was applied since
  // the last rebuild; refined basic values and duals from it), then one
  // sweep over every column computes d_j = c_j − yᵀA_j and
  //   * resumes pivoting when a nonbasic column is still attractive: the
  //     pivot loop priced with multipliers pushed through the eta chain, so
  //     its "no attractive column" can be an artifact. Resumes get the
  //     small confirm_budget and at most kMaxOptimalityResumes run, so an
  //     instance flip-flopping at the tolerance fails fast into recovery;
  //   * gates each basic column: inside its bounds (a factorization that
  //     lost accuracy mid-solve can land one far outside), and d_j, exactly
  //     the residual of Bᵀy = c_B, at certificate grade: just under the
  //     certificate's 1e-6 dual tolerance plus the rounding floor a
  //     backward-error-perfect dot product reaches. Where refinement stalls
  //     on a near-singular basis the duals are fiction;
  //   * holds the residuals weighted by 1+|x_j| to gap grade: a basic parked
  //     at a huge bound multiplies even a per-entry-clean residual into the
  //     dual objective (1e-8 at a 1e7 bound is an O(0.1) gap);
  //   * writes each structural d_j as the reported reduced cost.
  // A failed gate reports kNumericalError, never a fake optimum: solve_impl
  // retries warm-started solves cold, and the recovery ladder does the rest.
  const std::span<double> y = ws.y;
  {
    GRIDSEC_TRACE_SPAN("lp.simplex.check");
    constexpr int kMaxOptimalityResumes = 3;
    constexpr double kDualResidualTol = 5e-7;
    const double dtol = kOptimalityTol;
    const double ftol = kFeasibilityTol;
    sol.reduced_costs.resize(static_cast<std::size_t>(n));
    const auto fail = [&sol](SolveStatus status) {
      sol.status = status;
      sol.reduced_costs.clear();
    };
    // Refined multipliers Bᵀy = c_B from the current factorization, into y.
    const auto refine_duals = [&] {
      for (int i = 0; i < m; ++i) {
        y[static_cast<std::size_t>(i)] = t.cost[static_cast<std::size_t>(
            t.basis[static_cast<std::size_t>(i)])];
      }
      metrics.refine_steps += ws.lu().btran_refined(y);
    };
    bool breakdown = false;
    for (int resume = 0;; ++resume) {
      if (ws.lu().eta_count() > 0) {
        ++metrics.refactorizations;
        if (!ws.refactorize()) {
          fail(SolveStatus::kNumericalError);
          return;
        }
      }
      recompute_basics(t, ws.lu(), ws.xb, metrics.refine_steps);
      refine_duals();

      bool attractive = false;
      breakdown = false;
      double gap_err = 0.0;    // Σ |d_j|·(1+|x_j|): duality-gap contamination
      double gap_mag = 1.0;    // Σ |c_j·x_j| over the basis: gap check scale
      double gap_floor = 0.0;  // Σ rounding-floor_j·(1+|x_j|): unavoidable
      for (int j = 0; j < t.n_total; ++j) {
        const auto js = static_cast<std::size_t>(j);
        double dj = t.cost[js];
        double acc = 0.0;  // Σ_r |y_r·a_rj|: the dot product's rounding scale
        for (const ColumnEntry& e : t.a.column(j)) {
          const double term = y[static_cast<std::size_t>(e.row)] * e.val;
          dj -= term;
          acc += std::fabs(term);
        }
        if (j < n) sol.reduced_costs[js] = maximize ? -dj : dj;
        if (t.state[js] != VarState::kBasic) {
          if (!is_fixed(t, js) && entering_direction(t, js, dj, dtol) != 0) {
            attractive = true;
          }
          continue;
        }
        const double xv = t.x[js];
        const double scale = 1.0 + std::fabs(xv);
        if (xv < t.lower[js] - ftol * scale ||
            (std::isfinite(t.upper[js]) && xv > t.upper[js] + ftol * scale) ||
            std::fabs(dj) > kDualResidualTol * (1.0 + std::fabs(t.cost[js])) +
                                kDualRoundingFloor * acc) {
          breakdown = true;
        }
        gap_err += std::fabs(dj) * scale;
        gap_mag += std::fabs(t.cost[js] * xv);
        gap_floor += kDualRoundingFloor * acc * scale;
      }
      if (gap_err > kDualResidualTol * gap_mag + gap_floor) breakdown = true;
      if (!attractive || resume >= kMaxOptimalityResumes ||
          max_iters <= total_iters) {
        break;
      }
      outcome = iterate(t, ws, options,
                        std::min(max_iters - total_iters, confirm_budget),
                        bland_after, deadline);
      total_iters += outcome.iterations;
      metrics.absorb(outcome);
      sol.iterations = total_iters;
      if (outcome.status != SolveStatus::kOptimal) {
        // Past the deadline the verdict is a time limit. Otherwise the pivot
        // loop said optimal and the resume now says otherwise (budget churn,
        // a spurious unbounded ray): that contradiction is numerical
        // instability, and reporting it as such hands the solve to the
        // warm→cold retry and the recovery ladder.
        fail(outcome.status == SolveStatus::kTimeLimit
                 ? SolveStatus::kTimeLimit
                 : SolveStatus::kNumericalError);
        return;
      }
      if (outcome.iterations == 0) {
        // The sweep's refined duals found an attractive column that the pivot
        // loop's plain multipliers do not: the basis stands, as it would have
        // without the resume. The pivot loop overwrote y with those plain
        // multipliers, so restore the refined duals that the gates above
        // checked and the reduced costs were written from.
        refine_duals();
        break;
      }
    }
    if (breakdown) {
      fail(SolveStatus::kNumericalError);
      return;
    }
  }

  GRIDSEC_TRACE_SPAN("lp.simplex.extract");
  sol.status = SolveStatus::kOptimal;
  // The structural bounds and costs as loaded this solve: nothing after the
  // load moves a structural bound, so these are the Variables' own values.
  sol.x.resize(static_cast<std::size_t>(n));
  double objective = 0.0;
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    double xj = t.x[js];
    // Snap to bounds to remove O(tol) noise.
    const double lower = t.lower[js];
    const double upper = t.upper[js];
    if (std::fabs(xj - lower) < kFeasibilityTol) xj = lower;
    if (std::isfinite(upper) && std::fabs(xj - upper) < kFeasibilityTol) {
      xj = upper;
    }
    sol.x[js] = xj;
    // Problem::objective_value's sum, in its order.
    const double c = ws.phase2_cost[js];
    objective += (maximize ? -c : c) * xj;
  }
  sol.objective = objective;

  // Duals from the final basis, in the problem's own sense.
  sol.duals.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const double yi = y[static_cast<std::size_t>(i)];
    sol.duals[static_cast<std::size_t>(i)] = maximize ? -yi : yi;
  }

  // Export the combinatorial basis so sibling solves can warm-start.
  sol.basis.variables.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    sol.basis.variables[js] =
        t.state[js] == VarState::kBasic
            ? VarStatus::kBasic
            : (t.state[js] == VarState::kAtUpper ? VarStatus::kAtUpper
                                                 : VarStatus::kAtLower);
  }
  sol.basis.rows.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const int s = slack_of_row[is];
    const auto rcol = static_cast<std::size_t>(s >= 0 ? s : art_base + i);
    sol.basis.rows[is] = t.state[rcol] == VarState::kBasic
                             ? VarStatus::kBasic
                             : VarStatus::kAtLower;
  }

  if (final_tableau != nullptr) *final_tableau = t;
}

/// Every solve entry point: the solve, its warm→cold retry, the recovery
/// ladder, the log record and the solve hook, into `sol`.
void solve_impl(const Problem& problem, const SimplexOptions& options,
                Tableau* final_tableau, Solution& sol) {
  GRIDSEC_TRACE_SPAN("lp.simplex.solve");
  {
    // Lease the workspace for the solve (plus the built-in warm→cold
    // retry, which re-binds the same workspace). Released before the
    // recovery ladder and the solve hook below run, so their re-solves
    // can lease the same thread workspace.
    WorkspaceLease lease(options.workspace);
    {
      SimplexMetricsGuard metrics;
      solve_impl_inner(problem, options, final_tableau, metrics, lease.impl(),
                       sol);
      metrics.status = sol.status;
      if (sol.warm_started && sol.status == SolveStatus::kNumericalError) {
        metrics.warm_rejected = true;
      }
    }
    if (sol.warm_started && sol.status == SolveStatus::kNumericalError) {
      // The warm basis steered the pivot sequence into numerical breakdown.
      // A warm start must never fail a solve that succeeds cold, so rerun
      // from the ordinary slack/artificial basis.
      GRIDSEC_LOG(kWarn, "lp.simplex")
          .field("vars", problem.num_variables())
          .field("rows", problem.num_constraints())
          .message("warm-started solve wedged; retrying cold");
      static obs::Counter& c_warm_cold_retries =
          obs::default_registry().counter("lp.simplex.warm_cold_retries");
      c_warm_cold_retries.add();
      SimplexOptions cold = options;
      cold.warm_start = Basis{};
      SimplexMetricsGuard metrics;
      solve_impl_inner(problem, cold, final_tableau, metrics, lease.impl(),
                       sol);
      metrics.status = sol.status;
    }
  }
  // Numerical-recovery ladder (robust::recovery, when installed): a last
  // line of defense after the built-in warm→cold retry. Skipped on the
  // sensitivity path — ranging needs the tableau of the actual failed
  // solve, which a rung replacement would not match.
  if (sol.status == SolveStatus::kNumericalError && final_tableau == nullptr) {
    if (const RecoveryHook recover = recovery_hook(); recover != nullptr) {
      recover(problem, options, &sol);
    }
  }
  // Degraded verdicts are worth a record even at the default level; clean
  // solves only show up under GRIDSEC_LOG_LEVEL=debug.
  if (sol.status == SolveStatus::kNumericalError ||
      sol.status == SolveStatus::kTimeLimit ||
      sol.status == SolveStatus::kIterationLimit) {
    GRIDSEC_LOG(kWarn, "lp.simplex")
        .field("status", to_string(sol.status))
        .field("vars", problem.num_variables())
        .field("rows", problem.num_constraints())
        .field("pivots", sol.iterations)
        .message("simplex solve degraded");
  } else {
    GRIDSEC_LOG(kDebug, "lp.simplex")
        .field("status", to_string(sol.status))
        .field("vars", problem.num_variables())
        .field("rows", problem.num_constraints())
        .field("pivots", sol.iterations)
        .field("objective", sol.objective);
  }
  if (const SolveHook hook = solve_hook(); hook != nullptr) {
    hook(problem, sol, "lp.simplex");
  }
}

constexpr double kRangeEps = 1e-11;

}  // namespace

SensitivityReport analyze_sensitivity(const Problem& problem,
                                      const SimplexOptions& options) {
  SensitivityReport report;
  Tableau t;
  solve_impl(problem, options, &t, report.solution);
  if (report.solution.status != SolveStatus::kOptimal) return report;

  const bool maximize = problem.objective() == Objective::kMaximize;
  const int n = problem.num_variables();
  const int m = problem.num_constraints();

  // One factorization of the final basis serves every ranging query.
  BasisFactorization factor;
  if (!factor.refactorize(t.a.start, t.a.entries, t.basis)) {
    return report;  // numerically wedged: no ranges
  }
  std::vector<double> y(static_cast<std::size_t>(m));
  compute_multipliers(t, factor, y);

  // Map basic structural columns to their basis row.
  std::vector<int> row_of_col(static_cast<std::size_t>(t.n_total), -1);
  for (int i = 0; i < t.m; ++i) {
    row_of_col[static_cast<std::size_t>(t.basis[static_cast<std::size_t>(i)])] = i;
  }

  // ---- Objective-coefficient ranging (internal min sense first). ----
  report.objective_range.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double c_int = t.cost[js];
    SensitivityRange range;  // on the internal coefficient
    if (t.state[js] == VarState::kAtLower) {
      // d_j >= 0 must persist: c may drop by d_j, rise freely.
      const double dj = reduced_cost(t, y, j);
      range.lo = c_int - dj;
      range.hi = kInfinity;
    } else if (t.state[js] == VarState::kAtUpper) {
      const double dj = reduced_cost(t, y, j);  // <= 0 at optimum
      range.lo = -kInfinity;
      range.hi = c_int - dj;
    } else {
      // Basic in row r: perturbing c_j by delta shifts every nonbasic
      // reduced cost by -delta * alpha_rk; keep their signs.
      const int r = row_of_col[js];
      GRIDSEC_ASSERT(r >= 0);
      std::vector<double> z(static_cast<std::size_t>(t.m), 0.0);
      z[static_cast<std::size_t>(r)] = 1.0;
      factor.btran(z);
      double lo = -kInfinity, hi = kInfinity;
      for (int k = 0; k < t.n_total; ++k) {
        const auto ks = static_cast<std::size_t>(k);
        if (t.state[ks] == VarState::kBasic) continue;
        if (t.upper[ks] - t.lower[ks] < kRangeEps) continue;  // fixed col
        double alpha = 0.0;
        for (const ColumnEntry& e : t.a.column(k)) {
          alpha += z[static_cast<std::size_t>(e.row)] * e.val;
        }
        if (std::fabs(alpha) < kRangeEps) continue;
        const double dk = reduced_cost(t, y, k);
        // Constraint: for at-lower columns dk - delta*alpha >= 0;
        // for at-upper columns dk - delta*alpha <= 0.
        const bool ge = t.state[ks] == VarState::kAtLower;
        const double limit = dk / alpha;
        if ((ge && alpha > 0.0) || (!ge && alpha < 0.0)) {
          hi = std::min(hi, limit);
        } else {
          lo = std::max(lo, limit);
        }
      }
      range.lo = lo >= -kInfinity / 2 ? c_int + lo : -kInfinity;
      range.hi = hi <= kInfinity / 2 ? c_int + hi : kInfinity;
      if (!std::isfinite(lo)) range.lo = -kInfinity;
      if (!std::isfinite(hi)) range.hi = kInfinity;
    }
    // Map back to the user's sense.
    if (maximize) {
      report.objective_range[js] = {-range.hi, -range.lo};
    } else {
      report.objective_range[js] = range;
    }
  }

  // ---- RHS ranging: keep x_B within bounds as b_i moves. ----
  report.rhs_range.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    std::vector<double> w(static_cast<std::size_t>(t.m), 0.0);
    w[static_cast<std::size_t>(i)] = 1.0;
    factor.ftran(w);
    SensitivityRange range;
    {
      double lo = -kInfinity, hi = kInfinity;
      for (int r = 0; r < t.m; ++r) {
        const auto rs = static_cast<std::size_t>(r);
        const double wr = w[rs];
        if (std::fabs(wr) < kRangeEps) continue;
        const auto bcol = static_cast<std::size_t>(t.basis[rs]);
        const double xb = t.x[bcol];
        const double room_up = std::isfinite(t.upper[bcol])
                                   ? t.upper[bcol] - xb
                                   : kInfinity;
        const double room_dn = xb - t.lower[bcol];
        // x_B(r) moves by wr * delta.
        if (wr > 0.0) {
          hi = std::min(hi, room_up / wr);
          lo = std::max(lo, -room_dn / wr);
        } else {
          hi = std::min(hi, room_dn / -wr);
          lo = std::max(lo, -room_up / -wr);
        }
      }
      const double rhs = problem.constraint(i).rhs;
      range.lo = std::isfinite(lo) ? rhs + lo : -kInfinity;
      range.hi = std::isfinite(hi) ? rhs + hi : kInfinity;
    }
    report.rhs_range[static_cast<std::size_t>(i)] = range;
  }
  return report;
}

void solve_lp(const Problem& problem, const SimplexOptions& options,
              Solution& out) {
  solve_impl(problem, options, nullptr, out);
}

Solution SimplexSolver::solve(const Problem& problem) const {
  return solve_lp(problem, options_);
}

Solution solve_lp(const Problem& problem) {
  return solve_lp(problem, SimplexOptions{});
}

Solution solve_lp(const Problem& problem, const SimplexOptions& options) {
  Solution sol;
  solve_lp(problem, options, sol);
  return sol;
}

}  // namespace gridsec::lp
