#include "gridsec/robust/recovery.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gridsec/lp/basis.hpp"
#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"

namespace gridsec::robust {
namespace {

// Re-entrancy guard: the ladder's inner solves go through the same
// SimplexSolver entry point that invokes the hook; without this a failing
// rung would recurse into another ladder.
thread_local int g_in_recovery = 0;
thread_local int g_disabled_depth = 0;

struct InRecoveryGuard {
  InRecoveryGuard() { ++g_in_recovery; }
  ~InRecoveryGuard() { --g_in_recovery; }
};

/// The bar a rung's answer must clear to be adopted. On ill-conditioned
/// data, wrong answers routinely pass the default 1e-6 tolerances (a
/// dual-sign or equality violation at ~1e-7 relative looks "verified")
/// while the 1e-9 certificate still discriminates.
constexpr double kAdoptTol = 1e-9;

/// True when equilibration had to span more than ~2^20 of dynamic range —
/// the regime where simplex tolerances (feasibility 1e-7, pivot 1e-11)
/// start to blur hard verdicts: a row scaled to the noise floor can make
/// phase-1 report infeasibility that isn't there.
bool severely_scaled(const lp::Equilibrated& eq) {
  if (!eq.scaled_any()) return false;
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const double f : eq.row_scale()) {
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  for (const double f : eq.col_scale()) {
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  return hi > lo * 0x1p20;
}

/// Runs the ladder for `*solution`, the untrustworthy answer of a plain
/// solve of `problem` under `options` (`eq` is the problem's
/// equilibration). Replaces it with the first rung answer that certifies
/// and returns true; otherwise leaves it in place with the trail of what
/// was tried attached.
bool run_ladder(const lp::Problem& problem, const lp::SimplexOptions& options,
                const lp::Equilibrated& eq, lp::Solution* solution) {
  auto& reg = obs::default_registry();
  static obs::Counter& c_attempts = reg.counter("robust.recovery.attempts");
  static obs::Counter& c_resolved = reg.counter("robust.recovery.resolved");
  c_attempts.add(1);
  GRIDSEC_LOG(kWarn, "robust.recovery")
      .field("rows", problem.num_constraints())
      .field("cols", problem.num_variables())
      .message("numerical failure: recovery ladder engaged");

  // The solver's own attempts open the trail: the warm one when a warm
  // basis was configured, and a cold one unless the answer came back from
  // the warm start (then no cold solve ran).
  std::vector<lp::RecoveryStepInfo> trail;
  if (lp::warm_start_enabled() && !options.warm_start.empty()) {
    trail.push_back({"warm", solution->status, false});
  }
  if (!solution->warm_started) {
    trail.push_back({"cold", solution->status, false});
  }
  const auto record = [&](std::string_view rung,
                          const lp::Solution& candidate, bool certified) {
    trail.push_back({std::string(rung), candidate.status, certified});
    reg.counter("robust.recovery.rung." + std::string(rung)).add(1);
    GRIDSEC_LOG(kInfo, "robust.recovery")
        .field("rung", rung)
        .field("status", lp::to_string(candidate.status))
        .field("certified", certified)
        .message("recovery rung attempted");
  };

  // The rung attempts are diagnostics: they routinely produce uncertifiable
  // "optima" on the way to a certified one, and an armed audit hook would
  // count each as a product defect. The ladder certifies every candidate
  // itself (scale-invariantly, tighter than the audit default) before
  // adopting it; the original failing solve already reported normally.
  lp::ScopedSolveHookSuppress no_audit;
  lp::SimplexOptions cold = options;
  cold.warm_start = {};
  lp::SimplexOptions bland = cold;
  bland.bland = true;

  std::string_view rung = "bland";
  lp::Solution candidate = lp::solve_lp(problem, bland);
  bool certified = certified_optimum(problem, eq, candidate, kAdoptTol);
  record(rung, candidate, certified);
  if (!certified && eq.scaled_any()) {
    rung = "equilibrated";
    candidate = eq.unscale(lp::solve_lp(eq.scaled(), cold));
    certified = certified_optimum(problem, eq, candidate, kAdoptTol);
    if (!certified) {
      // Bland's rule on the equilibrated data — slow, cycling-proof,
      // well-scaled: the path the stress fuzzer's oracle takes.
      candidate = eq.unscale(lp::solve_lp(eq.scaled(), bland));
      certified = certified_optimum(problem, eq, candidate, kAdoptTol);
    }
    record(rung, candidate, certified);
  }

  if (!certified) {
    GRIDSEC_LOG(kWarn, "robust.recovery")
        .field("steps", static_cast<std::int64_t>(trail.size()))
        .message("recovery ladder exhausted without a certified optimum");
    solution->recovery_trail = std::move(trail);
    return false;
  }
  c_resolved.add(1);
  GRIDSEC_LOG(kWarn, "robust.recovery")
      .field("rung", rung)
      .field("objective", candidate.objective)
      .field("steps", static_cast<std::int64_t>(trail.size()))
      .message("recovery ladder resolved the solve");
  candidate.recovery_trail = std::move(trail);
  *solution = std::move(candidate);
  return true;
}

/// The lp::RecoveryHook body: runs the ladder in place.
bool recovery_hook_fn(const lp::Problem& problem,
                      const lp::SimplexOptions& options,
                      lp::Solution* solution) {
  if (g_in_recovery > 0 || g_disabled_depth > 0) return false;
  // Invalid input is rejected, not recovered: the kNumericalError verdict
  // for NaN/Inf/magnitude-cap data is the correct final answer.
  if (!lp::validate_problem(problem).is_ok()) return false;
  InRecoveryGuard guard;
  return run_ladder(problem, options, lp::equilibrate(problem), solution);
}

}  // namespace

bool certified_optimum(const lp::Problem& problem, const lp::Equilibrated& eq,
                       const lp::Solution& solution, double tol) {
  if (!solution.optimal()) return false;
  const obs::CertifyOptions cert{.feasibility_tol = tol,
                                 .dual_tol = tol,
                                 .duality_gap_tol = tol,
                                 .relaxation = true};
  if (!obs::certify(problem, solution, cert).ok()) return false;
  return !eq.scaled_any() ||
         obs::certify(eq.scaled(), eq.rescale(solution), cert).ok();
}

lp::Solution solve_with_recovery(const lp::Problem& problem,
                                 const lp::SimplexOptions& options) {
  // Suppress any installed hook for the whole call: the initial solve
  // must not run a second ladder.
  InRecoveryGuard guard;
  lp::Solution sol = lp::solve_lp(problem, options);
  // Engage on a numerically wedged verdict, an optimal claim that fails
  // the scale-invariant certificate, or — on severely scaled data only — a
  // hard infeasible/unbounded verdict, which extreme dynamic range can
  // fake (a row at the feasibility-tolerance noise floor convinces
  // phase-1 of an infeasibility that is not there). Conditioning failures
  // surface all three ways; the hook path only sees the first.
  if (sol.status == lp::SolveStatus::kNumericalError) {
    if (lp::validate_problem(problem).is_ok()) {
      run_ladder(problem, options, lp::equilibrate(problem), &sol);
    }
    return sol;
  }
  const bool hard = sol.status == lp::SolveStatus::kInfeasible ||
                    sol.status == lp::SolveStatus::kUnbounded;
  if (!sol.optimal() && !hard) return sol;
  const lp::Equilibrated eq = lp::equilibrate(problem);
  if (hard ? severely_scaled(eq)
           : !certified_optimum(problem, eq, sol, kAdoptTol)) {
    run_ladder(problem, options, eq, &sol);
  }
  return sol;
}

void install_recovery() { lp::set_recovery_hook(&recovery_hook_fn); }

void uninstall_recovery() { lp::set_recovery_hook(nullptr); }

bool recovery_installed() {
  return lp::recovery_hook() == &recovery_hook_fn;
}

ScopedRecoveryDisable::ScopedRecoveryDisable() { ++g_disabled_depth; }
ScopedRecoveryDisable::~ScopedRecoveryDisable() { --g_disabled_depth; }

}  // namespace gridsec::robust
