#include "gridsec/robust/recovery.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "gridsec/lp/basis.hpp"
#include "gridsec/lp/presolve.hpp"
#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/robust/faultinject.hpp"
#include "gridsec/util/rng.hpp"

namespace gridsec::robust {
namespace {

std::mutex g_policy_mutex;
RecoveryPolicy g_policy;  // guarded by g_policy_mutex
std::atomic<bool> g_enabled{true};

// Re-entrancy guard: the ladder's inner solves go through the same
// SimplexSolver entry point that invokes the hook; without this a failing
// rung would recurse into another ladder.
thread_local int g_in_recovery = 0;
thread_local int g_disabled_depth = 0;

struct InRecoveryGuard {
  InRecoveryGuard() { ++g_in_recovery; }
  ~InRecoveryGuard() { --g_in_recovery; }
};

RecoveryPolicy current_policy() {
  std::lock_guard<std::mutex> lock(g_policy_mutex);
  return g_policy;
}

lp::Solution plain_solve(const lp::Problem& problem,
                         const lp::SimplexOptions& options) {
  // solve_lp skips the options/basis copy a SimplexSolver construction
  // adds; each rung reuses the calling thread's solver workspace (the
  // rungs run sequentially, after the failing solve's lease is released).
  return lp::solve_lp(problem, options);
}

/// Certification tiers. kStrict (1e-9 tolerances) is the acceptance bar
/// a rung must clear to stop the escalation: on ill-conditioned data,
/// wrong answers routinely pass the default 1e-6 tolerances (a dual-sign
/// or equality violation at ~1e-7 relative looks "verified") while the
/// tight certificate still discriminates. kLoose (the defaults) is the
/// fallback bar: when no rung certifies strictly, a loosely certified
/// answer is still far better than a kNumericalError verdict.
enum class CertTier { kLoose, kStrict };

bool certified_optimum(const lp::Problem& problem,
                       const lp::Equilibrated& eq,
                       const lp::Solution& candidate, CertTier tier);

/// Runs one rung. Returns true when the rung was structurally applicable
/// (a solve actually happened); `*out` then holds the rung's answer for
/// the ORIGINAL problem. `eq` is the problem's equilibration, computed
/// once per ladder engagement.
bool attempt_rung(RecoveryRung rung, const lp::Problem& problem,
                  const lp::Equilibrated& eq,
                  const lp::SimplexOptions& base,
                  const RecoveryPolicy& policy, lp::Solution* out) {
  const bool have_warm =
      lp::warm_start_enabled() && !base.warm_start.empty();
  switch (rung) {
    case RecoveryRung::kWarm: {
      if (!have_warm) return false;
      *out = plain_solve(problem, base);
      return true;
    }
    case RecoveryRung::kRepairedBasis: {
      if (!have_warm) return false;
      lp::SimplexOptions o = base;
      // Keep the variable statuses (the economically meaningful part of a
      // stale basis) but hand every row back to its slack — the row block
      // is where drifted bases go rank-deficient; the crash selection then
      // rebuilds a consistent basis around the surviving variable info.
      for (auto& s : o.warm_start.rows) s = lp::VarStatus::kBasic;
      *out = plain_solve(problem, o);
      return true;
    }
    case RecoveryRung::kCold: {
      lp::SimplexOptions o = base;
      o.warm_start = {};
      *out = plain_solve(problem, o);
      return true;
    }
    case RecoveryRung::kBland: {
      lp::SimplexOptions o = base;
      o.warm_start = {};
      o.bland_after = -1;  // Bland's rule from the first pivot
      *out = plain_solve(problem, o);
      return true;
    }
    case RecoveryRung::kEquilibrated: {
      if (!eq.scaled_any()) return false;  // already well-scaled: no-op rung
      lp::SimplexOptions o = base;
      o.warm_start = {};
      *out = eq.unscale(plain_solve(eq.scaled(), o));
      if (certified_optimum(problem, eq, *out, CertTier::kStrict)) {
        return true;
      }
      // The rung of last refuge before cost perturbation: Bland's rule on
      // the equilibrated data — slow, cycling-proof, well-scaled. This is
      // the same path the stress fuzzer's oracle takes.
      o.bland_after = -1;
      *out = eq.unscale(plain_solve(eq.scaled(), o));
      return true;
    }
    case RecoveryRung::kPerturbed: {
      lp::Problem jittered = problem;
      // Deterministic seed from the problem shape: the rung reproduces
      // without threading an Rng through the solver plumbing.
      const auto n = static_cast<std::uint64_t>(problem.num_variables());
      const auto m = static_cast<std::uint64_t>(problem.num_constraints());
      Rng rng(0x5EC0C0DEULL ^ (n << 16 | m));
      jitter_costs(jittered, rng, policy.perturbation_scale);
      lp::SimplexOptions o = base;
      o.warm_start = {};
      const lp::Solution jsol = plain_solve(jittered, o);
      if (!jsol.optimal() || jsol.basis.empty()) {
        *out = jsol;
        out->x.clear();  // the jittered point must not leak as an answer
        return true;
      }
      // Remove the perturbation: warm-start the ORIGINAL problem from the
      // jittered optimal basis. The certified answer is always for the
      // original costs.
      o.warm_start = jsol.basis;
      *out = plain_solve(problem, o);
      return true;
    }
  }
  return false;
}

struct LadderOutcome {
  lp::Solution solution;
  bool recovered = false;
};

/// Scale-invariant certification: the answer must verify against the
/// original problem AND (when equilibration found anything to do) against
/// the equilibrated problem, where every row is O(1). The second check is
/// what keeps pathologically scaled rows honest — a row scaled to ~1e-12
/// can hide an arbitrarily wrong primal point below certify()'s relative
/// tolerances on the original data alone.
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

obs::CertifyOptions tier_options(CertTier tier) {
  obs::CertifyOptions cert{.relaxation = true};
  if (tier == CertTier::kStrict) {
    cert.feasibility_tol = 1e-9;
    cert.dual_tol = 1e-9;
    cert.duality_gap_tol = 1e-9;
  }
  return cert;
}

bool certified_optimum(const lp::Problem& problem,
                       const lp::Equilibrated& eq,
                       const lp::Solution& candidate, CertTier tier) {
  if (!candidate.optimal()) return false;
  const obs::CertifyOptions cert = tier_options(tier);
  if (!obs::certify(problem, candidate, cert).ok()) return false;
  if (eq.scaled_any() &&
      !obs::certify(eq.scaled(), eq.rescale(candidate), cert).ok()) {
    return false;
  }
  return true;
}

/// Escalates through policy.rungs. `trail` already carries the failed
/// original attempt(s); `skip_attempted` removes kWarm/kCold rungs the
/// solver itself already ran (the hook path — re-running them bit-identical
/// would waste pivots).
LadderOutcome run_ladder(const lp::Problem& problem,
                         const lp::SimplexOptions& options,
                         const RecoveryPolicy& policy,
                         std::vector<lp::RecoveryStepInfo> trail,
                         bool skip_attempted) {
  auto& reg = obs::default_registry();
  static obs::Counter& c_attempts = reg.counter("robust.recovery.attempts");
  static obs::Counter& c_resolved = reg.counter("robust.recovery.resolved");
  c_attempts.add(1);
  GRIDSEC_LOG(kWarn, "robust.recovery")
      .field("rows", problem.num_constraints())
      .field("cols", problem.num_variables())
      .field("rungs", static_cast<std::int64_t>(policy.rungs.size()))
      .message("numerical failure: recovery ladder engaged");

  // The rung attempts are diagnostics: they routinely produce uncertifiable
  // "optima" on the way to a certified one, and an armed audit hook would
  // count each as a product defect. The ladder certifies every candidate
  // itself (scale-invariantly, tighter than the audit default) before
  // adopting it; the original failing solve already reported normally.
  lp::ScopedSolveHookSuppress no_audit;
  const lp::Equilibrated eq = lp::equilibrate(problem);
  // A rung's answer stops the escalation only when it clears the STRICT
  // certificate — on ill-conditioned data, wrong optima routinely pass the
  // loose (default-tolerance) check. A loosely certified answer is kept as
  // a fallback: if no rung certifies strictly, it is still a far better
  // verdict than the original numerical failure.
  lp::Solution fallback;
  std::size_t fallback_entry = 0;
  bool have_fallback = false;
  for (const RecoveryRung rung : policy.rungs) {
    if (skip_attempted &&
        (rung == RecoveryRung::kWarm || rung == RecoveryRung::kCold)) {
      continue;  // already in the trail from the solver's own attempts
    }
    lp::Solution candidate;
    if (!attempt_rung(rung, problem, eq, options, policy, &candidate)) {
      continue;  // structurally unavailable (no warm basis / no-op scaling)
    }
    const bool certified =
        certified_optimum(problem, eq, candidate, CertTier::kStrict);
    trail.push_back({std::string(to_string(rung)), candidate.status,
                     certified});
    reg.counter("robust.recovery.rung." + std::string(to_string(rung)))
        .add(1);
    GRIDSEC_LOG(kInfo, "robust.recovery")
        .field("rung", to_string(rung))
        .field("status", lp::to_string(candidate.status))
        .field("certified", certified)
        .message("recovery rung attempted");
    if (certified) {
      c_resolved.add(1);
      GRIDSEC_LOG(kWarn, "robust.recovery")
          .field("rung", to_string(rung))
          .field("objective", candidate.objective)
          .field("steps", static_cast<std::int64_t>(trail.size()))
          .message("recovery ladder resolved the solve");
      candidate.recovery_trail = std::move(trail);
      return {std::move(candidate), true};
    }
    if (!have_fallback &&
        certified_optimum(problem, eq, candidate, CertTier::kLoose)) {
      fallback = std::move(candidate);
      fallback_entry = trail.size() - 1;
      have_fallback = true;
    }
  }
  if (have_fallback) {
    c_resolved.add(1);
    trail[fallback_entry].certified = true;  // adopted under the loose tier
    GRIDSEC_LOG(kWarn, "robust.recovery")
        .field("rung", trail[fallback_entry].rung)
        .field("objective", fallback.objective)
        .field("steps", static_cast<std::int64_t>(trail.size()))
        .message(
            "recovery ladder resolved the solve (loose-tier certificate)");
    fallback.recovery_trail = std::move(trail);
    return {std::move(fallback), true};
  }
  GRIDSEC_LOG(kWarn, "robust.recovery")
      .field("steps", static_cast<std::int64_t>(trail.size()))
      .message("recovery ladder exhausted without a certified optimum");
  LadderOutcome out;
  out.solution.recovery_trail = std::move(trail);
  out.recovered = false;
  return out;
}

/// Trail entries for what the solver already tried before recovery ran:
/// the warm attempt (when one was configured) and the built-in cold retry.
std::vector<lp::RecoveryStepInfo> failed_attempt_trail(
    const lp::SimplexOptions& options, lp::SolveStatus status) {
  std::vector<lp::RecoveryStepInfo> trail;
  if (lp::warm_start_enabled() && !options.warm_start.empty()) {
    trail.push_back({std::string(to_string(RecoveryRung::kWarm)), status,
                     false});
  }
  trail.push_back({std::string(to_string(RecoveryRung::kCold)), status,
                   false});
  return trail;
}

/// The lp::RecoveryHook body: runs the installed policy's ladder in place.
bool recovery_hook_fn(const lp::Problem& problem,
                      const lp::SimplexOptions& options,
                      lp::Solution* solution) {
  if (g_in_recovery > 0 || g_disabled_depth > 0) return false;
  if (!g_enabled.load(std::memory_order_relaxed)) return false;
  const RecoveryPolicy policy = current_policy();
  if (!policy.enabled || policy.rungs.empty()) return false;
  // Invalid input is rejected, not recovered: the kNumericalError verdict
  // for NaN/Inf/magnitude-cap data is the correct final answer.
  if (!lp::validate_problem(problem).is_ok()) return false;
  InRecoveryGuard guard;
  LadderOutcome outcome =
      run_ladder(problem, options, policy,
                 failed_attempt_trail(options, solution->status),
                 /*skip_attempted=*/true);
  if (outcome.recovered) {
    *solution = std::move(outcome.solution);
    return true;
  }
  // Leave the failed solution in place but attach the trail documenting
  // what was tried — audit bundles of the failure show the whole ladder.
  solution->recovery_trail = std::move(outcome.solution.recovery_trail);
  return false;
}

}  // namespace

std::string_view to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kWarm:
      return "warm";
    case RecoveryRung::kRepairedBasis:
      return "repaired_basis";
    case RecoveryRung::kCold:
      return "cold";
    case RecoveryRung::kBland:
      return "bland";
    case RecoveryRung::kEquilibrated:
      return "equilibrated";
    case RecoveryRung::kPerturbed:
      return "perturbed";
  }
  return "unknown";
}

RecoveryPolicy RecoveryPolicy::ladder() {
  RecoveryPolicy p;
  p.rungs = {RecoveryRung::kRepairedBasis, RecoveryRung::kCold,
             RecoveryRung::kBland, RecoveryRung::kEquilibrated,
             RecoveryRung::kPerturbed};
  return p;
}

RecoveryPolicy RecoveryPolicy::off() {
  RecoveryPolicy p;
  p.enabled = false;
  return p;
}

lp::Solution solve_with_recovery(const lp::Problem& problem,
                                 const lp::SimplexOptions& options,
                                 const RecoveryPolicy& policy) {
  // Suppress any installed hook for the whole call: the explicit policy
  // is in charge, and the initial solve must not run a second ladder.
  InRecoveryGuard guard;
  lp::Solution sol = plain_solve(problem, options);
  if (!policy.enabled || policy.rungs.empty()) return sol;
  // Engage on a numerically wedged verdict, an optimal claim that fails
  // scale-invariant certification, or — on severely scaled data only — a
  // hard infeasible/unbounded verdict, which extreme dynamic range can
  // fake (a row at the feasibility-tolerance noise floor convinces
  // phase-1 of an infeasibility that is not there). Conditioning failures
  // surface all three ways; the hook path only sees the first.
  bool engage = false;
  if (sol.status == lp::SolveStatus::kNumericalError) {
    engage = lp::validate_problem(problem).is_ok();
  } else if (sol.status == lp::SolveStatus::kOptimal) {
    engage = !certified_optimum(problem, lp::equilibrate(problem), sol,
                                CertTier::kStrict);
  } else if (sol.status == lp::SolveStatus::kInfeasible ||
             sol.status == lp::SolveStatus::kUnbounded) {
    engage = severely_scaled(lp::equilibrate(problem));
  }
  if (!engage) return sol;
  LadderOutcome outcome =
      run_ladder(problem, options, policy,
                 failed_attempt_trail(options, sol.status),
                 /*skip_attempted=*/false);
  if (outcome.recovered) return std::move(outcome.solution);
  sol.recovery_trail = std::move(outcome.solution.recovery_trail);
  return sol;
}

void install_recovery(const RecoveryPolicy& policy) {
  {
    std::lock_guard<std::mutex> lock(g_policy_mutex);
    g_policy = policy;
  }
  lp::set_recovery_hook(&recovery_hook_fn);
}

void uninstall_recovery() { lp::set_recovery_hook(nullptr); }

bool recovery_installed() {
  return lp::recovery_hook() == &recovery_hook_fn;
}

void set_recovery_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool recovery_enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

ScopedRecoveryDisable::ScopedRecoveryDisable() { ++g_disabled_depth; }
ScopedRecoveryDisable::~ScopedRecoveryDisable() { --g_disabled_depth; }

}  // namespace gridsec::robust
