// Numerical-recovery ladder for LP solves (gridsec::robust::recovery).
//
// A solve that ends in SolveStatus::kNumericalError on *valid* input is a
// conditioning problem, not a modelling problem — the instance usually has
// a certified optimum that a differently-conditioned solve path can reach.
// The ladder tries two such paths, in this fixed order:
//
//   bland         cold start with Bland's rule from the first pivot —
//                 slow, cycling-proof, numerically boring
//   equilibrated  Ruiz-equilibrate (power-of-two factors), solve the
//                 scaled problem cold and unscale exactly; when that answer
//                 does not certify, solve the scaled problem once more with
//                 Bland's rule. Skipped when equilibration scaled nothing.
//
// A rung's answer is adopted only when certified_optimum() accepts it at
// 1e-9 tolerances. Every attempt — including the failed ones, and the
// solver's own warm and cold attempts before the ladder — is recorded in
// Solution::recovery_trail, which flows into audit bundles, the JSONL log,
// and `gridsec-inspect`.
//
// Two ways in:
//   * solve_with_recovery() — explicit call.
//   * install_recovery() — registers the lp::RecoveryHook so EVERY
//     SimplexSolver::solve in the process (direct LP solves, MILP
//     branch-and-bound node relaxations, compute_impact_matrix, the
//     adversary/defender/game loops, Monte-Carlo trials) escalates
//     automatically when it hits kNumericalError. The hook re-enters the
//     solver; a thread-local guard makes the inner rung solves immune to
//     re-triggering. `gridsec_cli --recovery=off` leaves it uninstalled.
//
// The ladder is OFF the clean-solve hot path: it only runs after a
// kNumericalError verdict, which clean instances never produce.
// See docs/robustness.md#numerical-recovery-robustrecovery.
#pragma once

#include "gridsec/lp/equilibrate.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"

namespace gridsec::robust {

/// The scale-invariant certificate: true when `solution` is optimal and
/// obs::certify (relaxation mode, feasibility/dual/gap tolerances all
/// `tol`) accepts it against `problem` AND, when `eq` scaled anything,
/// eq.rescale(solution) against eq.scaled(). The second check keeps
/// pathologically scaled rows honest: a row scaled to ~1e-12 can hide an
/// arbitrarily wrong primal point below certify()'s relative tolerances on
/// the original data alone. `eq` must be lp::equilibrate(problem).
[[nodiscard]] bool certified_optimum(const lp::Problem& problem,
                                     const lp::Equilibrated& eq,
                                     const lp::Solution& solution,
                                     double tol);

/// Solves `problem` and runs the ladder when the answer is not
/// trustworthy: a kNumericalError verdict on valid input, a kOptimal claim
/// that certified_optimum() rejects at 1e-9, or — on severely scaled data
/// only (factor dynamic range beyond 2^20) — a kInfeasible/kUnbounded
/// verdict, which extreme scaling can fake. The returned Solution carries
/// the recovery_trail whenever the ladder engaged (even if every rung
/// failed — the final answer is then the original one). Invalid input
/// (validate_problem failure) is never "recovered": the rejection verdict
/// is returned as-is.
[[nodiscard]] lp::Solution solve_with_recovery(
    const lp::Problem& problem, const lp::SimplexOptions& options = {});

/// Installs the process-global lp::RecoveryHook. Every subsequent solve
/// that ends in kNumericalError (after the solver's own warm→cold retry)
/// runs the ladder in place. Thread-safe; the hook itself is
/// re-entrancy-guarded.
void install_recovery();
/// Uninstalls the hook (solves fail plainly again).
void uninstall_recovery();
/// True when the hook is installed.
[[nodiscard]] bool recovery_installed();

/// RAII: suppresses the installed recovery hook on the CURRENT THREAD for
/// its lifetime. The differential fuzzer uses this to measure how an
/// instance fares *without* the ladder while other threads keep theirs.
class ScopedRecoveryDisable {
 public:
  ScopedRecoveryDisable();
  ~ScopedRecoveryDisable();
  ScopedRecoveryDisable(const ScopedRecoveryDisable&) = delete;
  ScopedRecoveryDisable& operator=(const ScopedRecoveryDisable&) = delete;
};

}  // namespace gridsec::robust
