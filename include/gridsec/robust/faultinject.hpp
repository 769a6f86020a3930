// Seeded fault injection and differential fuzzing for the solver stack.
//
// FaultInjector perturbs well-formed lp::Problems and flow::Networks into
// the pathological states the guardrails are supposed to absorb: NaN/Inf
// costs, zero or (semantically) negative capacities, disconnected hubs,
// degenerate cost ties, and extreme coefficient ranges. Every injection is
// driven by an explicit seed, so a failing fuzz instance reproduces from
// its seed alone.
//
// run_differential_fuzz() is the harness: it generates seeded random
// instances, optionally injects faults, and cross-checks independent
// solution paths against each other —
//   * hardened SimplexSolver vs. a cold re-solve under Bland's rule from
//     the first pivot on the same LP (verdict classes must agree; optimal
//     objectives must match),
//   * StrategicAdversary::plan / plan_milp vs. the brute-force
//     plan_enumerate on small impact matrices,
//   * Network::validate vs. solve_social_welfare on faulted grids (invalid
//     data must surface as a typed status, never a crash),
//   * warm-started vs. cold SimplexSolver: re-solving a problem from its
//     own optimal basis, and a jittered sibling from the now-stale basis,
//     must reproduce the cold verdict and objective.
// Any disagreement is recorded as a failure with the instance seed; the
// acceptance bar is hundreds of seeded instances with zero failures under
// ASan/UBSan.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gridsec/flow/network.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/util/rng.hpp"

namespace gridsec::robust {

enum class FaultKind {
  kNanCost,           // objective / edge cost <- NaN
  kInfCost,           // objective / edge cost <- +/-Inf
  kZeroCapacity,      // variable fixed at its lower bound / edge capacity 0
  kNegativeCapacity,  // edge capacity < 0; LP analogue: a row demanding a
                      // nonnegative quantity stay below a negative rhs
  kDisconnectedHub,   // all edges incident to one hub zeroed out
  kDegenerateTies,    // two costs made exactly equal (pivot/argmax ties)
  kExtremeRange,      // coefficients rescaled by ~1e9 (conditioning stress)
  // Numerical-stress kinds (LP only; not in the classic random rotation —
  // the stress_numerics fuzz leg draws them from its own pool so legacy
  // fuzz streams stay bit-identical):
  kExtremeDynamicRange,    // rows/objective rescaled by 2^±30: ~1e18 of
                           // dynamic range inside one tableau
  kNearDegenerateScaling,  // one row scaled to ~1e-12, parking its pivots
                           // at the factorization's pivot tolerance
  kBasisDrift,             // near-duplicate of an existing row (relative
                           // 1e-12 perturbation): invites singular bases
                           // and eta-chain drift
};

std::string_view to_string(FaultKind kind);

/// What a sequence of inject() calls actually changed.
struct FaultReport {
  std::vector<FaultKind> applied;

  [[nodiscard]] bool has(FaultKind kind) const;
  /// True when NaN/Inf data was injected — solvers must answer
  /// kNumericalError, and Network::validate must reject.
  [[nodiscard]] bool poisons_data() const {
    return has(FaultKind::kNanCost) || has(FaultKind::kInfCost);
  }
  /// True when the network can no longer pass validate() for structural
  /// reasons (negative capacity).
  [[nodiscard]] bool breaks_network_domain() const {
    return poisons_data() || has(FaultKind::kNegativeCapacity);
  }
};

std::string to_string(const FaultReport& report);

/// Deterministic fault source: same seed, same target, same call sequence
/// => identical faults. Each inject() returns whether the kind applies to
/// that target (e.g. kDisconnectedHub is meaningless for a bare LP).
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  /// Applied faults are logged (kind + injector seed) so a failed solve's
  /// audit bundle shows what was done to the instance and how to redo it.
  bool inject(lp::Problem& p, FaultKind kind);
  bool inject(flow::Network& net, FaultKind kind);

  /// Draws `count` kinds uniformly and applies each; reports what stuck.
  FaultReport inject_random(lp::Problem& p, int count);
  FaultReport inject_random(flow::Network& net, int count);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  bool do_inject(lp::Problem& p, FaultKind kind);
  bool do_inject(flow::Network& net, FaultKind kind);

  std::uint64_t seed_;
  Rng rng_;
};

/// Multiplicative jitter on every objective coefficient (or edge cost):
/// c <- c * (1 + rel_scale * u), u ~ U(-1, 1): moves the optimum's
/// economics by at most O(rel_scale). The differential fuzz's warm-start
/// leg builds its jittered sibling with it (rel_scale 1e-4): a re-solve
/// from the original's now-stale basis that must agree with a cold solve.
void jitter_costs(lp::Problem& p, Rng& rng, double rel_scale = 1e-7);
void jitter_costs(flow::Network& net, Rng& rng, double rel_scale = 1e-7);

struct FuzzOptions {
  /// Number of seeded instances per leg (LP, adversary, network, warm).
  int instances = 500;
  std::uint64_t seed = 0xFA017ULL;
  /// Probability an instance receives injected faults at all.
  double fault_prob = 0.6;
  /// Faults drawn per faulted instance (kinds may repeat).
  int max_faults = 2;
  /// Per-solve wall-clock guardrail handed to the simplex options.
  double time_limit_ms = 2000.0;
  /// Objective agreement tolerance for optimal-vs-optimal cross-checks.
  double objective_tol = 1e-6;
  /// Enables the numerical-stress leg: instances faulted with the
  /// kExtremeDynamicRange / kNearDegenerateScaling / kBasisDrift pool,
  /// solved three ways — a cold Bland's-rule reference, a plain solve
  /// with recovery suppressed, and solve_with_recovery() — and
  /// cross-checked: every certified optimum must match the reference.
  /// Off by default; drawn from an independent seed stream, so enabling
  /// it never perturbs the four classic legs.
  bool stress_numerics = false;
};

struct FuzzStats {
  int instances = 0;         // total instances exercised across all legs
  int faulted = 0;           // instances that received injected faults
  int lp_checks = 0;         // default-vs-Bland simplex comparisons run
  int adversary_checks = 0;  // plan/plan_milp-vs-enumerate comparisons run
  int network_checks = 0;    // validate-vs-solve pipeline probes run
  int warm_checks = 0;       // warm-vs-cold simplex comparisons run
  int recovery_checks = 0;   // stress-leg instances with a certified oracle
  /// Stress-leg instances the plain (recovery-suppressed) solve failed to
  /// certify — the denominator of the ladder's resolution rate.
  int recovery_failed_plain = 0;
  /// Of those, how many the recovery ladder brought back to a certified
  /// optimum matching the reference (acceptance bar: >= 80%).
  int recovery_resolved = 0;
  /// Tally of final solve statuses seen, keyed by lp::to_string(status).
  std::vector<std::pair<std::string, int>> status_counts;
  /// Human-readable disagreement diagnostics (each includes the seed).
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

std::string to_string(const FuzzStats& stats);

/// Runs the full differential harness. Deterministic in options.seed.
FuzzStats run_differential_fuzz(const FuzzOptions& options = {});

}  // namespace gridsec::robust
