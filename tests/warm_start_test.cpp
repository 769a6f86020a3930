// Warm-start semantics: Basis serialization, crash selection from stale or
// incompatible bases, dual-simplex re-solves of bound-changed siblings,
// warm-started branch-and-bound, and certificate parity between warm and
// cold solves. Every solve here is additionally re-verified by the
// certify_all hook riding in this binary.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/cps/impact.hpp"
#include "gridsec/cps/ownership.hpp"
#include "gridsec/cps/perturbation.hpp"
#include "gridsec/lp/basis.hpp"
#include "gridsec/lp/milp.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"

namespace gridsec::lp {
namespace {

std::int64_t counter(const char* name) {
  return obs::default_registry().counter(name).value();
}

// ---------------------------------------------------------------------------
// Basis serialization.

TEST(BasisSerialization, RoundTripsMixedStatuses) {
  Basis b;
  b.variables = {VarStatus::kBasic, VarStatus::kAtLower, VarStatus::kAtUpper,
                 VarStatus::kAtLower};
  b.rows = {VarStatus::kAtLower, VarStatus::kBasic};
  EXPECT_EQ(to_string(b), "v:BLUL|r:LB");
  auto parsed = parse_basis(to_string(b));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), b);
}

TEST(BasisSerialization, RoundTripsEmpty) {
  Basis b;
  EXPECT_EQ(to_string(b), "v:|r:");
  auto parsed = parse_basis("v:|r:");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(BasisSerialization, RejectsMalformedText) {
  EXPECT_FALSE(parse_basis("").is_ok());
  EXPECT_FALSE(parse_basis("garbage").is_ok());
  EXPECT_FALSE(parse_basis("v:BL").is_ok());       // missing row frame
  EXPECT_FALSE(parse_basis("v:BLX|r:L").is_ok());  // unknown status letter
  EXPECT_FALSE(parse_basis("r:L|v:B").is_ok());    // frames out of order
}

// ---------------------------------------------------------------------------
// Warm LP re-solves from stale and rank-deficient bases.

Problem small_lp() {
  Problem p(Objective::kMaximize);
  const int x = p.add_variable("x", 0.0, 10.0, 3.0);
  const int y = p.add_variable("y", 0.0, 10.0, 2.0);
  const int z = p.add_variable("z", 0.0, 5.0, 1.0);
  p.add_constraint("cap", LinearExpr().add(x, 1.0).add(y, 1.0).add(z, 1.0),
                   Sense::kLessEqual, 12.0);
  p.add_constraint("mix", LinearExpr().add(x, 2.0).add(y, 1.0),
                   Sense::kLessEqual, 15.0);
  return p;
}

TEST(WarmStart, ResolveFromOwnBasisIsPivotFree) {
  const Problem p = small_lp();
  const Solution cold = SimplexSolver(SimplexOptions{}).solve(p);
  ASSERT_TRUE(cold.optimal());
  ASSERT_FALSE(cold.basis.empty());
  EXPECT_FALSE(cold.warm_started);

  const std::int64_t warm_before = counter("lp.simplex.warm_starts");
  SimplexOptions options;
  options.warm_start = cold.basis;
  const Solution warm = SimplexSolver(options).solve(p);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(counter("lp.simplex.warm_starts"), warm_before + 1);
  // Same basis, same vertex: the re-solve confirms the optimum without
  // any phase-1 work.
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * (1.0 + std::fabs(cold.objective)));
  EXPECT_EQ(warm.basis, cold.basis);
  EXPECT_EQ(warm.iterations, 0);
}

TEST(WarmStart, CrashRepairsStaleBasis) {
  Problem p = small_lp();
  const Solution cold = SimplexSolver(SimplexOptions{}).solve(p);
  ASSERT_TRUE(cold.optimal());

  // Perturb the problem so the old basis is stale (different optimal
  // vertex), then warm-start from it: the solver must repair and still
  // reach the perturbed problem's own optimum.
  Problem shifted = small_lp();
  shifted.set_objective_coef(0, -4.0);  // x now hurts the objective
  const Solution shifted_cold = SimplexSolver(SimplexOptions{}).solve(shifted);
  ASSERT_TRUE(shifted_cold.optimal());

  SimplexOptions options;
  options.warm_start = cold.basis;
  const Solution shifted_warm = SimplexSolver(options).solve(shifted);
  ASSERT_TRUE(shifted_warm.optimal());
  EXPECT_TRUE(shifted_warm.warm_started);
  EXPECT_NEAR(shifted_warm.objective, shifted_cold.objective,
              1e-9 * (1.0 + std::fabs(shifted_cold.objective)));
}

TEST(WarmStart, CrashRepairsOverfullBasis) {
  const Problem p = small_lp();
  const Solution cold = SimplexSolver(SimplexOptions{}).solve(p);
  ASSERT_TRUE(cold.optimal());

  // Every variable and every row marked basic: five candidate columns for
  // a two-row basis. The crash selection must demote the dependent ones
  // (each demotion is a counted repair) and still reach the optimum.
  Basis bogus;
  bogus.variables = {VarStatus::kBasic, VarStatus::kBasic, VarStatus::kBasic};
  bogus.rows = {VarStatus::kBasic, VarStatus::kBasic};
  const std::int64_t repairs_before = counter("lp.simplex.basis_repairs");
  SimplexOptions options;
  options.warm_start = bogus;
  const Solution warm = SimplexSolver(options).solve(p);
  ASSERT_TRUE(warm.optimal());
  EXPECT_GT(counter("lp.simplex.basis_repairs"), repairs_before);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * (1.0 + std::fabs(cold.objective)));
}

TEST(WarmStart, RejectsBasisWithWrongRowCount) {
  const Problem p = small_lp();
  const Solution cold = SimplexSolver(SimplexOptions{}).solve(p);
  ASSERT_TRUE(cold.optimal());

  // A basis from a structurally different problem (wrong row count)
  // cannot be mapped onto this tableau; the solver falls back to a cold
  // solve rather than guessing.
  Basis foreign;
  foreign.variables = {VarStatus::kAtLower};
  foreign.rows = {VarStatus::kBasic, VarStatus::kBasic, VarStatus::kBasic};
  const std::int64_t rejects_before = counter("lp.simplex.warm_start_rejects");
  SimplexOptions options;
  options.warm_start = foreign;
  const Solution sol = SimplexSolver(options).solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_FALSE(sol.warm_started);
  EXPECT_EQ(counter("lp.simplex.warm_start_rejects"), rejects_before + 1);
  EXPECT_NEAR(sol.objective, cold.objective,
              1e-9 * (1.0 + std::fabs(cold.objective)));
}

TEST(WarmStart, KillSwitchForcesColdSolves) {
  const Problem p = small_lp();
  const Solution cold = SimplexSolver(SimplexOptions{}).solve(p);
  ASSERT_TRUE(cold.optimal());

  set_warm_start_enabled(false);
  SimplexOptions options;
  options.warm_start = cold.basis;
  const Solution sol = SimplexSolver(options).solve(p);
  set_warm_start_enabled(true);
  ASSERT_TRUE(sol.optimal());
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, cold.objective,
              1e-9 * (1.0 + std::fabs(cold.objective)));
}

// ---------------------------------------------------------------------------
// The Figure 4 warm chain (bench/fig4_impact_matrix --trials=5): five
// sigma = 0.05 views of the western-US model with 6 random owners, each
// impact matrix warm-seeded from the previous one's base basis. An attack
// only changes its asset's bounds, so the base basis stays dual feasible
// and the dual simplex finishes every attacked re-solve from it.

/// Restores the process-wide warm-start switch on scope exit.
struct WarmSwitch {
  explicit WarmSwitch(bool enabled) { set_warm_start_enabled(enabled); }
  ~WarmSwitch() { set_warm_start_enabled(true); }
  WarmSwitch(const WarmSwitch&) = delete;
  WarmSwitch& operator=(const WarmSwitch&) = delete;
};

void impact_chain(bool warm, std::vector<cps::ImpactResult>& out) {
  const WarmSwitch guard(warm);
  const sim::WesternUsModel m = sim::build_western_us();
  Rng owner_rng(2015);
  const cps::Ownership owners = cps::Ownership::random(
      static_cast<int>(m.network.num_edges()), 6, owner_rng);
  cps::NoiseSpec noise;
  noise.sigma = 0.05;
  cps::ImpactOptions impact;
  Rng parent(2015);
  for (int t = 0; t < 5; ++t) {
    Rng rng = parent.derive_stream(static_cast<std::uint64_t>(t));
    const flow::Network view = cps::perturb_knowledge(m.network, noise, rng);
    auto im = cps::compute_impact_matrix(view, owners, impact);
    ASSERT_TRUE(im.is_ok()) << im.status().message();
    if (warm) impact.warm_start = im->base_basis;
    out.push_back(std::move(*im));
  }
}

TEST(WarmStart, ImpactChainNeverFallsBackToColdAndMatchesColdSweep) {
  const std::int64_t rejects_before = counter("lp.simplex.warm_start_rejects");
  const std::int64_t warm_before = counter("lp.simplex.warm_starts");
  std::vector<cps::ImpactResult> warm;
  impact_chain(true, warm);
  ASSERT_EQ(warm.size(), 5u);
  EXPECT_EQ(counter("lp.simplex.warm_start_rejects"), rejects_before);
  EXPECT_GT(counter("lp.simplex.warm_starts"), warm_before);

  std::vector<cps::ImpactResult> cold;
  impact_chain(false, cold);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t v = 0; v < cold.size(); ++v) {
    const cps::ImpactMatrix& wm = warm[v].matrix;
    const cps::ImpactMatrix& cm = cold[v].matrix;
    const double tol = 1e-6 * (1.0 + std::fabs(cold[v].base_welfare));
    EXPECT_NEAR(warm[v].base_welfare, cold[v].base_welfare, tol);
    ASSERT_EQ(wm.num_targets(), cm.num_targets());
    ASSERT_EQ(wm.num_actors(), cm.num_actors());
    for (int target = 0; target < cm.num_targets(); ++target) {
      EXPECT_NEAR(wm.system_impact(target), cm.system_impact(target), tol)
          << "view " << v << " target " << target;
      for (int actor = 0; actor < cm.num_actors(); ++actor) {
        EXPECT_NEAR(wm.at(actor, target), cm.at(actor, target), tol)
            << "view " << v << " actor " << actor << " target " << target;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-started branch and bound.

Problem small_milp() {
  Problem p(Objective::kMaximize);
  const int a = p.add_binary("a", 5.0);
  const int b = p.add_binary("b", 4.0);
  const int c = p.add_binary("c", 3.0);
  const int x = p.add_variable("x", 0.0, 4.0, 1.0);
  p.add_constraint(
      "knap", LinearExpr().add(a, 4.0).add(b, 3.0).add(c, 2.0).add(x, 1.0),
      Sense::kLessEqual, 7.0);
  return p;
}

TEST(WarmStart, BranchAndBoundReachesSameIncumbent) {
  const Problem p = small_milp();
  const Solution first = BranchAndBoundSolver(BranchAndBoundOptions{}).solve(p);
  ASSERT_TRUE(first.optimal());
  ASSERT_FALSE(first.basis.empty());

  // Re-solving with the incumbent's relaxation basis as the root warm
  // start must reproduce the incumbent exactly.
  BranchAndBoundOptions options;
  options.lp_options.warm_start = first.basis;
  const Solution second = BranchAndBoundSolver(options).solve(p);
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, first.objective,
              1e-9 * (1.0 + std::fabs(first.objective)));
  ASSERT_EQ(second.x.size(), first.x.size());
  for (std::size_t j = 0; j < first.x.size(); ++j) {
    EXPECT_NEAR(second.x[j], first.x[j], 1e-6) << "variable " << j;
  }
}

// ---------------------------------------------------------------------------
// Certificate parity: a warm solve must be as certifiable as a cold one.

TEST(WarmStart, CertificateResidualsMatchColdSolve) {
  const Problem p = small_lp();
  const Solution cold = SimplexSolver(SimplexOptions{}).solve(p);
  ASSERT_TRUE(cold.optimal());
  SimplexOptions options;
  options.warm_start = cold.basis;
  const Solution warm = SimplexSolver(options).solve(p);
  ASSERT_TRUE(warm.optimal());

  const obs::Certificate cc = obs::certify(p, cold);
  const obs::Certificate wc = obs::certify(p, warm);
  EXPECT_EQ(cc.verdict, obs::CertVerdict::kVerified);
  EXPECT_EQ(wc.verdict, obs::CertVerdict::kVerified);
  // Identical basis => identical recomputed solution => identical
  // residuals (up to roundoff in the independent checker).
  EXPECT_NEAR(wc.primal_residual, cc.primal_residual, 1e-12);
  EXPECT_NEAR(wc.bound_residual, cc.bound_residual, 1e-12);
  EXPECT_NEAR(wc.dual_residual, cc.dual_residual, 1e-12);
  EXPECT_NEAR(wc.reduced_cost_residual, cc.reduced_cost_residual, 1e-12);
  EXPECT_NEAR(wc.complementary_slackness, cc.complementary_slackness, 1e-12);
  EXPECT_NEAR(wc.duality_gap, cc.duality_gap, 1e-12);
  EXPECT_NEAR(wc.objective_residual, cc.objective_residual, 1e-12);
}

}  // namespace
}  // namespace gridsec::lp
