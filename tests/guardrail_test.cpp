// Tests for the solver guardrails: NaN/Inf input validation, wall-clock
// time limits, and cycling detection with the Bland's-rule fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gridsec/lp/milp.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/obs/metrics.hpp"

namespace gridsec::lp {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// A small LP that needs at least one pivot: maximize x+y subject to a
/// coupling row, optimum away from the initial all-lower-bound point.
Problem pivoting_lp() {
  Problem p(Objective::kMaximize);
  const int x = p.add_variable("x", 0.0, 10.0, 1.0);
  const int y = p.add_variable("y", 0.0, 10.0, 1.0);
  p.add_constraint("cap", LinearExpr().add(x, 1.0).add(y, 1.0),
                   Sense::kLessEqual, 12.0);
  return p;
}

/// A knapsack with enough binaries that branch-and-bound explores nodes.
Problem knapsack_milp(int n) {
  Problem p(Objective::kMaximize);
  LinearExpr weight;
  for (int i = 0; i < n; ++i) {
    const int v = p.add_binary("item" + std::to_string(i),
                               1.0 + 0.37 * i - 0.01 * i * i);
    weight.add(v, 1.0 + 0.53 * ((i * 7) % 11));
  }
  p.add_constraint("budget", std::move(weight), Sense::kLessEqual,
                   1.7 * n);
  return p;
}

// ---------------------------------------------------------------------------
// NaN/Inf validation: poisoned data must come back as a typed verdict, never
// corrupt the pivoting arithmetic or abort.

TEST(Guardrails, ValidateProblemRejectsNanObjective) {
  Problem p;
  p.add_variable("x", 0.0, 1.0, kNan);
  EXPECT_FALSE(validate_problem(p).is_ok());
  EXPECT_EQ(validate_problem(p).code(), ErrorCode::kNumericalError);
}

TEST(Guardrails, ValidateProblemAcceptsCleanProblem) {
  EXPECT_TRUE(validate_problem(pivoting_lp()).is_ok());
}

TEST(Guardrails, SimplexRejectsNanObjective) {
  Problem p = pivoting_lp();
  p.set_objective_coef(0, kNan);
  EXPECT_EQ(SimplexSolver().solve(p).status, SolveStatus::kNumericalError);
}

TEST(Guardrails, SimplexRejectsInfConstraintCoefficient) {
  Problem p = pivoting_lp();
  p.add_constraint("bad", LinearExpr().add(0, kInfinity),
                   Sense::kLessEqual, 1.0);
  EXPECT_EQ(SimplexSolver().solve(p).status, SolveStatus::kNumericalError);
}

TEST(Guardrails, SimplexRejectsNanRhs) {
  Problem p = pivoting_lp();
  p.set_rhs(0, kNan);
  EXPECT_EQ(SimplexSolver().solve(p).status, SolveStatus::kNumericalError);
}

TEST(Guardrails, MilpRejectsNanData) {
  Problem p = knapsack_milp(6);
  p.set_objective_coef(2, kNan);
  EXPECT_EQ(solve_milp(p).status, SolveStatus::kNumericalError);
}

// ---------------------------------------------------------------------------
// Time limits: an expired deadline is a typed budget verdict.

TEST(Guardrails, SimplexTimeLimitExpires) {
  SimplexOptions opt;
  opt.time_limit_ms = 1e-9;  // armed and already expired at the first pivot
  const Solution sol = SimplexSolver(opt).solve(pivoting_lp());
  EXPECT_EQ(sol.status, SolveStatus::kTimeLimit);
  EXPECT_TRUE(is_budget_limited(sol.status));
}

TEST(Guardrails, SimplexGenerousTimeLimitSolves) {
  SimplexOptions opt;
  opt.time_limit_ms = 1e9;
  const Solution sol = SimplexSolver(opt).solve(pivoting_lp());
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-9);
}

TEST(Guardrails, MilpTimeLimitReturnsTimeLimit) {
  BranchAndBoundOptions opt;
  opt.time_limit_ms = 1e-9;
  const Solution sol = BranchAndBoundSolver(opt).solve(knapsack_milp(24));
  EXPECT_EQ(sol.status, SolveStatus::kTimeLimit);
  // Whatever incumbent came back (possibly none) must be feasible.
  if (!sol.x.empty()) {
    EXPECT_TRUE(knapsack_milp(24).is_feasible(sol.x, 1e-6));
  }
}

TEST(Guardrails, MilpGenerousTimeLimitSolves) {
  BranchAndBoundOptions opt;
  opt.time_limit_ms = 1e9;
  const Solution sol = BranchAndBoundSolver(opt).solve(knapsack_milp(12));
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
}

// ---------------------------------------------------------------------------
// Cycling detection: a degenerate pivot streak forces Bland's rule, which
// provably terminates.

TEST(Guardrails, DegeneratePivotTriggersBlandFallback) {
  // maximize x s.t. x <= 0: the only pivot has step length zero, so with a
  // streak limit of one the fallback must fire on that pivot.
  Problem p(Objective::kMaximize);
  const int x = p.add_variable("x", 0.0, 10.0, 1.0);
  p.add_constraint("pin", LinearExpr().add(x, 1.0), Sense::kLessEqual, 0.0);

  auto& c_fallbacks =
      obs::default_registry().counter("lp.simplex.cycle_fallbacks");
  const std::int64_t before = c_fallbacks.value();

  SimplexOptions opt;
  opt.cycle_streak_limit = 1;
  const Solution sol = SimplexSolver(opt).solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);
  EXPECT_GE(c_fallbacks.value(), before + 1);
}

TEST(Guardrails, BealeCyclingExampleTerminates) {
  // Beale's classic cycling LP (minimize). Dantzig-style pricing cycles on
  // it without safeguards; the optimum is -1/20.
  Problem p(Objective::kMinimize);
  const int x1 = p.add_variable("x1", 0.0, kInfinity, -0.75);
  const int x2 = p.add_variable("x2", 0.0, kInfinity, 150.0);
  const int x3 = p.add_variable("x3", 0.0, kInfinity, -0.02);
  const int x4 = p.add_variable("x4", 0.0, kInfinity, 6.0);
  p.add_constraint(
      "r1",
      LinearExpr().add(x1, 0.25).add(x2, -60.0).add(x3, -0.04).add(x4, 9.0),
      Sense::kLessEqual, 0.0);
  p.add_constraint(
      "r2",
      LinearExpr().add(x1, 0.5).add(x2, -90.0).add(x3, -0.02).add(x4, 3.0),
      Sense::kLessEqual, 0.0);
  p.add_constraint("r3", LinearExpr().add(x3, 1.0), Sense::kLessEqual, 1.0);

  SimplexOptions opt;
  opt.cycle_streak_limit = 2;  // aggressive: fall back almost immediately
  const Solution sol = SimplexSolver(opt).solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);
}

TEST(Guardrails, CycleFallbackPreservesOptimum) {
  // Forcing the fallback on every solve must not change the answer.
  const Problem p = pivoting_lp();
  SimplexOptions aggressive;
  aggressive.cycle_streak_limit = 1;
  const Solution a = SimplexSolver().solve(p);
  const Solution b = SimplexSolver(aggressive).solve(p);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
}

}  // namespace
}  // namespace gridsec::lp
