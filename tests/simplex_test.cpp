// Unit tests for the bounded-variable two-phase simplex solver.
#include "gridsec/lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gridsec/util/rng.hpp"

namespace gridsec::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Simplex, TrivialBoundsOnlyMinimize) {
  Problem p(Objective::kMinimize);
  p.add_variable("x", 1.0, 5.0, 2.0);
  p.add_variable("y", -3.0, 4.0, -1.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, kTol);   // positive cost -> lower bound
  EXPECT_NEAR(sol.x[1], 4.0, kTol);   // negative cost -> upper bound
  EXPECT_NEAR(sol.objective, 2.0 * 1.0 - 4.0, kTol);
}

TEST(Simplex, ClassicTwoVariableMaximize) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Hillier & Lieberman).
  Problem p(Objective::kMaximize);
  int x = p.add_variable("x", 0.0, kInfinity, 3.0);
  int y = p.add_variable("y", 0.0, kInfinity, 5.0);
  p.add_constraint("c1", LinearExpr().add(x, 1.0), Sense::kLessEqual, 4.0);
  p.add_constraint("c2", LinearExpr().add(y, 2.0), Sense::kLessEqual, 12.0);
  p.add_constraint("c3", LinearExpr().add(x, 3.0).add(y, 2.0),
                   Sense::kLessEqual, 18.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 36.0, kTol);
  EXPECT_NEAR(sol.x[0], 2.0, kTol);
  EXPECT_NEAR(sol.x[1], 6.0, kTol);
}

TEST(Simplex, EqualityConstraintsRequirePhase1) {
  // min x + 2y s.t. x + y = 10, x - y = 2  -> x=6, y=4.
  Problem p(Objective::kMinimize);
  int x = p.add_variable("x", 0.0, kInfinity, 1.0);
  int y = p.add_variable("y", 0.0, kInfinity, 2.0);
  p.add_constraint("sum", LinearExpr().add(x, 1.0).add(y, 1.0), Sense::kEqual,
                   10.0);
  p.add_constraint("diff", LinearExpr().add(x, 1.0).add(y, -1.0),
                   Sense::kEqual, 2.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 6.0, kTol);
  EXPECT_NEAR(sol.x[1], 4.0, kTol);
  EXPECT_NEAR(sol.objective, 14.0, kTol);
}

TEST(Simplex, DetectsInfeasible) {
  Problem p(Objective::kMinimize);
  int x = p.add_variable("x", 0.0, 1.0, 1.0);
  p.add_constraint("too_big", LinearExpr().add(x, 1.0), Sense::kGreaterEqual,
                   2.0);
  auto sol = solve_lp(p);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleConflictingRows) {
  Problem p(Objective::kMinimize);
  int x = p.add_variable("x", 0.0, kInfinity, 0.0);
  int y = p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint("a", LinearExpr().add(x, 1.0).add(y, 1.0), Sense::kEqual,
                   1.0);
  p.add_constraint("b", LinearExpr().add(x, 1.0).add(y, 1.0), Sense::kEqual,
                   3.0);
  auto sol = solve_lp(p);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p(Objective::kMaximize);
  int x = p.add_variable("x", 0.0, kInfinity, 1.0);
  int y = p.add_variable("y", 0.0, kInfinity, 0.0);
  p.add_constraint("c", LinearExpr().add(x, 1.0).add(y, -1.0),
                   Sense::kLessEqual, 5.0);
  auto sol = solve_lp(p);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(Simplex, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> x=7, y=3.
  Problem p(Objective::kMinimize);
  int x = p.add_variable("x", 2.0, kInfinity, 2.0);
  int y = p.add_variable("y", 3.0, kInfinity, 3.0);
  p.add_constraint("cover", LinearExpr().add(x, 1.0).add(y, 1.0),
                   Sense::kGreaterEqual, 10.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 7.0, kTol);
  EXPECT_NEAR(sol.x[1], 3.0, kTol);
  EXPECT_NEAR(sol.objective, 23.0, kTol);
}

TEST(Simplex, UpperBoundedVariablesBoundFlip) {
  // max x + y with x,y in [0,1] and x + y <= 1.5: optimum uses a partial.
  Problem p(Objective::kMaximize);
  int x = p.add_variable("x", 0.0, 1.0, 1.0);
  int y = p.add_variable("y", 0.0, 1.0, 1.0);
  p.add_constraint("cap", LinearExpr().add(x, 1.0).add(y, 1.0),
                   Sense::kLessEqual, 1.5);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.5, kTol);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 1.5, kTol);
}

TEST(Simplex, NegativeLowerBounds) {
  // min |style| objective with variables allowed negative.
  Problem p(Objective::kMinimize);
  int x = p.add_variable("x", -10.0, 10.0, 1.0);
  int y = p.add_variable("y", -10.0, 10.0, 2.0);
  p.add_constraint("c", LinearExpr().add(x, 1.0).add(y, 1.0), Sense::kEqual,
                   -5.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  // Cheapest way to sum to -5: y at its lower bound -10, x = 5.
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 5.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], -10.0, kTol);
  EXPECT_NEAR(sol.objective, 5.0 - 20.0, kTol);
}

TEST(Simplex, TransportationProblem) {
  // 2 suppliers (cap 20, 30), 2 consumers (demand 25 each), unit costs:
  //   s0->c0: 1, s0->c1: 4, s1->c0: 2, s1->c1: 1
  // Optimal: s0->c0 20, s1->c0 5, s1->c1 25 -> cost 20 + 10 + 25 = 55.
  Problem p(Objective::kMinimize);
  int f00 = p.add_variable("f00", 0.0, kInfinity, 1.0);
  int f01 = p.add_variable("f01", 0.0, kInfinity, 4.0);
  int f10 = p.add_variable("f10", 0.0, kInfinity, 2.0);
  int f11 = p.add_variable("f11", 0.0, kInfinity, 1.0);
  p.add_constraint("s0", LinearExpr().add(f00, 1.0).add(f01, 1.0),
                   Sense::kLessEqual, 20.0);
  p.add_constraint("s1", LinearExpr().add(f10, 1.0).add(f11, 1.0),
                   Sense::kLessEqual, 30.0);
  p.add_constraint("d0", LinearExpr().add(f00, 1.0).add(f10, 1.0),
                   Sense::kGreaterEqual, 25.0);
  p.add_constraint("d1", LinearExpr().add(f01, 1.0).add(f11, 1.0),
                   Sense::kGreaterEqual, 25.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 55.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(f00)], 20.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(f11)], 25.0, kTol);
}

TEST(Simplex, DualsMatchShadowPrices) {
  // max 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18.
  // Known duals: y1 = 0, y2 = 3/2, y3 = 1.
  Problem p(Objective::kMaximize);
  int x = p.add_variable("x", 0.0, kInfinity, 3.0);
  int y = p.add_variable("y", 0.0, kInfinity, 5.0);
  p.add_constraint("c1", LinearExpr().add(x, 1.0), Sense::kLessEqual, 4.0);
  p.add_constraint("c2", LinearExpr().add(y, 2.0), Sense::kLessEqual, 12.0);
  p.add_constraint("c3", LinearExpr().add(x, 3.0).add(y, 2.0),
                   Sense::kLessEqual, 18.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  ASSERT_EQ(sol.duals.size(), 3u);
  EXPECT_NEAR(sol.duals[0], 0.0, kTol);
  EXPECT_NEAR(sol.duals[1], 1.5, kTol);
  EXPECT_NEAR(sol.duals[2], 1.0, kTol);
}

TEST(Simplex, DualsPredictRhsPerturbation) {
  // Numerically verify dual interpretation: obj(b + e) - obj(b) ~= y_i * e.
  Problem p(Objective::kMinimize);
  int x = p.add_variable("x", 0.0, kInfinity, 2.0);
  int y = p.add_variable("y", 0.0, kInfinity, 3.0);
  p.add_constraint("need", LinearExpr().add(x, 1.0).add(y, 2.0),
                   Sense::kGreaterEqual, 8.0);
  p.add_constraint("mix", LinearExpr().add(x, 1.0).add(y, -1.0),
                   Sense::kLessEqual, 1.0);
  auto base = solve_lp(p);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  const double eps = 1e-3;
  for (int row = 0; row < p.num_constraints(); ++row) {
    Problem q = p;
    q.set_rhs(row, p.constraint(row).rhs + eps);
    auto pert = solve_lp(q);
    ASSERT_EQ(pert.status, SolveStatus::kOptimal);
    EXPECT_NEAR(pert.objective - base.objective,
                base.duals[static_cast<std::size_t>(row)] * eps, 1e-6)
        << "row " << row;
  }
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Beale's classic cycling example (converted to our builder); Bland's rule
  // fallback must terminate with optimum -0.05.
  Problem p(Objective::kMinimize);
  int x1 = p.add_variable("x1", 0.0, kInfinity, -0.75);
  int x2 = p.add_variable("x2", 0.0, kInfinity, 150.0);
  int x3 = p.add_variable("x3", 0.0, kInfinity, -0.02);
  int x4 = p.add_variable("x4", 0.0, kInfinity, 6.0);
  p.add_constraint(
      "r1",
      LinearExpr().add(x1, 0.25).add(x2, -60.0).add(x3, -0.04).add(x4, 9.0),
      Sense::kLessEqual, 0.0);
  p.add_constraint(
      "r2",
      LinearExpr().add(x1, 0.5).add(x2, -90.0).add(x3, -0.02).add(x4, 3.0),
      Sense::kLessEqual, 0.0);
  p.add_constraint("r3", LinearExpr().add(x3, 1.0), Sense::kLessEqual, 1.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -0.05, kTol);
}

TEST(Simplex, FixedVariablesRespected) {
  Problem p(Objective::kMaximize);
  int x = p.add_variable("x", 2.5, 2.5, 10.0);  // fixed
  int y = p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint("c", LinearExpr().add(x, 1.0).add(y, 1.0),
                   Sense::kLessEqual, 10.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.5, kTol);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 7.5, kTol);
}

TEST(Simplex, RedundantConstraintsHandled) {
  Problem p(Objective::kMaximize);
  int x = p.add_variable("x", 0.0, kInfinity, 1.0);
  p.add_constraint("a", LinearExpr().add(x, 1.0), Sense::kLessEqual, 5.0);
  p.add_constraint("b", LinearExpr().add(x, 1.0), Sense::kLessEqual, 5.0);
  p.add_constraint("c", LinearExpr().add(x, 2.0), Sense::kLessEqual, 10.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, kTol);
}

TEST(Simplex, ZeroRowEqualityFeasible) {
  Problem p(Objective::kMinimize);
  int x = p.add_variable("x", 0.0, 1.0, 1.0);
  p.add_constraint("zero", LinearExpr().add(x, 0.0), Sense::kEqual, 0.0);
  auto sol = solve_lp(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, kTol);
}

// A row that names y twice (1.5y + 0.5y) and z twice with cancelling
// coefficients (3z - 3z, an explicit net-zero coefficient), against the
// same LP with that row written merged (x + 2y + w). The solver sums
// duplicate terms when it builds A, so both must solve identically.
Problem duplicate_terms_lp(bool merged, double r0_rhs) {
  Problem p(Objective::kMaximize);
  const int x = p.add_variable("x", 0.0, 5.0, 3.0);
  const int y = p.add_variable("y", 0.0, kInfinity, 2.0);
  const int z = p.add_variable("z", 0.0, 4.0, 1.0);
  const int w = p.add_variable("w", 0.0, 6.0, 1.0);
  LinearExpr r0;
  if (merged) {
    r0.add(x, 1.0).add(y, 2.0).add(w, 1.0);
  } else {
    r0.add(x, 1.0).add(y, 1.5).add(z, 3.0);
    r0.add(y, 0.5).add(z, -3.0).add(w, 1.0);
  }
  p.add_constraint("r0", r0, Sense::kLessEqual, r0_rhs);
  p.add_constraint("r1", LinearExpr().add(x, 1.0).add(y, 1.0).add(z, 1.0),
                   Sense::kGreaterEqual, 2.0);
  p.add_constraint("r2", LinearExpr().add(x, 2.0).add(y, 1.0).add(w, -1.0),
                   Sense::kLessEqual, 8.0);
  p.add_constraint("r3", LinearExpr().add(y, 1.0).add(w, -1.0), Sense::kEqual,
                   1.0);
  return p;
}

void expect_same_solution(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.duals, b.duals);
  EXPECT_EQ(a.reduced_costs, b.reduced_costs);
  EXPECT_EQ(a.basis, b.basis);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.warm_started, b.warm_started);
}

TEST(Simplex, DuplicateAndCancellingTermsSolveAsMergedRow) {
  const Problem dup = duplicate_terms_lp(/*merged=*/false, 10.0);
  const Problem merged = duplicate_terms_lp(/*merged=*/true, 10.0);

  const Solution cold = solve_lp(merged);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_GT(cold.iterations, 0);
  expect_same_solution(solve_lp(dup), cold);

  // Warm start from the optimum of a shifted rhs, so the warm path has
  // to repair and pivot rather than confirm.
  const Solution shifted = solve_lp(duplicate_terms_lp(true, 3.0));
  ASSERT_EQ(shifted.status, SolveStatus::kOptimal);
  ASSERT_NE(shifted.basis, cold.basis);
  SimplexOptions warm;
  warm.warm_start = shifted.basis;
  const Solution warm_merged = solve_lp(merged, warm);
  ASSERT_EQ(warm_merged.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm_merged.warm_started);
  EXPECT_EQ(warm_merged.objective, cold.objective);
  expect_same_solution(solve_lp(dup, warm), warm_merged);

  const SensitivityReport want = analyze_sensitivity(merged);
  const SensitivityReport got = analyze_sensitivity(dup);
  ASSERT_EQ(want.solution.status, SolveStatus::kOptimal);
  expect_same_solution(got.solution, want.solution);
  ASSERT_EQ(got.objective_range.size(), want.objective_range.size());
  for (std::size_t j = 0; j < want.objective_range.size(); ++j) {
    EXPECT_EQ(got.objective_range[j].lo, want.objective_range[j].lo);
    EXPECT_EQ(got.objective_range[j].hi, want.objective_range[j].hi);
  }
  ASSERT_EQ(got.rhs_range.size(), want.rhs_range.size());
  for (std::size_t i = 0; i < want.rhs_range.size(); ++i) {
    EXPECT_EQ(got.rhs_range[i].lo, want.rhs_range[i].lo);
    EXPECT_EQ(got.rhs_range[i].hi, want.rhs_range[i].hi);
  }
}

Problem zero_pivot_resume_lp() {
  Problem p(Objective::kMinimize);
  const int x0 = p.add_variable("x0", 0.0, kInfinity, 269386.64135952841);
  const int x1 = p.add_variable("x1", 0.0, 62.85176277095011,
                                1.2860611493368993e-09);
  const int x2 = p.add_variable("x2", 0.0, kInfinity, 2865895246.5976706);
  const int x3 = p.add_variable("x3", 0.0, 573540.00273006177,
                                -1.174021490475024e-13);
  const int x4 = p.add_variable("x4", -47733.673651687779, 314451.86771464482,
                                -593217.15476275783);
  const int x5 = p.add_variable("x5", 0.0, 231718.00663156554,
                                -5.0277105409106152e-13);
  const int x6 = p.add_variable("x6", 0.0, 2577271.0408545686,
                                -7702.5471955688845);
  p.add_constraint("c0",
                   LinearExpr()
                       .add(x3, 0.4113938047074801)
                       .add(x4, 0.81910192584759223),
                   Sense::kGreaterEqual, -36974.904356267471);
  p.add_constraint("c1",
                   LinearExpr()
                       .add(x0, -2.0094893656203387e-05)
                       .add(x1, 0.59844455444874312)
                       .add(x2, -0.32502505631652245)
                       .add(x3, 1.9837164848446979e-05)
                       .add(x5, -9.3360697385911593e-05),
                   Sense::kLessEqual, -3.9603819683105179);
  p.add_constraint("c2",
                   LinearExpr()
                       .add(x0, 0.86625044472953716)
                       .add(x3, 0.76470687298425988)
                       .add(x4, 0.59340021390676867)
                       .add(x5, -0.54634812860633186)
                       .add(x6, 0.53614083052594652),
                   Sense::kEqual, -38641.763061577803);
  p.add_constraint("c3",
                   LinearExpr()
                       .add(x2, -1.0068878902727367)
                       .add(x6, -3.1621650245408205e-06),
                   Sense::kLessEqual, 9.1284524783042684);
  p.add_constraint("d2",
                   LinearExpr()
                       .add(x0, 0.86625044472963486)
                       .add(x3, 0.76470687298484463)
                       .add(x4, 0.59340021390704789)
                       .add(x5, -0.54634812860669724)
                       .add(x6, 0.53614083052596084),
                   Sense::kEqual, -38641.763061615202);
  p.add_constraint("d1",
                   LinearExpr()
                       .add(x0, -2.0094893656199189e-05)
                       .add(x1, 0.59844455444870726)
                       .add(x2, -0.3250250563167158)
                       .add(x3, 1.9837164848433505e-05)
                       .add(x5, -9.336069738584917e-05),
                   Sense::kLessEqual, -3.9603819683115478);
  return p;
}

// Rows d2 and d1 are drifted copies of c2 and c1, so the optimal basis is
// near-singular and refinement moves its duals by ~1e15. Under Bland's rule
// from the first pivot, the post-solve sweep's refined duals then flag a
// column that the pivot loop's plain multipliers do not, and the resume
// pivots nothing. The solve must still ship the refined duals that its
// gates checked and that the reduced costs were computed from.
TEST(Simplex, ZeroPivotResumeShipsTheCheckedDuals) {
  const Problem p = zero_pivot_resume_lp();
  SimplexOptions so;
  so.bland = true;
  const Solution sol = solve_lp(p, so);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  ASSERT_EQ(sol.duals.size(), static_cast<std::size_t>(p.num_constraints()));
  ASSERT_EQ(sol.reduced_costs.size(),
            static_cast<std::size_t>(p.num_variables()));
  for (int j = 0; j < p.num_variables(); ++j) {
    const auto js = static_cast<std::size_t>(j);
    // c_j − Σ_i y_i·a_ij from the shipped duals, subtracted in row order.
    double dj = p.variable(j).objective;
    double scale = 0.0;  // Σ_i |y_i·a_ij|
    for (int i = 0; i < p.num_constraints(); ++i) {
      for (const Term& term : p.constraint(i).terms) {
        if (term.var != j) continue;
        const double yi = sol.duals[static_cast<std::size_t>(i)];
        dj -= yi * term.coef;
        scale += std::fabs(yi * term.coef);
      }
    }
    EXPECT_NEAR(sol.reduced_costs[js], dj, 1e-12 * (1.0 + scale))
        << "x" << j;
    if (sol.basis.variables[js] == VarStatus::kBasic) {
      // A basic column's d_j is the residual of Bᵀy = c_B: the extraction
      // gate held it to certificate grade.
      EXPECT_LE(std::fabs(dj),
                5e-7 * (1.0 + std::fabs(p.variable(j).objective)) +
                    1e-12 * scale)
          << "x" << j;
    }
  }
}

// Property sweep: randomized bounded transportation LPs must (a) be declared
// optimal, (b) satisfy primal feasibility, and (c) satisfy weak duality
// bounds against a feasible reference point.
class SimplexRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomized, RandomTransportationFeasibleAndBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int ns = 2 + static_cast<int>(rng.uniform_index(4));  // suppliers
  const int nc = 2 + static_cast<int>(rng.uniform_index(4));  // consumers

  Problem p(Objective::kMinimize);
  std::vector<std::vector<int>> f(static_cast<std::size_t>(ns),
                                  std::vector<int>(static_cast<std::size_t>(nc)));
  for (int i = 0; i < ns; ++i) {
    for (int j = 0; j < nc; ++j) {
      f[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          p.add_variable("f", 0.0, rng.uniform(5.0, 50.0),
                         rng.uniform(1.0, 10.0));
    }
  }
  std::vector<double> supply(static_cast<std::size_t>(ns));
  double total_supply = 0.0;
  for (int i = 0; i < ns; ++i) {
    supply[static_cast<std::size_t>(i)] = rng.uniform(10.0, 40.0);
    total_supply += supply[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < ns; ++i) {
    LinearExpr e;
    for (int j = 0; j < nc; ++j) {
      e.add(f[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0);
    }
    p.add_constraint("supply", std::move(e), Sense::kLessEqual,
                     supply[static_cast<std::size_t>(i)]);
  }
  // Keep demand satisfiable: total demand at 50% of supply, split evenly.
  const double demand_each = 0.5 * total_supply / nc;
  for (int j = 0; j < nc; ++j) {
    LinearExpr e;
    for (int i = 0; i < ns; ++i) {
      e.add(f[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0);
    }
    p.add_constraint("demand", std::move(e), Sense::kGreaterEqual,
                     demand_each);
  }
  auto sol = solve_lp(p);
  // Edge capacities can still make a draw infeasible; both verdicts are
  // legitimate, but an optimal verdict must be backed by a feasible point.
  if (sol.status == SolveStatus::kOptimal) {
    EXPECT_TRUE(p.is_feasible(sol.x, 1e-5));
    EXPECT_GE(sol.objective, -1e-9);  // nonneg costs -> nonneg objective
  } else {
    EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomized, ::testing::Range(0, 25));

}  // namespace
}  // namespace gridsec::lp
