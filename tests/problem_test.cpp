// Tests for the LP/MILP model builder and the Status machinery.
#include "gridsec/lp/problem.hpp"

#include <gtest/gtest.h>

#include "gridsec/util/error.hpp"

namespace gridsec::lp {
namespace {

TEST(Problem, VariableAndConstraintBookkeeping) {
  Problem p(Objective::kMaximize);
  int x = p.add_variable("x", 1.0, 5.0, 2.0);
  int b = p.add_binary("b", -1.0);
  EXPECT_EQ(p.num_variables(), 2);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(p.variable(b).type, VarType::kBinary);
  EXPECT_DOUBLE_EQ(p.variable(b).upper, 1.0);
  int row = p.add_constraint("c", LinearExpr().add(x, 1.0).add(b, 2.0),
                             Sense::kLessEqual, 7.0);
  EXPECT_EQ(p.num_constraints(), 1);
  EXPECT_EQ(row, 0);
  EXPECT_EQ(p.constraint(0).terms.size(), 2u);
  EXPECT_TRUE(p.has_integer_variables());
}

TEST(Problem, MutatorsApply) {
  Problem p;
  int x = p.add_variable("x", 0.0, 10.0, 1.0);
  p.add_constraint("c", LinearExpr().add(x, 1.0), Sense::kLessEqual, 5.0);
  p.set_objective_coef(x, 3.0);
  p.set_bounds(x, 1.0, 4.0);
  p.set_rhs(0, 9.0);
  EXPECT_DOUBLE_EQ(p.variable(x).objective, 3.0);
  EXPECT_DOUBLE_EQ(p.variable(x).lower, 1.0);
  EXPECT_DOUBLE_EQ(p.constraint(0).rhs, 9.0);
}

TEST(Problem, RowsIdSharedByCopiesRenewedByRowChanges) {
  Problem p;
  const int x = p.add_variable("x", 0.0, 10.0, 1.0);
  const int y = p.add_variable("y", 0.0, 10.0, 2.0);
  p.add_constraint("c", LinearExpr().add(x, 1.0).add(y, 2.0),
                   Sense::kLessEqual, 5.0);
  const std::uint64_t id = p.rows_id();
  EXPECT_NE(Problem().rows_id(), id);

  const Problem copy = p;
  EXPECT_EQ(copy.rows_id(), id);
  // Bounds, costs and equal values leave the rows as they are.
  p.set_bounds(x, 1.0, 4.0);
  p.set_objective_coef(y, 3.0);
  p.set_rhs(0, 5.0);
  p.set_constraint_coef(0, 1, 2.0);
  EXPECT_EQ(p.rows_id(), id);

  std::uint64_t last = id;
  const auto renewed = [&] {
    const bool fresh = p.rows_id() != last && p.rows_id() != id;
    last = p.rows_id();
    return fresh;
  };
  p.set_rhs(0, 6.0);
  EXPECT_TRUE(renewed());
  p.set_constraint_coef(0, 1, 2.5);
  EXPECT_TRUE(renewed());
  p.scale_constraint(0, 2.0);
  EXPECT_TRUE(renewed());
  p.add_variable("z", 0.0, 1.0, 0.0);
  EXPECT_TRUE(renewed());
  p.add_constraint("d", LinearExpr().add(x, 1.0), Sense::kEqual, 1.0);
  EXPECT_TRUE(renewed());
  // An rhs of -0 is not the same row as one of +0.
  p.set_rhs(1, 0.0);
  EXPECT_TRUE(renewed());
  p.set_rhs(1, -0.0);
  EXPECT_TRUE(renewed());
  EXPECT_EQ(copy.rows_id(), id);  // the copy kept its rows
}

TEST(Problem, ZeroCoefficientsDropped) {
  LinearExpr e;
  e.add(0, 0.0).add(1, 2.0);
  EXPECT_EQ(e.terms().size(), 1u);
}

TEST(Problem, ObjectiveValueEvaluates) {
  Problem p(Objective::kMaximize);
  p.add_variable("x", 0.0, 10.0, 2.0);
  p.add_variable("y", 0.0, 10.0, -1.0);
  EXPECT_DOUBLE_EQ(p.objective_value({3.0, 4.0}), 2.0);
}

TEST(Problem, IsFeasibleChecksEverything) {
  Problem p;
  int x = p.add_variable("x", 0.0, 5.0, 1.0, VarType::kInteger);
  p.add_constraint("c", LinearExpr().add(x, 1.0), Sense::kGreaterEqual, 2.0);
  EXPECT_TRUE(p.is_feasible({3.0}));
  EXPECT_FALSE(p.is_feasible({1.0}));   // violates the row
  EXPECT_FALSE(p.is_feasible({6.0}));   // violates the bound
  EXPECT_FALSE(p.is_feasible({2.5}));   // violates integrality
  EXPECT_FALSE(p.is_feasible({}));      // wrong size
}

TEST(Problem, SenseEnumRoundTrip) {
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "OPTIMAL");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "INFEASIBLE");
  EXPECT_EQ(to_string(SolveStatus::kUnbounded), "UNBOUNDED");
  EXPECT_EQ(to_string(SolveStatus::kIterationLimit), "ITERATION_LIMIT");
}

TEST(Status, FactoriesAndAccessors) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status bad = Status::infeasible("no flow");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.code(), ErrorCode::kInfeasible);
  EXPECT_EQ(bad.message(), "no flow");
  EXPECT_EQ(bad.to_string(), "INFEASIBLE: no flow");
  EXPECT_EQ(Status::ok().to_string(), "OK");
}

TEST(Status, CodeNames) {
  EXPECT_EQ(to_string(ErrorCode::kOk), "OK");
  EXPECT_EQ(to_string(ErrorCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_EQ(to_string(ErrorCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(to_string(ErrorCode::kInternal), "INTERNAL");
  EXPECT_EQ(to_string(ErrorCode::kIterationLimit), "ITERATION_LIMIT");
}

TEST(StatusOr, ValueAndErrorPaths) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(*ok, 42);
  StatusOr<int> err(Status::not_found("gone"));
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> s(std::string("payload"));
  std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "payload");
}

using ProblemDeathTest = Problem;

TEST(ProblemDeathTest, RejectsInfiniteLowerBound) {
  Problem p;
  EXPECT_DEATH(p.add_variable("x", -kInfinity, 1.0, 0.0), "finite");
}

TEST(ProblemDeathTest, RejectsInvertedBounds) {
  Problem p;
  EXPECT_DEATH(p.add_variable("x", 2.0, 1.0, 0.0), "lower");
}

TEST(ProblemDeathTest, RejectsUnknownVariableInRow) {
  Problem p;
  p.add_variable("x", 0.0, 1.0, 0.0);
  EXPECT_DEATH(
      p.add_constraint("c", LinearExpr().add(7, 1.0), Sense::kEqual, 0.0),
      "unknown");
}

}  // namespace
}  // namespace gridsec::lp
