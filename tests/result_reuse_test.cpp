// Tests for the into-forms that impact sweeps re-solve through: one
// lp::Solution or flow::AllocationResult reused across solves must hold
// exactly what a fresh value-form result holds after every solve, whatever
// the solve before it left behind (another shape, a failure); and the
// welfare model's changed-edge sync must leave an LP equal to a fresh
// build of the same network, with the same rows id rule and the same
// invalid-data verdict as a full validation.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/cps/ownership.hpp"
#include "gridsec/cps/perturbation.hpp"
#include "gridsec/flow/allocation.hpp"
#include "gridsec/flow/social_welfare.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/lp/workspace.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"

namespace gridsec {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i], b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// Field for field, doubles by their bits.
void expect_same(const lp::Solution& a, const lp::Solution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(same_bits(a.objective, b.objective))
      << a.objective << " vs " << b.objective;
  expect_same_bits(a.x, b.x, "x");
  expect_same_bits(a.duals, b.duals, "duals");
  expect_same_bits(a.reduced_costs, b.reduced_costs, "reduced_costs");
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.bnb.nodes_explored, b.bnb.nodes_explored);
  EXPECT_EQ(a.bnb.lp_solves, b.bnb.lp_solves);
  EXPECT_EQ(a.bnb.incumbent_updates, b.bnb.incumbent_updates);
  EXPECT_EQ(a.basis, b.basis);
  EXPECT_EQ(a.warm_started, b.warm_started);
  ASSERT_EQ(a.recovery_trail.size(), b.recovery_trail.size());
  for (std::size_t i = 0; i < a.recovery_trail.size(); ++i) {
    EXPECT_EQ(a.recovery_trail[i].rung, b.recovery_trail[i].rung);
    EXPECT_EQ(a.recovery_trail[i].status, b.recovery_trail[i].status);
    EXPECT_EQ(a.recovery_trail[i].certified, b.recovery_trail[i].certified);
  }
}

void expect_same(const flow::AllocationResult& a,
                 const flow::AllocationResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(same_bits(a.welfare, b.welfare))
      << a.welfare << " vs " << b.welfare;
  expect_same_bits(a.flow, b.flow, "flow");
  expect_same_bits(a.node_price, b.node_price, "node_price");
  expect_same_bits(a.edge_profit, b.edge_profit, "edge_profit");
  expect_same_bits(a.actor_profit, b.actor_profit, "actor_profit");
  EXPECT_EQ(a.basis, b.basis);
  EXPECT_EQ(a.recovered, b.recovered);
}

// ---------------------------------------------------------------------------
// lp::solve_lp into one Solution.

/// x in [0, 1] with x >= 5: infeasible.
lp::Problem infeasible_lp() {
  lp::Problem p(lp::Objective::kMinimize);
  p.add_variable("x", 0.0, 1.0, 1.0);
  lp::LinearExpr row;
  row.add(0, 1.0);
  p.add_constraint("floor", std::move(row), lp::Sense::kGreaterEqual, 5.0);
  return p;
}

/// A maximization of another shape than the welfare LP, with rows of each
/// sense.
lp::Problem other_shape_lp() {
  lp::Problem p(lp::Objective::kMaximize);
  for (int j = 0; j < 9; ++j) {
    p.add_variable("z", 0.0, 4.0 + j, 1.0 + 0.5 * (j % 4));
  }
  for (int i = 0; i < 5; ++i) {
    lp::LinearExpr row;
    for (int j = 0; j < 9; ++j) row.add(j, ((i * j) % 5) + 0.5);
    p.add_constraint("c", std::move(row), lp::Sense::kLessEqual,
                     30.0 + 3.0 * i);
  }
  lp::LinearExpr floor;
  floor.add(0, 1.0);
  floor.add(3, 1.0);
  p.add_constraint("floor", std::move(floor), lp::Sense::kGreaterEqual, 2.0);
  lp::LinearExpr balance;
  balance.add(1, 1.0);
  balance.add(2, -1.0);
  p.add_constraint("balance", std::move(balance), lp::Sense::kEqual, 1.0);
  return p;
}

TEST(SolutionReuse, MatchesFreshSolvesAcrossSweepsFailuresAndShapes) {
  const lp::Problem base =
      flow::build_social_welfare_lp(sim::build_western_us().network);
  const lp::Solution base_solution = lp::solve_lp(base);
  ASSERT_TRUE(base_solution.optimal());
  lp::SimplexOptions warm;
  warm.warm_start = base_solution.basis;

  lp::Solution reused;
  // Solves into `reused` and against a fresh result on a fresh workspace.
  const auto step = [&reused](const lp::Problem& p,
                              const lp::SimplexOptions& options,
                              lp::SolveStatus expected) {
    lp::solve_lp(p, options, reused);
    lp::SolverWorkspace fresh_workspace;
    lp::SimplexOptions fresh_options = options;
    fresh_options.workspace = &fresh_workspace;
    const lp::Solution fresh = lp::solve_lp(p, fresh_options);
    EXPECT_EQ(reused.status, expected);
    expect_same(reused, fresh);
  };
  const auto outage = [&base](int j) {
    lp::Problem target = base;
    target.set_bounds(j, 0.0, 0.0);
    return target;
  };
  // The impact sweep's warm outage re-solves; returns the column whose
  // outage took the most pivots.
  const auto outage_sweep = [&] {
    int most = 0;
    long pivots = -1;
    for (int j = 0; j < base.num_variables(); ++j) {
      SCOPED_TRACE("outage of column " + std::to_string(j));
      step(outage(j), warm, lp::SolveStatus::kOptimal);
      if (reused.iterations > pivots) {
        pivots = reused.iterations;
        most = j;
      }
    }
    EXPECT_GT(pivots, 0);
    return most;
  };

  const int pivoting = outage_sweep();
  {
    // Rejected before any solver state, right after a warm solve that
    // pivoted: nothing of that solve may remain.
    SCOPED_TRACE("invalid data");
    step(outage(pivoting), warm, lp::SolveStatus::kOptimal);
    lp::Problem invalid = base;
    invalid.set_objective_coef(0, std::numeric_limits<double>::quiet_NaN());
    step(invalid, warm, lp::SolveStatus::kNumericalError);
  }
  {
    SCOPED_TRACE("infeasible");
    step(infeasible_lp(), {}, lp::SolveStatus::kInfeasible);
  }
  {
    SCOPED_TRACE("time limit");
    lp::SimplexOptions expired;
    expired.time_limit_ms = 1e-9;  // armed and expired at the first pivot
    step(base, expired, lp::SolveStatus::kTimeLimit);
  }
  {
    SCOPED_TRACE("another shape");
    step(other_shape_lp(), {}, lp::SolveStatus::kOptimal);
  }
  outage_sweep();
}

// ---------------------------------------------------------------------------
// flow::allocate_profits into one AllocationResult.

TEST(AllocationReuse, MatchesFreshResultsAcrossTargetsAndFailures) {
  const flow::Network net = sim::build_western_us().network;
  Rng rng(7);
  constexpr int kActors = 5;
  const cps::Ownership ownership =
      cps::Ownership::random(net.num_edges(), kActors, rng);
  for (const flow::AllocatorKind kind :
       {flow::AllocatorKind::kLmp, flow::AllocatorKind::kPerturbation}) {
    const bool lmp = kind == flow::AllocatorKind::kLmp;
    SCOPED_TRACE(lmp ? "LMP" : "perturbation");
    // The fresh results: the value form, on no model. The reused result:
    // the into-form on one model, as an impact sweep runs it.
    flow::AllocationOptions fresh;
    fresh.kind = kind;
    const flow::AllocationResult base =
        flow::allocate_profits(net, ownership.owners(), kActors, fresh);
    ASSERT_TRUE(base.optimal());
    fresh.welfare.simplex.warm_start = base.basis;
    flow::SocialWelfareModel model;
    flow::AllocationOptions reuse = fresh;
    reuse.model = &model;

    flow::AllocationResult reused;
    const auto step = [&](const flow::Network& n, lp::SolveStatus expected) {
      flow::allocate_profits(n, ownership.owners(), kActors, reuse, reused);
      EXPECT_EQ(reused.status, expected);
      expect_same(reused, flow::allocate_profits(n, ownership.owners(),
                                                 kActors, fresh));
    };

    flow::Network scratch = net;
    const int stride = lmp ? 1 : 6;  // each perturbation target probes hubs
    for (int t = 0; t < net.num_edges(); t += stride) {
      SCOPED_TRACE("target " + std::to_string(t));
      const flow::Edge saved = scratch.edge(t);
      cps::apply_attack(scratch, {t, cps::AttackType::kOutage, 1.0});
      step(scratch, lp::SolveStatus::kOptimal);
      if (t % 4 == 0) {
        // Failed solves in between: out-of-domain data, then a deadline.
        scratch.set_capacity(t, std::numeric_limits<double>::quiet_NaN());
        step(scratch, lp::SolveStatus::kNumericalError);
        scratch.set_capacity(t, 0.0);
        reuse.welfare.simplex.time_limit_ms = 1e-9;
        fresh.welfare.simplex.time_limit_ms = 1e-9;
        step(scratch, lp::SolveStatus::kTimeLimit);
        reuse.welfare.simplex.time_limit_ms = 0.0;
        fresh.welfare.simplex.time_limit_ms = 0.0;
      }
      scratch.set_capacity(t, saved.capacity);
      scratch.set_cost(t, saved.cost);
      scratch.set_loss(t, saved.loss);
    }
    step(scratch, lp::SolveStatus::kOptimal);
  }
}

// ---------------------------------------------------------------------------
// SocialWelfareModel's changed-edge sync.

/// `got` equals a fresh build_social_welfare_lp of `net`, value for value:
/// bounds, costs, senses, right-hand sides and row coefficients.
void expect_equals_fresh_build(const lp::Problem& got,
                               const flow::Network& net) {
  const lp::Problem want = flow::build_social_welfare_lp(net);
  ASSERT_EQ(got.objective(), want.objective());
  ASSERT_EQ(got.num_variables(), want.num_variables());
  for (int j = 0; j < want.num_variables(); ++j) {
    const lp::Variable& g = got.variable(j);
    const lp::Variable& w = want.variable(j);
    EXPECT_TRUE(same_bits(g.lower, w.lower)) << "lower of " << j;
    EXPECT_TRUE(same_bits(g.upper, w.upper)) << "upper of " << j;
    EXPECT_TRUE(same_bits(g.objective, w.objective)) << "cost of " << j;
  }
  ASSERT_EQ(got.num_constraints(), want.num_constraints());
  for (int i = 0; i < want.num_constraints(); ++i) {
    const lp::Constraint& g = got.constraint(i);
    const lp::Constraint& w = want.constraint(i);
    EXPECT_EQ(g.sense, w.sense);
    EXPECT_TRUE(same_bits(g.rhs, w.rhs));
    ASSERT_EQ(g.terms.size(), w.terms.size()) << "row " << i;
    for (std::size_t k = 0; k < w.terms.size(); ++k) {
      EXPECT_EQ(g.terms[k].var, w.terms[k].var);
      EXPECT_TRUE(same_bits(g.terms[k].coef, w.terms[k].coef))
          << "row " << i << " term " << k;
    }
  }
}

/// Whether an edge leaving a hub has another loss in `b` than in `a`: the
/// loss of an edge leaving a terminal has no coefficient in the LP.
bool hub_loss_changed(const flow::Network& a, const flow::Network& b) {
  for (int e = 0; e < a.num_edges(); ++e) {
    if (a.node(a.edge(e).from).kind != flow::NodeKind::kHub) continue;
    if (!same_bits(a.edge(e).loss, b.edge(e).loss)) return true;
  }
  return false;
}

TEST(WelfareModelSync, ChangedEdgeSyncEqualsFreshBuild) {
  const flow::Network original = sim::build_western_us().network;
  obs::Counter& invalid = obs::default_registry().counter(
      "flow.social_welfare.invalid_data");
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    flow::Network net = original;
    flow::SocialWelfareModel model;
    ASSERT_TRUE(model.sync(net));
    expect_equals_fresh_build(model.problem(), net);
    flow::Network synced = net;  // the network the model last synced
    for (int step = 0; step < 250; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int edits = 1 + static_cast<int>(rng.uniform_index(3));
      for (int k = 0; k < edits; ++k) {
        const int e = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(net.num_edges())));
        const flow::Edge was = net.edge(e);
        switch (rng.uniform_index(5)) {
          case 0:
            net.set_capacity(e, was.capacity * rng.uniform(0.0, 2.0));
            break;
          case 1:
            net.set_cost(e, was.cost + rng.normal(0.0, 5.0));
            break;
          case 2:
            net.set_loss(e, rng.uniform(0.0, 0.3));
            break;
          case 3:  // revert to the original data
            net.set_capacity(e, original.edge(e).capacity);
            net.set_cost(e, original.edge(e).cost);
            net.set_loss(e, original.edge(e).loss);
            break;
          default: {  // out of domain, then this edge's valid data again
            switch (rng.uniform_index(4)) {
              case 0:
                net.set_capacity(e, std::numeric_limits<double>::quiet_NaN());
                break;
              case 1:
                net.set_capacity(e, -1.0);
                break;
              case 2:
                net.set_loss(e, 1.0);
                break;
              default:
                net.set_cost(e, std::numeric_limits<double>::infinity());
            }
            const std::int64_t before = invalid.value();
            EXPECT_EQ(flow::solve_social_welfare(net, model).status,
                      lp::SolveStatus::kNumericalError);
            EXPECT_EQ(invalid.value() - before, 1);
            net.set_capacity(e, was.capacity);
            net.set_cost(e, was.cost);
            net.set_loss(e, was.loss);
          }
        }
      }
      const std::uint64_t rows_id = model.problem().rows_id();
      ASSERT_TRUE(model.sync(net));
      expect_equals_fresh_build(model.problem(), net);
      EXPECT_EQ(model.problem().rows_id() != rows_id,
                hub_loss_changed(synced, net));
      synced = net;
    }
    EXPECT_EQ(model.rebuilds(), 1);
  }
}

TEST(WelfareModelSync, FirstSightOfDataIsValidated) {
  flow::Network net = sim::build_western_us().network;
  obs::Counter& invalid = obs::default_registry().counter(
      "flow.social_welfare.invalid_data");
  net.set_loss(3, 1.5);
  flow::SocialWelfareModel model;
  std::int64_t before = invalid.value();
  EXPECT_FALSE(model.sync(net));
  EXPECT_EQ(invalid.value() - before, 1);
  EXPECT_EQ(model.rebuilds(), 0);
  net.set_loss(3, 0.0);
  ASSERT_TRUE(model.sync(net));
  expect_equals_fresh_build(model.problem(), net);
  // A network of another topology is new data again, every edge of it.
  flow::Network other = net;
  const flow::NodeId hub = net.edge(0).to;
  ASSERT_EQ(net.node(hub).kind, flow::NodeKind::kHub);
  other.add_supply("extra", hub, 1.0, 1.0);
  other.set_capacity(5, -2.0);
  before = invalid.value();
  EXPECT_FALSE(model.sync(other));
  EXPECT_EQ(invalid.value() - before, 1);
  EXPECT_EQ(model.rebuilds(), 1);
}

}  // namespace
}  // namespace gridsec
