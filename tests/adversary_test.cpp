// Tests for the strategic adversary (Eqs 8-11).
#include "gridsec/core/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gridsec/cps/perturbation.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"

namespace gridsec::core {
namespace {

constexpr double kTol = 1e-6;

// Hand-built impact matrices (actors x targets).
cps::ImpactMatrix make_im(std::initializer_list<std::initializer_list<double>> rows) {
  const int na = static_cast<int>(rows.size());
  const int nt = static_cast<int>(rows.begin()->size());
  cps::ImpactMatrix im(na, nt);
  int a = 0;
  for (const auto& row : rows) {
    int t = 0;
    for (double v : row) im.set(a, t++, v);
    ++a;
  }
  return im;
}

TEST(Adversary, PicksSingleProfitableTarget) {
  // Target 0 profits actor 0 by 100 and hurts actor 1 by 120.
  auto im = make_im({{100.0, -5.0}, {-120.0, -5.0}});
  StrategicAdversary sa;
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  EXPECT_EQ(plan.targets, (std::vector<int>{0}));
  EXPECT_EQ(plan.actors, (std::vector<int>{0}));
  EXPECT_NEAR(plan.anticipated_return, 100.0, kTol);
}

TEST(Adversary, EmptyAttackWhenNothingProfits) {
  // Every impact negative: the rational SA stays home.
  auto im = make_im({{-10.0, -5.0}, {-20.0, -1.0}});
  StrategicAdversary sa;
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  EXPECT_TRUE(plan.targets.empty());
  EXPECT_NEAR(plan.anticipated_return, 0.0, kTol);
}

TEST(Adversary, ActorSetSharedAcrossTargets) {
  // Taking actor 0's position pays on target 0 (+100) but costs on target 1
  // (-80); target 1 pays actor 1 (+90). Attacking both targets while holding
  // both actors: 100 - 80 + 90 - 30(say actor1 on t0)...
  auto im = make_im({{100.0, -80.0}, {-30.0, 90.0}});
  StrategicAdversary sa;
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  // Candidates: {t0, A0} = 100; {t1, A1} = 90; {t0,t1}: A0 swing 20,
  // A1 swing 60 -> 80. Best: single target 0 with actor 0 = 100.
  EXPECT_EQ(plan.targets, (std::vector<int>{0}));
  EXPECT_NEAR(plan.anticipated_return, 100.0, kTol);
}

TEST(Adversary, AttackCostsDeterTargets) {
  auto im = make_im({{50.0, 40.0}});
  AdversaryConfig cfg;
  cfg.attack_cost = {45.0, 45.0};
  StrategicAdversary sa(cfg);
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  // Each target nets only 5 / -5; target 0 nets 5, target 1 nets -5.
  EXPECT_EQ(plan.targets, (std::vector<int>{0}));
  EXPECT_NEAR(plan.anticipated_return, 5.0, kTol);
}

TEST(Adversary, BudgetConstrainsSelection) {
  auto im = make_im({{60.0, 50.0, 40.0}});
  AdversaryConfig cfg;
  cfg.attack_cost = {10.0, 10.0, 10.0};
  cfg.budget = 20.0;  // only two attacks affordable
  StrategicAdversary sa(cfg);
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  EXPECT_EQ(plan.targets.size(), 2u);
  EXPECT_TRUE(plan.attacks(0));
  EXPECT_TRUE(plan.attacks(1));
  EXPECT_NEAR(plan.anticipated_return, 60.0 + 50.0 - 20.0, kTol);
}

TEST(Adversary, MaxTargetsCap) {
  auto im = make_im({{60.0, 50.0, 40.0, 30.0}});
  AdversaryConfig cfg;
  cfg.max_targets = 2;
  StrategicAdversary sa(cfg);
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  EXPECT_EQ(plan.targets.size(), 2u);
  EXPECT_NEAR(plan.anticipated_return, 110.0, kTol);
}

TEST(Adversary, SuccessProbabilityScalesValue) {
  auto im = make_im({{100.0, 0.0}, {0.0, 90.0}});
  AdversaryConfig cfg;
  cfg.success_prob = {0.5, 1.0};
  cfg.max_targets = 1;
  StrategicAdversary sa(cfg);
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  // Target 0 is worth 50 after Ps; target 1 is worth 90.
  EXPECT_EQ(plan.targets, (std::vector<int>{1}));
  EXPECT_NEAR(plan.anticipated_return, 90.0, kTol);
}

TEST(Adversary, AllActorsImpliesEmptyTargetSet) {
  // §II-E3: if A must effectively be every actor, the system being at the
  // social-welfare optimum means no attack profits. Model: every target's
  // column sums negative, and every actor is hit identically so taking all
  // positions is the only way to "cover" — SA should abstain.
  auto im = make_im({{-30.0, 10.0}, {10.0, -30.0}});
  StrategicAdversary sa;
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  // t0 with A1 = +10; t1 with A0 = +10; both targets with both actors:
  // A0: -20, A1: -20 -> 0. Best single: 10.
  EXPECT_NEAR(plan.anticipated_return, 10.0, kTol);
  EXPECT_EQ(plan.targets.size(), 1u);
}

TEST(Adversary, EnumerationMatchesMilpHandCase) {
  auto im = make_im({{100.0, -80.0, 20.0},
                     {-30.0, 90.0, 15.0},
                     {-10.0, -10.0, -50.0}});
  AdversaryConfig cfg;
  cfg.attack_cost = {12.0, 9.0, 3.0};
  cfg.budget = 21.0;
  StrategicAdversary sa(cfg);
  auto milp = sa.plan(im);
  auto enumerated = sa.plan_enumerate(im);
  ASSERT_TRUE(milp.optimal());
  EXPECT_NEAR(milp.anticipated_return, enumerated.anticipated_return, kTol);
}

TEST(Adversary, GreedyNeverBeatsExact) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    cps::ImpactMatrix im(3, 6);
    for (int a = 0; a < 3; ++a) {
      for (int t = 0; t < 6; ++t) {
        im.set(a, t, rng.uniform(-50.0, 50.0));
      }
    }
    AdversaryConfig cfg;
    cfg.max_targets = 3;
    StrategicAdversary sa(cfg);
    auto exact = sa.plan(im);
    auto greedy = sa.plan_greedy(im);
    ASSERT_TRUE(exact.optimal());
    EXPECT_LE(greedy.anticipated_return, exact.anticipated_return + kTol);
    EXPECT_GE(greedy.anticipated_return, -kTol);  // greedy never loses money
  }
}

// Randomized cross-validation: MILP == exhaustive enumeration.
class AdversaryMilpVsEnum : public ::testing::TestWithParam<int> {};

TEST_P(AdversaryMilpVsEnum, Agree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const int na = 2 + static_cast<int>(rng.uniform_index(3));
  const int nt = 4 + static_cast<int>(rng.uniform_index(5));
  cps::ImpactMatrix im(na, nt);
  for (int a = 0; a < na; ++a) {
    for (int t = 0; t < nt; ++t) {
      // Sparse-ish, like real impact matrices.
      im.set(a, t, rng.bernoulli(0.6) ? rng.uniform(-40.0, 40.0) : 0.0);
    }
  }
  AdversaryConfig cfg;
  cfg.max_targets = 3;
  if (rng.bernoulli(0.5)) {
    cfg.attack_cost.resize(static_cast<std::size_t>(nt));
    for (auto& c : cfg.attack_cost) c = rng.uniform(0.0, 10.0);
    cfg.budget = rng.uniform(5.0, 25.0);
  }
  StrategicAdversary sa(cfg);
  auto milp = sa.plan(im);
  auto enumerated = sa.plan_enumerate(im);
  ASSERT_TRUE(milp.optimal());
  EXPECT_NEAR(milp.anticipated_return, enumerated.anticipated_return, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversaryMilpVsEnum, ::testing::Range(0, 20));

TEST(Adversary, NodeBudgetFallsBackToFeasiblePlan) {
  // A dense matrix with a tiny node budget: the search cannot prove
  // optimality, but the returned plan must be feasible, at least as good
  // as greedy, and flagged kIterationLimit.
  Rng rng(7);
  cps::ImpactMatrix im(4, 20);
  for (int a = 0; a < 4; ++a) {
    for (int t = 0; t < 20; ++t) im.set(a, t, rng.uniform(-20.0, 20.0));
  }
  AdversaryConfig cfg;
  cfg.max_targets = 6;
  cfg.max_nodes = 3;
  StrategicAdversary sa(cfg);
  auto plan = sa.plan(im);
  EXPECT_EQ(plan.status, lp::SolveStatus::kIterationLimit);
  EXPECT_LE(static_cast<int>(plan.targets.size()), 6);
  auto greedy = sa.plan_greedy(im);
  EXPECT_GE(plan.anticipated_return, greedy.anticipated_return - kTol);
}

TEST(RandomAttack, RespectsCardinalityAndBudget) {
  auto im = make_im({{10.0, 20.0, 30.0, 40.0, 50.0}});
  AdversaryConfig cfg;
  cfg.max_targets = 2;
  cfg.attack_cost = {5.0, 5.0, 5.0, 5.0, 5.0};
  cfg.budget = 5.0;  // only one affordable despite the cap of 2
  Rng rng(3);
  auto plan = random_attack_plan(im, cfg, rng);
  EXPECT_EQ(plan.targets.size(), 1u);
}

TEST(RandomAttack, NeverBeatsStrategicPlan) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    cps::ImpactMatrix im(3, 8);
    for (int a = 0; a < 3; ++a) {
      for (int t = 0; t < 8; ++t) im.set(a, t, rng.uniform(-40.0, 40.0));
    }
    AdversaryConfig cfg;
    cfg.max_targets = 3;
    StrategicAdversary sa(cfg);
    auto strategic = sa.plan(im);
    auto random = random_attack_plan(im, cfg, rng);
    EXPECT_LE(random.anticipated_return,
              strategic.anticipated_return + kTol);
  }
}

TEST(RandomAttack, DeterministicPerSeed) {
  auto im = make_im({{1.0, 2.0, 3.0, 4.0}});
  AdversaryConfig cfg;
  cfg.max_targets = 2;
  Rng a(5), b(5);
  auto pa = random_attack_plan(im, cfg, a);
  auto pb = random_attack_plan(im, cfg, b);
  EXPECT_EQ(pa.targets, pb.targets);
}

TEST(RealizedReturn, MatchesAnticipatedOnTruth) {
  auto im = make_im({{100.0, -80.0}, {-30.0, 90.0}});
  StrategicAdversary sa;
  auto plan = sa.plan(im);
  ASSERT_TRUE(plan.optimal());
  EXPECT_NEAR(realized_return(im, plan, sa.config()),
              plan.anticipated_return, kTol);
}

TEST(RealizedReturn, DegradesOnDifferentTruth) {
  auto believed = make_im({{100.0, 0.0}});
  auto truth = make_im({{10.0, 0.0}});
  StrategicAdversary sa;
  auto plan = sa.plan(believed);
  ASSERT_TRUE(plan.optimal());
  EXPECT_NEAR(plan.anticipated_return, 100.0, kTol);
  EXPECT_NEAR(realized_return(truth, plan, sa.config()), 10.0, kTol);
}

TEST(RealizedReturn, EmptyPlanIsZero) {
  auto im = make_im({{-1.0}});
  AttackPlan plan;
  plan.status = lp::SolveStatus::kOptimal;
  EXPECT_DOUBLE_EQ(realized_return(im, plan, {}), 0.0);
}

// plan() reads each target's weighted column IM[j,t]·Ps(t) from a row it
// writes once per plan. reference_plan() is the search as it read before
// those rows: the same candidate order, bound, prune test and tie rule,
// with every node re-multiplying IM's strided column by Ps. Both must
// visit the same nodes and return the same plan, bit for bit.

struct ReferencePlan {
  AttackPlan plan;
  long nodes = 0;
};

ReferencePlan reference_plan(const cps::ImpactMatrix& im,
                             const AdversaryConfig& cfg) {
  constexpr double kActiveTol = 1e-9;
  const auto cost_of = [&](int t) {
    return cfg.attack_cost.empty()
               ? 0.0
               : cfg.attack_cost[static_cast<std::size_t>(t)];
  };
  const auto ps_of = [&](int t) {
    return cfg.success_prob.empty()
               ? 1.0
               : cfg.success_prob[static_cast<std::size_t>(t)];
  };
  const auto evaluate = [&](const std::vector<int>& targets,
                            std::vector<int>* actors) {
    double value = 0.0;
    for (int t : targets) value -= cost_of(t);
    actors->clear();
    for (int a = 0; a < im.num_actors(); ++a) {
      double swing = 0.0;
      for (int t : targets) swing += im.at(a, t) * ps_of(t);
      if (swing > kActiveTol) {
        value += swing;
        actors->push_back(a);
      }
    }
    return value;
  };
  const int nt = im.num_targets();
  const int na = im.num_actors();
  struct Candidate {
    int target;
    double worth;
    double cost;
  };
  std::vector<Candidate> cands;
  for (int i = 0; i < nt; ++i) {
    double pos = 0.0;
    for (int j = 0; j < na; ++j) {
      const double v = im.at(j, i) * ps_of(i);
      if (v > 0.0) pos += v;
    }
    const double w = pos - cost_of(i);
    if (w > kActiveTol && cost_of(i) <= cfg.budget) {
      cands.push_back({i, w, cost_of(i)});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.worth > b.worth;
            });
  const int max_pick =
      cfg.max_targets >= 0
          ? std::min<int>(cfg.max_targets, static_cast<int>(cands.size()))
          : static_cast<int>(cands.size());

  ReferencePlan out;
  AttackPlan& best = out.plan;
  best.status = lp::SolveStatus::kOptimal;
  std::vector<double> swing(static_cast<std::size_t>(na), 0.0);
  std::vector<int> current;
  bool exhausted = false;
  const auto dfs = [&](auto&& self, std::size_t idx, double spent) -> void {
    if (exhausted) return;
    if (++out.nodes > cfg.max_nodes) {
      exhausted = true;
      return;
    }
    double value = -spent;
    for (double s : swing) value += std::max(0.0, s);
    if (value > best.anticipated_return + kActiveTol) {
      best.targets = current;
      best.anticipated_return = value;
    }
    if (static_cast<int>(current.size()) >= max_pick) return;
    const int slots = max_pick - static_cast<int>(current.size());
    double bound = value;
    int taken = 0;
    for (std::size_t k = idx; k < cands.size() && taken < slots; ++k) {
      bound += cands[k].worth;
      ++taken;
    }
    if (bound <= best.anticipated_return + kActiveTol) return;
    for (std::size_t k = idx; k < cands.size(); ++k) {
      const Candidate& c = cands[k];
      if (spent + c.cost > cfg.budget + kActiveTol) continue;
      current.push_back(c.target);
      for (int j = 0; j < na; ++j) {
        swing[static_cast<std::size_t>(j)] +=
            im.at(j, c.target) * ps_of(c.target);
      }
      self(self, k + 1, spent + c.cost);
      for (int j = 0; j < na; ++j) {
        swing[static_cast<std::size_t>(j)] -=
            im.at(j, c.target) * ps_of(c.target);
      }
      current.pop_back();
      if (exhausted) return;
      const int slots_left = max_pick - static_cast<int>(current.size());
      double tail_bound = value;
      int t2 = 0;
      for (std::size_t k2 = k + 1; k2 < cands.size() && t2 < slots_left;
           ++k2) {
        tail_bound += cands[k2].worth;
        ++t2;
      }
      if (tail_bound <= best.anticipated_return + kActiveTol) break;
    }
  };
  dfs(dfs, 0, 0.0);
  if (exhausted) {
    AttackPlan greedy = StrategicAdversary(cfg).plan_greedy(im);
    if (greedy.anticipated_return > best.anticipated_return) {
      best = std::move(greedy);
    }
    best.status = lp::SolveStatus::kIterationLimit;
  }
  best.anticipated_return = evaluate(best.targets, &best.actors);
  return out;
}

/// plan() on `im` against reference_plan(): the same targets, actors and
/// status, the same anticipated-return bits and the same node count.
void expect_plan_matches_reference(const cps::ImpactMatrix& im,
                                   const AdversaryConfig& cfg,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  obs::Counter& nodes =
      obs::default_registry().counter("core.adversary.search_nodes");
  const std::int64_t before = nodes.value();
  const AttackPlan plan = StrategicAdversary(cfg).plan(im);
  const std::int64_t visited = nodes.value() - before;
  const ReferencePlan ref = reference_plan(im, cfg);
  EXPECT_EQ(plan.status, ref.plan.status);
  EXPECT_EQ(plan.targets, ref.plan.targets);
  EXPECT_EQ(plan.actors, ref.plan.actors);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.anticipated_return),
            std::bit_cast<std::uint64_t>(ref.plan.anticipated_return))
      << plan.anticipated_return << " vs " << ref.plan.anticipated_return;
  EXPECT_EQ(visited, ref.nodes);
}

TEST(AdversaryWeightedRows, RandomMatricesMatchReferenceSearch) {
  struct Shape {
    int actors;
    int targets;
  };
  // The last shape is the western-US sweep's: 12 actors, 57 targets.
  const Shape shapes[] = {{1, 6}, {3, 9}, {5, 14}, {12, 57}};
  Rng rng(2015);
  int searches = 0;
  for (const Shape& shape : shapes) {
    for (int draw = 0; draw < 3; ++draw) {
      cps::ImpactMatrix im(shape.actors, shape.targets);
      for (int a = 0; a < shape.actors; ++a) {
        for (int t = 0; t < shape.targets; ++t) {
          // Sparse, mostly losses, a few gains: like a real sweep.
          im.set(a, t,
                 rng.bernoulli(0.5) ? rng.uniform(-60.0, 25.0) : 0.0);
        }
      }
      std::vector<double> success(static_cast<std::size_t>(shape.targets));
      for (double& p : success) p = rng.uniform(0.2, 1.0);
      std::vector<double> cost(static_cast<std::size_t>(shape.targets));
      for (double& c : cost) c = rng.uniform(0.0, 8.0);
      for (const int max_targets : {1, 3, 6, -1}) {
        // An unlimited search over 57 targets is exponential; cap its
        // nodes, which exercises the exhausted path as well.
        const bool capped = max_targets < 0 && shape.targets > 20;
        for (int variant = 0; variant < 4; ++variant) {
          AdversaryConfig cfg;
          cfg.max_targets = max_targets;
          if (capped) cfg.max_nodes = 20000;
          if (variant & 1) cfg.success_prob = success;
          if (variant & 2) {
            cfg.attack_cost = cost;
            cfg.budget = 12.0;
          }
          expect_plan_matches_reference(
              im, cfg,
              std::to_string(shape.actors) + "x" +
                  std::to_string(shape.targets) + " draw " +
                  std::to_string(draw) + " max_targets " +
                  std::to_string(max_targets) + " variant " +
                  std::to_string(variant));
          ++searches;
        }
      }
    }
  }
  EXPECT_EQ(searches, 4 * 3 * 4 * 4);
}

TEST(AdversaryWeightedRows, WesternUsSigmaChainMatchesReferenceSearch) {
  // Experiment 2's views: a 12-actor ownership draw of the western-US
  // model, its truth matrix and one noisy view per sigma, planned with
  // the paper's six-target cap, with and without success probabilities.
  const sim::WesternUsModel model = sim::build_western_us();
  const flow::Network& net = model.network;
  Rng rng(7);
  std::vector<double> success(static_cast<std::size_t>(net.num_edges()));
  for (double& p : success) p = rng.uniform(0.5, 1.0);
  long nodes = 0;
  for (int draw = 0; draw < 2; ++draw) {
    const cps::Ownership own = cps::Ownership::random(net.num_edges(), 12, rng);
    for (const double sigma : {0.0, 0.05, 0.1, 0.2, 0.4}) {
      cps::NoiseSpec noise;
      noise.sigma = sigma;
      const flow::Network view = cps::perturb_knowledge(net, noise, rng);
      const auto im = cps::compute_impact_matrix(view, own);
      ASSERT_TRUE(im.is_ok());
      for (const bool weighted : {false, true}) {
        AdversaryConfig cfg;
        cfg.max_targets = 6;
        if (weighted) cfg.success_prob = success;
        obs::Counter& c_nodes =
            obs::default_registry().counter("core.adversary.search_nodes");
        const std::int64_t before = c_nodes.value();
        expect_plan_matches_reference(
            im.value().matrix, cfg,
            "draw " + std::to_string(draw) + " sigma " +
                std::to_string(sigma) + (weighted ? " with Ps" : ""));
        nodes += c_nodes.value() - before;
      }
    }
  }
  // The views are searched, not settled at the root.
  EXPECT_GT(nodes, 20 * 2);
}

}  // namespace
}  // namespace gridsec::core
