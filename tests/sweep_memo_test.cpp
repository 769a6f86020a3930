// Tests for the target-sweep memo of cps::compute_impact_matrix
// (docs/solvers.md, "The target-sweep memo").
//
// certify_all.cpp arms the audit hook in every test binary, and the memo
// stands aside while a solve hook is installed. So each test takes the
// hook out (MemoActive) for the sweeps the memo should see, and puts it
// back for the recomputations those sweeps are compared against.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "gridsec/core/game.hpp"
#include "gridsec/cps/impact.hpp"
#include "gridsec/cps/perturbation.hpp"
#include "gridsec/lp/basis.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/experiments.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::cps {
namespace {

/// Uninstalls the solve hook for its lifetime, on every thread.
class MemoActive {
 public:
  MemoActive() : saved_(lp::set_solve_hook(nullptr)) {}
  ~MemoActive() { lp::set_solve_hook(saved_); }
  MemoActive(const MemoActive&) = delete;
  MemoActive& operator=(const MemoActive&) = delete;

 private:
  lp::SolveHook saved_;
};

std::int64_t counter(const char* name) {
  return obs::default_registry().counter(name).value();
}

std::int64_t reused() { return counter("cps.impact.reused_targets"); }

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Three assets, all carrying flow at the optimum, so a sweep solves three
// targets. Each call builds a new topology, hence a new memo key.
flow::Network duopoly() {
  flow::Network net;
  const auto h = net.add_hub("H");
  net.add_supply("cheap", h, 60.0, 10.0);
  net.add_supply("dear", h, 100.0, 30.0);
  net.add_demand("load", h, 80.0, 50.0);
  return net;
}

ImpactResult impact(const flow::Network& net, const Ownership& own,
                    const ImpactOptions& options = {}) {
  auto result = compute_impact_matrix(net, own, options);
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

/// Targets the memo served during one compute_impact_matrix.
std::int64_t served(const flow::Network& net, const Ownership& own,
                    const ImpactOptions& options = {}) {
  const std::int64_t before = reused();
  impact(net, own, options);
  return reused() - before;
}

void expect_same_bits(const ImpactResult& a, const ImpactResult& b) {
  ASSERT_EQ(a.matrix.num_actors(), b.matrix.num_actors());
  ASSERT_EQ(a.matrix.num_targets(), b.matrix.num_targets());
  for (int t = 0; t < a.matrix.num_targets(); ++t) {
    EXPECT_EQ(bits(a.matrix.system_impact(t)),
              bits(b.matrix.system_impact(t)))
        << "target " << t;
    for (int k = 0; k < a.matrix.num_actors(); ++k) {
      EXPECT_EQ(bits(a.matrix.at(k, t)), bits(b.matrix.at(k, t)))
          << "actor " << k << ", target " << t;
    }
  }
  ASSERT_EQ(a.base_actor_profit.size(), b.base_actor_profit.size());
  for (std::size_t k = 0; k < a.base_actor_profit.size(); ++k) {
    EXPECT_EQ(bits(a.base_actor_profit[k]), bits(b.base_actor_profit[k]));
  }
  EXPECT_EQ(bits(a.base_welfare), bits(b.base_welfare));
  EXPECT_EQ(a.failed_targets, b.failed_targets);
  EXPECT_EQ(a.base_basis, b.base_basis);
}

TEST(SweepMemo, ServedMatricesEqualArmedRecomputationsBitForBit) {
  const flow::Network net = sim::build_western_us().network;
  Rng rng(7);
  const std::vector<Ownership> owners = {
      Ownership::random(net.num_edges(), 3, rng),
      Ownership::random(net.num_edges(), 6, rng),
      Ownership::random(net.num_edges(), 12, rng)};

  // Armed, every target is solved: one base solve plus one per target.
  const std::int64_t solves_before = counter("flow.social_welfare.solves");
  impact(net, owners[0]);
  const std::int64_t targets =
      counter("flow.social_welfare.solves") - solves_before - 1;
  ASSERT_GT(targets, 0);

  std::vector<ImpactResult> memo_served;
  {
    const MemoActive memo;
    EXPECT_EQ(served(net, owners[0]), 0);  // first sighting
    EXPECT_EQ(served(net, owners[1]), 0);  // second: the sweep is kept
    const std::int64_t before = reused();
    for (const Ownership& own : owners) memo_served.push_back(impact(net, own));
    EXPECT_EQ(reused() - before, 3 * targets);
  }
  for (std::size_t i = 0; i < owners.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_bits(memo_served[i], impact(net, owners[i]));
  }
}

TEST(SweepMemo, KeepsAKeyOnItsSecondSightingAndDropsTheOldest) {
  const MemoActive memo;
  const Ownership own({0, 1, 2}, 3);
  const flow::Network first = duopoly();
  const flow::Network second = duopoly();
  const flow::Network third = duopoly();
  for (const flow::Network* net : {&first, &second, &third}) {
    EXPECT_EQ(served(*net, own), 0);  // first sighting: nothing kept
    EXPECT_EQ(served(*net, own), 0);  // second: kept
    EXPECT_EQ(served(*net, own), 3);  // third: served
  }
  // The third kept key took the oldest slot.
  EXPECT_EQ(served(second, own), 3);
  EXPECT_EQ(served(third, own), 3);
  EXPECT_EQ(served(first, own), 0);
  // The fingerprint ring still remembers `first`, so that solve kept it.
  EXPECT_EQ(served(first, own), 3);
}

TEST(SweepMemo, KeysCompareBitForBit) {
  const MemoActive memo;
  const Ownership own({0, 1, 2}, 3);
  const flow::Network net = duopoly();
  ImpactOptions half;
  half.attack_type = AttackType::kCapacityScale;
  half.attack_magnitude = 0.5;
  served(net, own, half);
  served(net, own, half);
  ASSERT_EQ(served(net, own, half), 3);

  ImpactOptions more = half;
  more.attack_magnitude = 0.6;
  EXPECT_EQ(served(net, own, more), 0);
  flow::Network dearer = net;
  dearer.set_cost(1, 31.0);
  EXPECT_EQ(served(dearer, own, half), 0);
  // -0.0 == 0.0, but the key holds the bits.
  flow::Network signed_zero = net;
  signed_zero.set_loss(0, -0.0);
  EXPECT_EQ(served(signed_zero, own, half), 0);
  // A copy carries the same topology and the same bits.
  const flow::Network copy = net;
  EXPECT_EQ(served(copy, own, half), 3);
}

TEST(SweepMemo, EveryBypassSolvesEveryTargetAndKeepsNothing) {
  const Ownership own({0, 1, 2}, 3);
  const flow::Network kept = duopoly();
  {
    const MemoActive memo;
    served(kept, own);
    served(kept, own);
    ASSERT_EQ(served(kept, own), 3);
  }
  const auto solves = [&](const flow::Network& net,
                          const ImpactOptions& options) {
    const std::int64_t before = counter("flow.social_welfare.solves");
    const std::int64_t reused_before = reused();
    impact(net, own, options);
    EXPECT_EQ(reused(), reused_before);
    return counter("flow.social_welfare.solves") - before;
  };

  // An armed audit hook sees every solve.
  EXPECT_EQ(solves(kept, {}), 4);

  const MemoActive memo;
  ImpactOptions deadline;
  deadline.allocation.welfare.simplex.time_limit_ms = 60000.0;
  EXPECT_EQ(solves(kept, deadline), 4);

  lp::set_warm_start_enabled(false);
  EXPECT_EQ(solves(kept, {}), 4);
  lp::set_warm_start_enabled(true);

  // A bypassed sweep is no sighting: a new key still needs two more.
  const flow::Network fresh = duopoly();
  solves(fresh, deadline);
  solves(fresh, deadline);
  EXPECT_EQ(served(fresh, own), 0);
  EXPECT_EQ(served(fresh, own), 0);
  EXPECT_EQ(served(fresh, own), 3);
  // And the bypasses left the kept sweep alone.
  EXPECT_EQ(served(kept, own), 3);
}

TEST(SweepMemo, ASweepWithAFailedTargetIsNeverKept) {
  const MemoActive memo;
  const Ownership own({0, 1, 2}, 3);
  const flow::Network net = duopoly();
  // A NaN cost shift makes every attacked network invalid data.
  ImpactOptions options;
  options.attack_type = AttackType::kCostShift;
  options.attack_magnitude = std::numeric_limits<double>::quiet_NaN();
  for (int sighting = 0; sighting < 4; ++sighting) {
    const std::int64_t before = reused();
    const ImpactResult im = impact(net, own, options);
    EXPECT_EQ(im.failed_targets, 3);
    EXPECT_EQ(reused(), before) << "sighting " << sighting;
  }
}

TEST(SweepMemo, AZeroNoiseCopyOfTheTruthIsServed) {
  const flow::Network net = sim::build_western_us().network;
  Rng rng(11);
  const Ownership own = Ownership::random(net.num_edges(), 6, rng);
  std::optional<ImpactResult> view_served;
  ImpactOptions warm;
  {
    const MemoActive memo;
    impact(net, own);
    const ImpactResult truth = impact(net, own);
    warm.warm_start = truth.base_basis;
    const flow::Network view = perturb_knowledge(net, NoiseSpec{}, rng);
    const std::int64_t before = reused();
    view_served = impact(view, own, warm);
    EXPECT_GT(reused(), before);
  }
  expect_same_bits(*view_served, impact(net, own, warm));
}

core::GameConfig zero_noise_defender_game(const flow::Network& net,
                                          int actors) {
  core::GameConfig cfg;
  cfg.adversary.max_targets = 1;
  cfg.defender.defense_cost.assign(static_cast<std::size_t>(net.num_edges()),
                                   2000.0);
  cfg.defender.budget.assign(static_cast<std::size_t>(actors),
                             12.0 * 2000.0 / actors);
  cfg.speculated_adversary_noise.sigma = 0.2;
  cfg.pa_samples = 2;
  return cfg;
}

TEST(SweepMemo, ZeroNoiseDefenseGameIsServedFromTheTruthsSweep) {
  const flow::Network net = sim::build_western_us().network;
  Rng draw(5);
  const Ownership own = Ownership::random(net.num_edges(), 4, draw);
  const core::GameConfig cfg = zero_noise_defender_game(net, 4);

  const std::int64_t solves_before = counter("flow.social_welfare.solves");
  impact(net, own);
  const std::int64_t targets =
      counter("flow.social_welfare.solves") - solves_before - 1;

  Rng rng(21);
  StatusOr<core::GameOutcome> served_game = Status::internal("not played");
  {
    const MemoActive memo;
    impact(net, own);
    impact(net, own);  // the truth's sweep is kept
    const std::int64_t before = reused();
    served_game = core::play_defense_game(net, own, cfg, rng);
    // The σ_d = 0 defender's view and the σ_a = 0 truth.
    EXPECT_EQ(reused() - before, 2 * targets);
  }
  ASSERT_TRUE(served_game.is_ok());
  Rng again(21);
  const auto armed = core::play_defense_game(net, own, cfg, again);
  ASSERT_TRUE(armed.is_ok());
  EXPECT_EQ(served_game->attack.targets, armed->attack.targets);
  EXPECT_EQ(bits(served_game->attack.anticipated_return),
            bits(armed->attack.anticipated_return));
  EXPECT_EQ(served_game->defense.defended, armed->defense.defended);
  ASSERT_EQ(served_game->pa.size(), armed->pa.size());
  for (std::size_t t = 0; t < armed->pa.size(); ++t) {
    EXPECT_EQ(bits(served_game->pa[t]), bits(armed->pa[t]));
  }
  EXPECT_EQ(bits(served_game->adversary_gain_undefended),
            bits(armed->adversary_gain_undefended));
  EXPECT_EQ(bits(served_game->adversary_gain_defended),
            bits(armed->adversary_gain_defended));
  EXPECT_EQ(bits(served_game->defense_effectiveness),
            bits(armed->defense_effectiveness));
  ASSERT_EQ(served_game->actor_impact_defended.size(),
            armed->actor_impact_defended.size());
  for (std::size_t k = 0; k < armed->actor_impact_defended.size(); ++k) {
    EXPECT_EQ(bits(served_game->actor_impact_undefended[k]),
              bits(armed->actor_impact_undefended[k]));
    EXPECT_EQ(bits(served_game->actor_impact_defended[k]),
              bits(armed->actor_impact_defended[k]));
  }
}

TEST(SweepMemo, ExperimentPointsMatchAcrossThreadCountsAndTheArmedRun) {
  const flow::Network net = sim::build_western_us().network;
  sim::DefenseExperimentConfig defense;
  defense.actor_counts = {4};
  defense.defender_sigmas = {0.0, 0.1};
  defense.pa_samples = 2;
  sim::ExperimentOptions options;
  options.trials = 4;
  options.seed = 31;

  struct Points {
    std::vector<sim::DefensePoint> defense;
    std::vector<sim::GainLossPoint> gain_loss;
  };
  const auto run = [&](ThreadPool* pool) {
    sim::ExperimentOptions opt = options;
    opt.pool = pool;
    return Points{sim::experiment_defense(net, defense, opt),
                  sim::experiment_gain_loss(net, {3, 6}, opt)};
  };
  const auto expect_same = [](const Points& a, const Points& b) {
    ASSERT_EQ(a.defense.size(), b.defense.size());
    for (std::size_t i = 0; i < a.defense.size(); ++i) {
      EXPECT_EQ(bits(a.defense[i].effectiveness),
                bits(b.defense[i].effectiveness));
      EXPECT_EQ(bits(a.defense[i].se), bits(b.defense[i].se));
      EXPECT_EQ(bits(a.defense[i].mean_gain_undefended),
                bits(b.defense[i].mean_gain_undefended));
      EXPECT_EQ(bits(a.defense[i].relative_effectiveness),
                bits(b.defense[i].relative_effectiveness));
      EXPECT_EQ(a.defense[i].failed_trials, b.defense[i].failed_trials);
    }
    ASSERT_EQ(a.gain_loss.size(), b.gain_loss.size());
    for (std::size_t i = 0; i < a.gain_loss.size(); ++i) {
      EXPECT_EQ(bits(a.gain_loss[i].mean_gain), bits(b.gain_loss[i].mean_gain));
      EXPECT_EQ(bits(a.gain_loss[i].mean_loss), bits(b.gain_loss[i].mean_loss));
      EXPECT_EQ(a.gain_loss[i].failed_trials, b.gain_loss[i].failed_trials);
    }
  };

  ThreadPool pool(2);
  Points serial;
  Points parallel;
  {
    const MemoActive memo;
    const std::int64_t before = reused();
    serial = run(nullptr);
    parallel = run(&pool);
    EXPECT_GT(reused(), before);
  }
  expect_same(serial, parallel);
  expect_same(serial, run(&pool));  // armed: every target solved
}

// The target loop attacks the thread's scratch network, copy-assigned from
// each sweep's network. Sweeps that follow one another on one thread over
// networks of another topology or other data must equal the same sweeps
// computed on a fresh thread.
TEST(SweepScratch, ConsecutiveSweepsOverOtherNetworksEqualFreshThreads) {
  const flow::Network western = sim::build_western_us().network;
  Rng rng(11);
  NoiseSpec noise;
  noise.sigma = 0.2;
  // The same topology with other edge data, and a smaller topology.
  const flow::Network view = perturb_knowledge(western, noise, rng);
  const flow::Network small = duopoly();
  const Ownership western_own = Ownership::random(western.num_edges(), 6, rng);
  const Ownership small_own({0, 1, 0}, 2);
  struct Sweep {
    const flow::Network* net;
    const Ownership* own;
  };
  const std::vector<Sweep> sweeps = {{&western, &western_own},
                                     {&small, &small_own},
                                     {&view, &western_own},
                                     {&western, &western_own},
                                     {&small, &small_own},
                                     {&western, &western_own}};
  std::vector<ImpactResult> consecutive;
  for (const Sweep& sweep : sweeps) {
    consecutive.push_back(impact(*sweep.net, *sweep.own));
  }
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    SCOPED_TRACE(i);
    std::optional<ImpactResult> fresh;
    std::thread([&] { fresh = impact(*sweeps[i].net, *sweeps[i].own); })
        .join();
    ASSERT_TRUE(fresh.has_value());
    expect_same_bits(consecutive[i], *fresh);
  }
  // The view's data differ from the truth's, so its matrix does too.
  bool differs = false;
  for (int t = 0; t < western.num_edges(); ++t) {
    differs = differs || bits(consecutive[0].matrix.system_impact(t)) !=
                             bits(consecutive[2].matrix.system_impact(t));
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace gridsec::cps
