// Tests for the attack-defense game evaluator.
#include "gridsec/core/game.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/western_us.hpp"

namespace gridsec::core {
namespace {

constexpr double kTol = 1e-6;

std::int64_t matrix_computes() {
  return obs::default_registry().counter("cps.impact.matrix_computes").value();
}

// Duopoly with a consumer: attacking the dear generator (edge 1) makes the
// cheap one scarce and profitable; the consumer (actor 2) loses.
flow::Network duopoly() {
  flow::Network net;
  const auto h = net.add_hub("H");
  net.add_supply("cheap", h, 60.0, 10.0);  // edge 0, actor 0
  net.add_supply("dear", h, 100.0, 30.0);  // edge 1, actor 1
  net.add_demand("load", h, 80.0, 50.0);   // edge 2, actor 2
  return net;
}

GameConfig perfect_information_config(int n_edges, int n_actors) {
  GameConfig cfg;
  cfg.adversary.max_targets = 1;
  cfg.defender.defense_cost.assign(static_cast<std::size_t>(n_edges), 10.0);
  cfg.defender.budget.assign(static_cast<std::size_t>(n_actors), 10.0);
  cfg.pa_samples = 1;
  return cfg;
}

TEST(Game, PerfectInformationDefenseNeutralizesAttack) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  // The SA attacks the dear generator (gain 1200 undefended).
  EXPECT_EQ(game->attack.targets, (std::vector<int>{1}));
  EXPECT_NEAR(game->adversary_gain_undefended, 1200.0, kTol);
  // Actor 1 owns it, predicts the attack (Pa=1), loses nothing itself...
  // IM[1,1] = 0, so actor 1 won't defend. Actor 2 (the victim) cannot.
  // Individual defense therefore fails to stop this attack.
  EXPECT_FALSE(game->defense.defended[1]);
  EXPECT_NEAR(game->defense_effectiveness, 0.0, kTol);
}

TEST(Game, CollaborativeDefenseStopsMisalignedAttack) {
  // Same scenario but collaborative: the consumer (hurt -1600) joins
  // CD(dear) and funds the defense it cannot mount alone individually.
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  EXPECT_TRUE(game->defense.defended[1]);
  EXPECT_NEAR(game->adversary_gain_defended, 0.0, kTol);
  EXPECT_NEAR(game->defense_effectiveness, 1200.0, kTol);
}

TEST(Game, PartialMitigationScalesEffect) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  cfg.mitigation = 0.75;
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  ASSERT_TRUE(game->defense.defended[1]);
  EXPECT_NEAR(game->adversary_gain_defended, 1200.0 * 0.25, kTol);
}

TEST(Game, ActorImpactsTrackDefense) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  // Undefended: cheap gains 1200, consumer loses 1600.
  EXPECT_NEAR(game->actor_impact_undefended[0], 1200.0, kTol);
  EXPECT_NEAR(game->actor_impact_undefended[2], -1600.0, kTol);
  EXPECT_NEAR(game->total_loss_undefended(), -1600.0, kTol);
  // Defended: nothing happens.
  EXPECT_NEAR(game->actor_impact_defended[2], 0.0, kTol);
  EXPECT_NEAR(game->total_loss_defended(), 0.0, kTol);
}

TEST(Game, DeterministicGivenSeed) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.defender_noise.sigma = 0.2;
  cfg.adversary_noise.sigma = 0.2;
  cfg.speculated_adversary_noise.sigma = 0.2;
  cfg.pa_samples = 3;
  Rng rng_a(42), rng_b(42);
  auto ga = play_defense_game(net, own, cfg, rng_a);
  auto gb = play_defense_game(net, own, cfg, rng_b);
  ASSERT_TRUE(ga.is_ok());
  ASSERT_TRUE(gb.is_ok());
  EXPECT_EQ(ga->attack.targets, gb->attack.targets);
  EXPECT_EQ(ga->defense.defended, gb->defense.defended);
  EXPECT_DOUBLE_EQ(ga->defense_effectiveness, gb->defense_effectiveness);
}

TEST(Game, PerDefenderViewsMatchSharedAtZeroNoise) {
  // With sigma = 0 every private view equals the truth, so the per-defender
  // path must pick exactly the same defense as the shared path.
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  Rng rng_a(5), rng_b(5);
  auto shared = play_defense_game(net, own, cfg, rng_a);
  cfg.per_defender_views = true;
  auto separate = play_defense_game(net, own, cfg, rng_b);
  ASSERT_TRUE(shared.is_ok());
  ASSERT_TRUE(separate.is_ok());
  EXPECT_EQ(shared->defense.defended, separate->defense.defended);
  EXPECT_DOUBLE_EQ(shared->defense_effectiveness,
                   separate->defense_effectiveness);
}

TEST(Game, PerDefenderViewsDeterministic) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.per_defender_views = true;
  cfg.defender_noise.sigma = 0.3;
  cfg.speculated_adversary_noise.sigma = 0.2;
  cfg.pa_samples = 2;
  Rng a(9), b(9);
  auto ga = play_defense_game(net, own, cfg, a);
  auto gb = play_defense_game(net, own, cfg, b);
  ASSERT_TRUE(ga.is_ok());
  ASSERT_TRUE(gb.is_ok());
  EXPECT_EQ(ga->defense.defended, gb->defense.defended);
  EXPECT_DOUBLE_EQ(ga->defense_effectiveness, gb->defense_effectiveness);
}

TEST(Game, PerfectKnowledgeAdversaryReusesTheTruthMatrix) {
  // One matrix for the defender's view, one per Pa sample, then the
  // adversary's and the truth's — one matrix when the adversary's view is
  // the truth.
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.defender_noise.sigma = 0.1;
  cfg.speculated_adversary_noise.sigma = 0.1;
  cfg.pa_samples = 3;
  Rng rng(4);
  const std::int64_t before = matrix_computes();
  ASSERT_TRUE(play_defense_game(net, own, cfg, rng).is_ok());
  EXPECT_EQ(matrix_computes() - before, 2 + cfg.pa_samples);

  cfg.adversary_noise.sigma = 0.1;
  const std::int64_t noisy_before = matrix_computes();
  ASSERT_TRUE(play_defense_game(net, own, cfg, rng).is_ok());
  EXPECT_EQ(matrix_computes() - noisy_before, 3 + cfg.pa_samples);
}

TEST(Game, PerfectKnowledgeAdversaryRealizesWhatItAnticipates) {
  // At σ_a = 0 the attack is planned and realized on one matrix, so the
  // undefended realized gain is the plan's anticipated return.
  const flow::Network net = sim::build_western_us().network;
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(static_cast<std::uint64_t>(100 + trial));
    const int n_actors = 2 + 2 * (trial % 3);
    const cps::Ownership own =
        cps::Ownership::random(net.num_edges(), n_actors, rng);
    GameConfig cfg;
    cfg.adversary.max_targets = 1 + trial % 2 * 2;
    cfg.defender.defense_cost.assign(
        static_cast<std::size_t>(net.num_edges()), 2000.0);
    cfg.defender.budget.assign(static_cast<std::size_t>(n_actors),
                               12.0 * 2000.0 / n_actors);
    cfg.defender_noise.sigma = 0.1;
    cfg.speculated_adversary_noise.sigma = 0.2;
    cfg.pa_samples = 2;
    auto game = play_defense_game(net, own, cfg, rng);
    ASSERT_TRUE(game.is_ok());
    ASSERT_FALSE(game->attack.targets.empty());
    const double anticipated = game->attack.anticipated_return;
    EXPECT_NEAR(game->adversary_gain_undefended, anticipated,
                1e-12 * std::fabs(anticipated))
        << "trial " << trial;
  }
}

TEST(EvaluateAttackWithDefense, MixedDefenseCoverage) {
  cps::ImpactMatrix im(2, 3);
  im.set(0, 0, 100.0);
  im.set(0, 1, 80.0);
  im.set(1, 2, -40.0);
  AttackPlan plan;
  plan.status = lp::SolveStatus::kOptimal;
  plan.targets = {0, 1};
  plan.actors = {0};
  std::vector<bool> defended{true, false, false};
  const double gain =
      evaluate_attack_with_defense(im, plan, {}, defended, 1.0, nullptr);
  // Target 0 fully mitigated, target 1 lands: gain = 80.
  EXPECT_NEAR(gain, 80.0, kTol);
}

TEST(EvaluateAttackWithDefense, ReportsAllActorImpacts) {
  cps::ImpactMatrix im(2, 2);
  im.set(0, 0, 100.0);
  im.set(1, 0, -60.0);
  AttackPlan plan;
  plan.status = lp::SolveStatus::kOptimal;
  plan.targets = {0};
  plan.actors = {0};
  std::vector<double> impacts;
  std::vector<bool> defended{false, false};
  evaluate_attack_with_defense(im, plan, {}, defended, 1.0, &impacts);
  EXPECT_NEAR(impacts[0], 100.0, kTol);
  EXPECT_NEAR(impacts[1], -60.0, kTol);  // includes non-colluding victims
}

}  // namespace
}  // namespace gridsec::core
