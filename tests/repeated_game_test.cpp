// Tests for the repeated attack-defense game with defender learning.
#include "gridsec/core/repeated_game.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/scenario.hpp"
#include "gridsec/sim/western_us.hpp"

namespace gridsec::core {
namespace {

constexpr double kTol = 1e-6;

std::int64_t matrix_computes() {
  return obs::default_registry().counter("cps.impact.matrix_computes").value();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// play_repeated_game with the adversary's matrix recomputed from its own
/// view every round, whatever its noise.
RepeatedGameResult per_round_reference(const flow::Network& truth,
                                       const cps::Ownership& ownership,
                                       const RepeatedGameConfig& config,
                                       Rng& rng) {
  const GameConfig& game = config.game;
  cps::ImpactOptions impact = game.impact;
  flow::SocialWelfareModel series_model;
  impact.allocation.model = &series_model;
  auto truth_im = cps::compute_impact_matrix(truth, ownership, impact);
  EXPECT_TRUE(truth_im.is_ok());
  flow::Network defender_view =
      cps::perturb_knowledge(truth, game.defender_noise, rng);
  auto defender_im =
      cps::compute_impact_matrix(defender_view, ownership, impact);
  EXPECT_TRUE(defender_im.is_ok());
  std::vector<double> pa = estimate_attack_probabilities(
                               defender_view, ownership, game.adversary,
                               game.speculated_adversary_noise,
                               game.pa_samples, rng, impact)
                               .value();
  RepeatedGameResult out;
  std::vector<double> hits(static_cast<std::size_t>(truth.num_edges()), 0.0);
  StrategicAdversary sa(game.adversary);
  for (int round = 0; round < config.rounds; ++round) {
    RoundOutcome ro;
    ro.defense = game.collaborative
                     ? defend_collaborative(defender_im->matrix, ownership,
                                            pa, game.defender)
                     : defend_individual(defender_im->matrix, ownership, pa,
                                         game.defender);
    flow::Network adv_view =
        cps::perturb_knowledge(truth, game.adversary_noise, rng);
    auto adv_im = cps::compute_impact_matrix(adv_view, ownership, impact);
    EXPECT_TRUE(adv_im.is_ok());
    ro.attack = sa.plan(adv_im->matrix);
    std::vector<double> actor_impact;
    ro.adversary_gain = evaluate_attack_with_defense(
        truth_im->matrix, ro.attack, game.adversary, ro.defense.defended,
        game.mitigation, &actor_impact);
    for (double v : actor_impact) ro.defender_losses += std::min(v, 0.0);
    for (int t : ro.attack.targets) hits[static_cast<std::size_t>(t)] += 1.0;
    const double n = static_cast<double>(round + 1);
    for (std::size_t t = 0; t < pa.size(); ++t) {
      pa[t] = (1.0 - config.learning_rate) * pa[t] +
              config.learning_rate * (hits[t] / n);
    }
    out.rounds.push_back(std::move(ro));
  }
  out.final_pa = std::move(pa);
  return out;
}

/// ext_learning's game: six random owners of the western US, a badly
/// informed collaborative defender, a perfect-knowledge adversary.
RepeatedGameConfig western_us_config(int n_edges, int n_actors, int rounds) {
  RepeatedGameConfig cfg;
  cfg.rounds = rounds;
  cfg.learning_rate = 0.5;
  cfg.game.adversary.max_targets = 2;
  cfg.game.collaborative = true;
  cfg.game.defender.defense_cost.assign(static_cast<std::size_t>(n_edges),
                                        2000.0);
  cfg.game.defender.budget.assign(static_cast<std::size_t>(n_actors),
                                  12.0 * 2000.0 / n_actors);
  cfg.game.defender_noise.sigma = 0.5;
  cfg.game.speculated_adversary_noise.sigma = 0.2;
  cfg.game.pa_samples = 3;
  return cfg;
}

RepeatedGameConfig base_config(int n_edges, int n_actors) {
  RepeatedGameConfig cfg;
  cfg.game.adversary.max_targets = 1;
  cfg.game.defender.defense_cost.assign(static_cast<std::size_t>(n_edges),
                                        10.0);
  cfg.game.defender.budget.assign(static_cast<std::size_t>(n_actors), 10.0);
  cfg.game.collaborative = true;
  cfg.rounds = 5;
  return cfg;
}

TEST(RepeatedGame, RunsRequestedRounds) {
  flow::Network net = sim::make_duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  auto cfg = base_config(net.num_edges(), 3);
  Rng rng(1);
  auto res = play_repeated_game(net, own, cfg, rng);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res->rounds.size(), 5u);
  EXPECT_EQ(res->final_pa.size(), static_cast<std::size_t>(net.num_edges()));
}

TEST(RepeatedGame, PerfectInformationNeutralizesEveryRound) {
  flow::Network net = sim::make_duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  auto cfg = base_config(net.num_edges(), 3);
  Rng rng(2);
  auto res = play_repeated_game(net, own, cfg, rng);
  ASSERT_TRUE(res.is_ok());
  for (const auto& r : res->rounds) {
    EXPECT_NEAR(r.adversary_gain, 0.0, kTol);
    EXPECT_NEAR(r.defender_losses, 0.0, kTol);
  }
}

TEST(RepeatedGame, LearningConcentratesPaOnRepeatedTarget) {
  // The defender starts with a *wrong* model (heavy noise in its own view
  // and Pa estimate), but the adversary attacks the same best target with
  // perfect knowledge each round: the blended Pa must concentrate there.
  flow::Network net = sim::make_duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  auto cfg = base_config(net.num_edges(), 3);
  cfg.game.defender_noise.sigma = 0.8;  // badly informed defender
  cfg.game.speculated_adversary_noise.sigma = 0.8;
  cfg.rounds = 12;
  cfg.learning_rate = 0.5;
  Rng rng(3);
  auto res = play_repeated_game(net, own, cfg, rng);
  ASSERT_TRUE(res.is_ok());
  // The SA (perfect knowledge) always hits edge 1 ("dear" generator).
  for (const auto& r : res->rounds) {
    ASSERT_EQ(r.attack.targets.size(), 1u);
    EXPECT_EQ(r.attack.targets[0], 1);
  }
  double max_other = 0.0;
  for (std::size_t t = 0; t < res->final_pa.size(); ++t) {
    if (t != 1) max_other = std::max(max_other, res->final_pa[t]);
  }
  EXPECT_GT(res->final_pa[1], 0.8);
  EXPECT_GT(res->final_pa[1], max_other);
}

TEST(RepeatedGame, LaterRoundsNoWorseWithLearning) {
  // With learning against a stationary attacker, the defender's realized
  // losses in the last round must not exceed the first round's.
  flow::Network net = sim::make_duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  auto cfg = base_config(net.num_edges(), 3);
  cfg.game.defender_noise.sigma = 0.8;
  cfg.game.speculated_adversary_noise.sigma = 0.8;
  cfg.rounds = 10;
  cfg.learning_rate = 0.5;
  Rng rng(11);
  auto res = play_repeated_game(net, own, cfg, rng);
  ASSERT_TRUE(res.is_ok());
  EXPECT_GE(res->rounds.back().defender_losses,
            res->rounds.front().defender_losses - kTol);
}

TEST(RepeatedGame, ZeroLearningKeepsModelPa) {
  flow::Network net = sim::make_duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  auto cfg = base_config(net.num_edges(), 3);
  cfg.learning_rate = 0.0;
  cfg.rounds = 4;
  Rng rng(5);
  auto res = play_repeated_game(net, own, cfg, rng);
  ASSERT_TRUE(res.is_ok());
  // With zero noise the model Pa is exactly the SA's deterministic target.
  EXPECT_NEAR(res->final_pa[1], 1.0, kTol);
}

TEST(RepeatedGame, DeterministicPerSeed) {
  flow::Network net = sim::make_duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  auto cfg = base_config(net.num_edges(), 3);
  cfg.game.adversary_noise.sigma = 0.3;
  Rng a(7), b(7);
  auto ra = play_repeated_game(net, own, cfg, a);
  auto rb = play_repeated_game(net, own, cfg, b);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());
  EXPECT_DOUBLE_EQ(ra->total_adversary_gain(), rb->total_adversary_gain());
  EXPECT_DOUBLE_EQ(ra->total_defender_losses(),
                   rb->total_defender_losses());
}

TEST(RepeatedGame, TotalsAggregateRounds) {
  flow::Network net = sim::make_duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  auto cfg = base_config(net.num_edges(), 3);
  cfg.game.defender.budget.assign(3, 0.0);  // defenseless: attacks land
  Rng rng(9);
  auto res = play_repeated_game(net, own, cfg, rng);
  ASSERT_TRUE(res.is_ok());
  double gain = 0.0, losses = 0.0;
  for (const auto& r : res->rounds) {
    gain += r.adversary_gain;
    losses += r.defender_losses;
  }
  EXPECT_DOUBLE_EQ(res->total_adversary_gain(), gain);
  EXPECT_DOUBLE_EQ(res->total_defender_losses(), losses);
  EXPECT_GT(gain, 0.0);
  EXPECT_LT(losses, 0.0);
}

TEST(RepeatedGame, PerfectKnowledgeMatrixCountIndependentOfRounds) {
  // The truth, the defender's view and one matrix per Pa sample; the
  // perfect-knowledge adversary plans on the truth's.
  const flow::Network net = sim::build_western_us().network;
  const int n_actors = 6;
  Rng own_rng(8);
  const auto own = cps::Ownership::random(net.num_edges(), n_actors, own_rng);
  for (const int rounds : {1, 5}) {
    const auto cfg = western_us_config(net.num_edges(), n_actors, rounds);
    Rng rng(31);
    const std::int64_t before = matrix_computes();
    ASSERT_TRUE(play_repeated_game(net, own, cfg, rng).is_ok());
    EXPECT_EQ(matrix_computes() - before, 2 + cfg.game.pa_samples)
        << rounds << " rounds";
  }
}

TEST(RepeatedGame, PerfectKnowledgeMatchesPerRoundRecompute) {
  const flow::Network net = sim::build_western_us().network;
  const int n_actors = 6;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng own_rng(seed);
    const auto own =
        cps::Ownership::random(net.num_edges(), n_actors, own_rng);
    const auto cfg = western_us_config(net.num_edges(), n_actors, 4);
    Rng rng(seed + 50), ref_rng(seed + 50);
    auto res = play_repeated_game(net, own, cfg, rng);
    ASSERT_TRUE(res.is_ok());
    const RepeatedGameResult ref =
        per_round_reference(net, own, cfg, ref_rng);
    ASSERT_EQ(res->rounds.size(), ref.rounds.size());
    for (std::size_t r = 0; r < ref.rounds.size(); ++r) {
      const RoundOutcome& got = res->rounds[r];
      const RoundOutcome& want = ref.rounds[r];
      EXPECT_EQ(got.attack.targets, want.attack.targets);
      EXPECT_EQ(got.attack.actors, want.attack.actors);
      EXPECT_TRUE(same_bits(got.attack.anticipated_return,
                            want.attack.anticipated_return));
      EXPECT_EQ(got.defense.defended, want.defense.defended);
      EXPECT_TRUE(same_bits(got.adversary_gain, want.adversary_gain));
      EXPECT_TRUE(same_bits(got.defender_losses, want.defender_losses));
    }
    ASSERT_EQ(res->final_pa.size(), ref.final_pa.size());
    for (std::size_t t = 0; t < ref.final_pa.size(); ++t) {
      EXPECT_TRUE(same_bits(res->final_pa[t], ref.final_pa[t]));
    }
    EXPECT_EQ(rng.next(), ref_rng.next());  // same draws consumed
  }
}

}  // namespace
}  // namespace gridsec::core
