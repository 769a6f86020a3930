// Repeated attack-defense rounds with defender learning.
//
// The paper's game is one-shot: the defender estimates Pa once from its SA
// model and invests. In practice attacks recur, and each observed attack is
// evidence about the adversary's targeting. This module iterates the game:
// every round the SA plans on its (noisy) view and strikes; the defender
// blends its model-based Pa estimate with the empirical attack frequency
// observed so far (exponential smoothing) and re-invests its per-round
// budget. The traditional dependability model the paper wants to augment
// (§II-F4) emerges as the learning_rate → 1 limit: pure frequency-driven
// protection.
#pragma once

#include "gridsec/core/game.hpp"

namespace gridsec::core {

struct RepeatedGameConfig {
  GameConfig game;
  int rounds = 10;
  /// Pa blend per round: pa = (1-λ)·pa + λ·observed_frequency.
  double learning_rate = 0.3;
};

struct RoundOutcome {
  AttackPlan attack;
  DefensePlan defense;
  double adversary_gain = 0.0;     // realized, with the defense in place
  double defender_losses = 0.0;    // realized Σ negative actor impacts
};

struct RepeatedGameResult {
  std::vector<RoundOutcome> rounds;
  /// The defender's final blended attack-probability estimate.
  std::vector<double> final_pa;

  [[nodiscard]] double total_adversary_gain() const;
  [[nodiscard]] double total_defender_losses() const;
};

/// Plays `config.rounds` rounds. The ground-truth impact matrix is computed
/// once; the adversary redraws its noisy view every round, except that a
/// perfect-knowledge adversary (σ = 0) plans on the ground-truth matrix
/// itself, so the game computes the same number of matrices for any
/// `rounds`; the defender's Pa starts from its model-based estimate and is
/// updated from observations.
StatusOr<RepeatedGameResult> play_repeated_game(
    const flow::Network& truth, const cps::Ownership& ownership,
    const RepeatedGameConfig& config, Rng& rng);

}  // namespace gridsec::core
