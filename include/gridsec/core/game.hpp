// The full attack–defense evaluation loop used by Experiment 3 (§III-D).
//
// One game round:
//  1. the defender observes the ground truth through knowledge noise σ_d,
//     computes its impact matrix I′, and estimates attack probabilities by
//     simulating the adversary on I″ (its speculation of the SA's view);
//  2. the defender invests (individually per Eqs 12-14, or collaboratively
//     per Eqs 15-18) under its budgets;
//  3. the actual strategic adversary plans its attack on its own noisy view
//     of the system;
//  4. the attack is executed against the ground truth; defended targets
//     have their effect reduced by the mitigation factor (1.0 = a defended
//     asset cannot be disrupted, the paper's binary D(t) reading).
//
// Each impact matrix in a round is one link of a warm chain: its base basis
// seeds the next matrix's base solve. With one shared defender view a round
// computes 3 + pa_samples matrices: the defender's I′, one per Pa sample,
// the adversary's and the truth's. A perfect-knowledge adversary (σ_a = 0,
// as in Fig 5) sees the truth itself, so its matrix, computed at the
// adversary's link of the chain, also realizes the attack: 2 + pa_samples.
//
// The headline metric is the paper's defense effectiveness: the adversary's
// realized gain with no defense minus its gain against the optimized
// defense.
#pragma once

#include "gridsec/core/adversary.hpp"
#include "gridsec/core/defender.hpp"

namespace gridsec::core {

struct GameConfig {
  AdversaryConfig adversary;
  DefenderConfig defender;
  /// Defender's knowledge noise about the ground truth (σ_d in Fig 5/6).
  cps::NoiseSpec defender_noise;
  /// Defender's speculation of the adversary's knowledge noise (§II-F2).
  cps::NoiseSpec speculated_adversary_noise;
  /// The actual adversary's knowledge noise.
  cps::NoiseSpec adversary_noise;
  /// Samples used for the empirical attack-probability estimate.
  int pa_samples = 1;
  /// Collaborative (Eqs 15-18) vs individual (Eqs 12-14) defense.
  bool collaborative = false;
  /// Fraction of an attack's effect removed on a defended target.
  double mitigation = 1.0;
  /// When true, every defender draws its *own* noisy view of the system
  /// and its own attack-probability estimate (the paper's per-defender
  /// Pa(a,t) and limited-information I′, §II-F2). Costs one impact matrix
  /// and one Pa estimation per actor per game; defaults to a single shared
  /// view for speed.
  bool per_defender_views = false;
  cps::ImpactOptions impact;
};

struct GameOutcome {
  AttackPlan attack;
  DefensePlan defense;
  std::vector<double> pa;  // the defender's attack-probability estimate
  /// SA's realized gain on the ground truth with no defense in place.
  double adversary_gain_undefended = 0.0;
  /// SA's realized gain when the defense plan mitigates defended targets.
  double adversary_gain_defended = 0.0;
  /// The paper's Fig 5 metric: gain_undefended − gain_defended.
  double defense_effectiveness = 0.0;
  /// Realized per-actor profit change (ground truth) without / with defense.
  std::vector<double> actor_impact_undefended;
  std::vector<double> actor_impact_defended;

  /// Total realized losses across actors (sum of negative impacts).
  [[nodiscard]] double total_loss_undefended() const;
  [[nodiscard]] double total_loss_defended() const;
};

/// Plays one round. `rng` drives all three noise draws (defender view,
/// speculated views, adversary view); pass derived per-trial streams for
/// reproducible Monte Carlo.
StatusOr<GameOutcome> play_defense_game(const flow::Network& truth,
                                        const cps::Ownership& ownership,
                                        const GameConfig& config, Rng& rng);

/// Evaluates an attack plan against a ground-truth impact matrix with a
/// defense in place: each target's effect is scaled by (1 − mitigation)
/// when defended. Returns the SA's gain; fills per-actor impacts if
/// `actor_impact` is non-null (all actors, not only the SA's set).
double evaluate_attack_with_defense(const cps::ImpactMatrix& truth,
                                    const AttackPlan& plan,
                                    const AdversaryConfig& adversary,
                                    const std::vector<bool>& defended,
                                    double mitigation,
                                    std::vector<double>* actor_impact);

}  // namespace gridsec::core
