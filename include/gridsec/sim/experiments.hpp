// The paper's three experiments (§III-B/C/D) as reusable routines.
//
// Each routine sweeps the paper's independent variables, Monte-Carlo
// averaging over random ownership draws and noise realizations, and
// returns one point per (x, series) pair — exactly the series plotted in
// Figures 2-7. The figure benches print these; integration tests assert
// their qualitative shapes (monotonicity, saturation, crossovers).
#pragma once

#include <vector>

#include "gridsec/core/game.hpp"
#include "gridsec/sim/montecarlo.hpp"

namespace gridsec::sim {

/// Sweep options shared by the three experiments. A trial that fails is
/// dropped from its point's statistics: the point reports the other
/// trials' results plus failed_trials, and run_trials records the failure
/// breakdown in the obs metrics (sim.montecarlo.failed_trials /
/// sim.montecarlo.failed.<CODE>).
struct ExperimentOptions {
  int trials = 20;           // ownership draws per point
  std::uint64_t seed = 2015; // venue year; any fixed value works
  ThreadPool* pool = nullptr;
  cps::ImpactOptions impact;
};

// ---------------------------------------------------------------------------
// Experiment 1 (Figure 2): total gain and loss vs. number of actors.

struct GainLossPoint {
  int actors = 0;
  double mean_gain = 0.0;  // Σ_t Σ_a max(IM[a,t],0), averaged over ownership
  double mean_loss = 0.0;  // Σ_t Σ_a min(IM[a,t],0) (non-positive)
  double mean_net = 0.0;   // gain + loss = Σ_t system impact (ownership-free)
  double se_gain = 0.0;
  double se_loss = 0.0;
  int failed_trials = 0;  // trials excluded from the statistics above
};

std::vector<GainLossPoint> experiment_gain_loss(
    const flow::Network& net, const std::vector<int>& actor_counts,
    const ExperimentOptions& options = {});

// ---------------------------------------------------------------------------
// Experiment 2 (Figures 3-4): strategic-adversary profitability vs. noise.

struct AdversaryNoiseConfig {
  std::vector<int> actor_counts{2, 4, 6, 12};
  std::vector<double> sigmas{0.0, 0.05, 0.1, 0.2, 0.4, 0.8};
  int max_targets = 6;  // the paper's "maximum of six targets"
};

struct AdversaryNoisePoint {
  int actors = 0;
  double sigma = 0.0;
  double anticipated = 0.0;  // SA's expectation on its noisy view (Fig 4)
  double observed = 0.0;     // realized on the ground truth (Figs 3-4)
  double se_anticipated = 0.0;
  double se_observed = 0.0;
  int failed_trials = 0;  // trials excluded from the statistics above
};

std::vector<AdversaryNoisePoint> experiment_adversary_noise(
    const flow::Network& net, const AdversaryNoiseConfig& config,
    const ExperimentOptions& options = {});

// ---------------------------------------------------------------------------
// Experiment 3 (Figures 5-7): defense effectiveness.

struct DefenseExperimentConfig {
  std::vector<int> actor_counts{2, 4, 6, 12};
  std::vector<double> defender_sigmas{0.0, 0.05, 0.1, 0.2, 0.4, 0.8};
  /// System-wide defense budget in units of asset-defense costs; the paper
  /// fixes it at 12 assets and splits it evenly across actors.
  double system_budget_assets = 12.0;
  /// Uniform per-asset defense cost. Sized to be a meaningful fraction of
  /// typical attack impacts (thousands of $), so the paper's
  /// misaligned-incentive and budget-pooling effects can bite; a token cost
  /// would let every owner trivially self-defend.
  double defense_cost = 2000.0;
  bool collaborative = false;
  /// Attack-probability estimation samples (the defender's SA simulations).
  int pa_samples = 5;
  /// The defender's speculation of the adversary's knowledge noise
  /// (§II-F2). Independent of the defender's own noise: even a perfectly
  /// informed defender hedges across the targets a *plausibly informed*
  /// adversary might pick, which is what makes the per-actor budget size
  /// (system budget / N) matter.
  double speculated_adversary_sigma = 0.2;
  /// The actual adversary: single fixed attack, perfect knowledge (the
  /// paper's Fig 5 setup).
  int adversary_max_targets = 1;
  double adversary_sigma = 0.0;
  /// Give every defender its own noisy view and Pa estimate (§II-F2's
  /// Pa(a,t)); costs one impact matrix + Pa estimation per actor per game.
  bool per_defender_views = false;
};

struct DefensePoint {
  int actors = 0;
  double sigma = 0.0;        // defender noise
  bool collaborative = false;
  double effectiveness = 0.0;  // gain_undefended − gain_defended, averaged
  double se = 0.0;
  double mean_gain_undefended = 0.0;
  /// Mean of per-trial effectiveness / gain_undefended — the fraction of
  /// the attack's value the defense removes (trials with a ~zero-gain
  /// attack are skipped). This normalizes away the attack getting more
  /// lucrative as actor count grows.
  double relative_effectiveness = 0.0;
  double se_relative = 0.0;
  int failed_trials = 0;  // trials excluded from the statistics above
};

std::vector<DefensePoint> experiment_defense(
    const flow::Network& net, const DefenseExperimentConfig& config,
    const ExperimentOptions& options = {});

}  // namespace gridsec::sim
