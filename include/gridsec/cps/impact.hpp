// The impact matrix IM[a,t] (§II-D3): the profit change of actor a when
// target t is attacked, measured at the social-welfare optimum with
// competitive (marginal-cost) profit division.
//
// Impact = Utility' − Utility per actor; the system-wide welfare change is
// tracked alongside. One LP-and-allocation solve per target — the costly
// kernel of the whole pipeline (everything downstream consumes IM).
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "gridsec/cps/ownership.hpp"
#include "gridsec/cps/perturbation.hpp"
#include "gridsec/flow/allocation.hpp"
#include "gridsec/util/error.hpp"

namespace gridsec::cps {

class ImpactMatrix {
 public:
  ImpactMatrix(int num_actors, int num_targets);

  [[nodiscard]] int num_actors() const { return num_actors_; }
  [[nodiscard]] int num_targets() const { return num_targets_; }

  [[nodiscard]] double at(int actor, int target) const {
    GRIDSEC_ASSERT(actor >= 0 && actor < num_actors_);
    GRIDSEC_ASSERT(target >= 0 && target < num_targets_);
    return values_[static_cast<std::size_t>(actor) *
                       static_cast<std::size_t>(num_targets_) +
                   static_cast<std::size_t>(target)];
  }
  void set(int actor, int target, double value) {
    GRIDSEC_ASSERT(actor >= 0 && actor < num_actors_);
    GRIDSEC_ASSERT(target >= 0 && target < num_targets_);
    values_[static_cast<std::size_t>(actor) *
                static_cast<std::size_t>(num_targets_) +
            static_cast<std::size_t>(target)] = value;
  }

  /// Social-welfare change when target t is attacked (always <= ~0:
  /// an attack cannot improve an already-optimal system).
  [[nodiscard]] double system_impact(int target) const {
    GRIDSEC_ASSERT(target >= 0 && target < num_targets_);
    return system_impact_[static_cast<std::size_t>(target)];
  }
  void set_system_impact(int target, double value) {
    GRIDSEC_ASSERT(target >= 0 && target < num_targets_);
    system_impact_[static_cast<std::size_t>(target)] = value;
  }

  /// Σ_a max(IM[a,t], 0): how much some actors *gain* from attacking t.
  [[nodiscard]] double total_gain(int target) const;
  /// Σ_a min(IM[a,t], 0): the combined losses (non-positive).
  [[nodiscard]] double total_loss(int target) const;

  /// Gain/loss summed over every target (Experiment 1's quantities).
  [[nodiscard]] double aggregate_gain() const;
  [[nodiscard]] double aggregate_loss() const;

 private:
  int num_actors_;
  int num_targets_;
  std::vector<double> values_;
  std::vector<double> system_impact_;
};

struct ImpactOptions {
  /// How each target is perturbed when measuring its impact. The paper's
  /// experiments zero the capacity (an outage).
  AttackType attack_type = AttackType::kOutage;
  double attack_magnitude = 1.0;
  flow::AllocationOptions allocation;
  /// Capacity attacks on an edge carrying zero flow at the base optimum
  /// cannot change the optimum (removing unused capacity leaves the basis
  /// optimal), so their impact column is identically zero; skip their LP
  /// solves. Exact — disable only to measure its effect (see
  /// micro_ablation).
  bool skip_unused_targets = true;
  /// Warm-start seed for the base-model solve, typically
  /// ImpactResult::base_basis from a previous matrix over the same
  /// topology (e.g. the preceding sigma step of a noise sweep). The
  /// per-target attacked solves always warm-start from this run's own
  /// base basis regardless.
  lp::Basis warm_start;
};

/// Computes IM over all edges as targets. Fails (kInfeasible in the status)
/// only if the base model cannot be solved; a target whose attacked model
/// fails to solve is reported as zero impact with the failure counted in
/// `failed_targets` (defensive — cannot happen for capacity perturbations
/// of a feasible model).
struct ImpactResult {
  ImpactMatrix matrix;
  std::vector<double> base_actor_profit;
  double base_welfare = 0.0;
  int failed_targets = 0;
  /// Basis of the base (unattacked) welfare solve; feed it back through
  /// ImpactOptions::warm_start when computing a sibling matrix.
  lp::Basis base_basis;
};

/// Computes IM as ImpactResult describes. The base model is always
/// solved. The target re-solves do not depend on the ownership, so a sweep
/// this thread has solved twice under the same network data, base basis
/// and options is served from a per-thread memo instead, with
/// bit-identical results (docs/solvers.md, "The target-sweep memo";
/// counter cps.impact.reused_targets). The memo stands aside while a solve
/// hook is installed, under a time limit and with warm starts off.
StatusOr<ImpactResult> compute_impact_matrix(
    const flow::Network& net, const Ownership& ownership,
    const ImpactOptions& options = {});

/// Writes the matrix as CSV (header: target, system, actor0..actorN;
/// one row per target) for external analysis/plotting. Target names come
/// from `net` (which must match the matrix's target count).
void write_impact_csv(std::ostream& os, const ImpactMatrix& im,
                      const flow::Network& net);

}  // namespace gridsec::cps
