// Multi-actor profit division (§II-D2 of the paper).
//
// The flows are fixed at the social-welfare optimum (the paper's
// coalition-proof assumption); only the system profit has to be divided.
// Competition is priced at the "cost of the alternative" — the marginal
// cost at each point in the system. Two interchangeable implementations:
//
//  * kLmp          — exact: node prices are the hub-conservation duals
//                    (locational marginal prices) from the LP.
//  * kPerturbation — paper-faithful: node prices are estimated numerically
//                    by injecting a small free supply at each hub and
//                    measuring the utility change (the paper's "reduce the
//                    capacity ... the reduction in utility is the marginal
//                    cost" probe, applied at hubs).
//
// Given node prices λ (zero at terminals), each edge's competitive profit is
//   profit(e) = λ_to·f − λ_from·f/(1−loss) − cost·f ,
// which telescopes so that Σ_e profit(e) = social welfare exactly; actor
// profit is the sum over owned edges. Degenerate duals (ties between
// competitors in series) are the case the paper's iterative 1/N-sharing
// algorithm targets; see series.hpp for that procedure.
#pragma once

#include <span>
#include <vector>

#include "gridsec/flow/network.hpp"
#include "gridsec/flow/social_welfare.hpp"

namespace gridsec::flow {

enum class AllocatorKind { kLmp, kPerturbation };

struct AllocationOptions {
  AllocatorKind kind = AllocatorKind::kLmp;
  /// Probe size for the perturbation allocator, as a fraction of the mean
  /// positive flow (floored at an absolute minimum internally).
  double probe_fraction = 1e-4;
  SocialWelfareOptions welfare;
  /// Warm-start basis for the base welfare solve, typically
  /// AllocationResult::basis from a structurally identical network (e.g.
  /// the unattacked base model when sweeping attack targets). Takes
  /// precedence over welfare.simplex.warm_start when non-empty.
  lp::Basis warm_start;
  /// Optional shared welfare model: when set, the base welfare solve
  /// refreshes this model in place instead of rebuilding the LP (identical
  /// results; see SocialWelfareModel), and solves into its scratch. Sweep
  /// loops that call allocate_profits per scenario on one topology point
  /// this at a model that outlives the loop. The perturbation allocator's
  /// probe solves never touch it (each probe is a different topology). Not
  /// owned; the caller keeps it alive and does not share it across
  /// threads.
  SocialWelfareModel* model = nullptr;
};

struct AllocationResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double welfare = 0.0;
  std::vector<double> flow;         // delivered flow per edge
  std::vector<double> node_price;   // λ used for the division
  std::vector<double> edge_profit;  // competitive profit per edge
  std::vector<double> actor_profit; // per actor; empty when owners empty
  /// Basis of the base welfare solve; feed it into
  /// AllocationOptions::warm_start for sibling allocations.
  lp::Basis basis;
  /// True when the welfare solve needed the numerical-recovery ladder
  /// (see FlowSolution::recovered).
  bool recovered = false;

  [[nodiscard]] bool optimal() const {
    return status == lp::SolveStatus::kOptimal;
  }
};

/// Divides the social-welfare-optimal profit across edges (and actors when
/// `owners` is non-empty). `owners[e]` is the owning actor of edge e in
/// [0, num_actors); pass an empty span for edge-level results only.
AllocationResult allocate_profits(const Network& net,
                                  std::span<const int> owners,
                                  int num_actors,
                                  const AllocationOptions& options = {});

/// The same division into the caller's `out`: every field is reset first
/// and its vectors keep their capacity, so a sweep that divides into one
/// result stops allocating them once they have grown. Both allocators
/// divide a base welfare solve made on options.model (or on a model made
/// for the call) into its scratch. The value form returns what this
/// writes.
void allocate_profits(const Network& net, std::span<const int> owners,
                      int num_actors, const AllocationOptions& options,
                      AllocationResult& out);

/// Each actor's profit: out[a] sums edge_profit[e] over the edges e with
/// owners[e] == a, in edge order. allocate_profits fills actor_profit with
/// it, and an impact sweep rebuilds a reused target's actor row with it,
/// so the two agree to the bit.
std::vector<double> actor_profits(std::span<const double> edge_profit,
                                  std::span<const int> owners,
                                  int num_actors);
/// The same into `out`, reusing its capacity.
void actor_profits(std::span<const double> edge_profit,
                   std::span<const int> owners, int num_actors,
                   std::vector<double>& out);

/// Computes per-edge profits from an existing flow solution and price
/// vector (shared by both allocators; exposed for tests).
std::vector<double> edge_profits_from_prices(
    const Network& net, std::span<const double> flow,
    std::span<const double> node_price);
/// The same into `out`, reusing its capacity, with each edge's endpoint
/// prices read through `layout` (of `net`).
void edge_profits_from_prices(const Network& net, const WelfareLayout& layout,
                              std::span<const double> flow,
                              std::span<const double> node_price,
                              std::vector<double>& out);

/// Numerically estimates hub prices by free-injection probing (the
/// perturbation allocator's core). Returns one λ per node (0 at terminals).
/// Exposed for tests and the allocator-ablation bench.
StatusOr<std::vector<double>> probe_node_prices(
    const Network& net, const FlowSolution& base, double probe_fraction,
    const SocialWelfareOptions& options = {});

}  // namespace gridsec::flow
