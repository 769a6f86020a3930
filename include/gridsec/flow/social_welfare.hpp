// Social-welfare optimal flow (paper Eqs 1-7).
//
// Builds the LP  min Σ a(u,v)·f(u,v)  over delivered flows with
//   0 ≤ f ≤ c               (Eq 2; variable bounds)
//   lossy conservation      (Eq 7; equality row per hub)
// Supply/demand caps (Eqs 5-6) are the capacity bounds of the supply and
// demand edges. Consumer revenue enters as negative cost, so the social
// welfare is the negated optimum: welfare = revenues − costs.
//
// The hub-conservation duals are the locational marginal prices (LMPs):
// node_price[h] is the system cost of delivering one extra unit at hub h.
#pragma once

#include <cstdint>
#include <vector>

#include "gridsec/flow/network.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"

namespace gridsec::flow {

struct FlowSolution {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  /// Social welfare = revenues − costs (maximized). Eq 1's "Utility" is the
  /// minimized Σ a·f, i.e. -welfare; we expose the economically intuitive
  /// sign and keep the mapping Impact = welfare' − welfare consistent.
  double welfare = 0.0;
  std::vector<double> flow;        // delivered flow per edge
  std::vector<double> node_price;  // LMP per node (0 at terminals)
  /// Reduced cost of each edge's flow variable: for an edge saturated at
  /// capacity this is -(marginal welfare of one more unit of capacity).
  std::vector<double> edge_reduced_cost;
  /// Final simplex basis of the welfare LP. Feed it back through
  /// SocialWelfareOptions::simplex.warm_start to hot-start the solve of a
  /// perturbed sibling network (same topology; changed capacities, costs
  /// or losses). Empty when the solve was not optimal.
  lp::Basis basis;
  /// True when the numerical-recovery ladder (robust::recovery, when
  /// installed) had to engage to produce this solution — the answer is
  /// certified, but the instance is numerically fragile.
  bool recovered = false;

  [[nodiscard]] bool optimal() const {
    return status == lp::SolveStatus::kOptimal;
  }
};

/// Options for the social-welfare solve.
struct SocialWelfareOptions {
  lp::SimplexOptions simplex;
};

/// Builds the Eq 1-7 LP for `net` (exposed for tests and the MILP layers).
lp::Problem build_social_welfare_lp(const Network& net);

/// Where the welfare LP of a network puts its hubs, as
/// build_social_welfare_lp's row walk lays them out: the hub each
/// conservation row balances, and each edge's endpoint hubs. Duals map to
/// node prices, and edge profits read their endpoint prices, through it.
struct WelfareLayout {
  std::vector<NodeId> row_hub;   // per conservation row, in row order
  std::vector<NodeId> from_hub;  // per edge: its tail, −1 at a terminal
  std::vector<NodeId> to_hub;    // per edge: its head, −1 at a terminal

  /// Lays out `net`, reusing the vectors' capacity.
  void build(const Network& net);
};

/// A reusable social-welfare LP: the model that sweep loops (impact
/// matrices, Monte Carlo trials, game rounds) re-solve hundreds of times
/// against sibling networks that share one topology.
///
/// sync() points the model at a network. The first call — and any call
/// with a network of another Network::topology_id — validates every edge
/// and builds the Eq 1-7 LP and its layout from scratch. Every other call
/// compares each edge's capacity, cost and loss, bit for bit, with what
/// the model last synced, and validates and rewrites only the edges that
/// differ, in place (zero heap allocations), exploiting the build's
/// deterministic term layout: each conservation row lists its hub's
/// out-edges first, then its in-edges. A synced model is value-identical
/// to a fresh build_social_welfare_lp of the same network, so solve
/// results are bit-identical either way. A sync that changes no loss
/// keeps the Problem's rows_id, so the solver's resident A (see
/// lp/workspace.hpp) survives a sweep of capacity and cost changes.
///
/// Not thread-safe; give each thread its own model.
class SocialWelfareModel {
 public:
  /// Builds or refreshes the cached LP for `net` (see class comment).
  /// Edge data out of domain (NaN or negative capacity, non-finite cost,
  /// loss outside [0, 1)) adds one flow.social_welfare.invalid_data and
  /// returns false with the LP untouched; the model then forgets what it
  /// synced, so the next sync validates and rewrites every edge.
  [[nodiscard]] bool sync(const Network& net);

  /// The cached LP as of the last sync(). Empty before the first sync.
  [[nodiscard]] const lp::Problem& problem() const { return problem_; }

  /// The layout of problem(), rebuilt whenever the LP is.
  [[nodiscard]] const WelfareLayout& layout() const { return layout_; }

  /// Number of from-scratch builds performed (1 = refresh path has been
  /// hit ever since; exposed for tests and the allocation bench).
  [[nodiscard]] long rebuilds() const { return rebuilds_; }

  /// Buffers the model's solves reuse, so that a sweep of re-solves
  /// allocates none of them once they have grown: the LP answer a welfare
  /// solve maps from, and the welfare answer allocate_profits divides.
  /// Their contents are scratch, overwritten by the next solve.
  struct Scratch {
    lp::Solution lp;
    FlowSolution flow;
  };
  [[nodiscard]] Scratch& scratch() { return scratch_; }

 private:
  /// An edge's data as last written into problem_.
  struct EdgeData {
    double capacity = 0.0;
    double cost = 0.0;
    double loss = 0.0;
  };
  /// Where an edge's loss coefficient 1/(1−loss) sits: a term of its tail
  /// hub's row; row −1 when the tail is a terminal.
  struct LossTerm {
    int row = -1;
    int term = -1;
  };

  void rebuild(const Network& net);
  void write_edge(int e, const Edge& edge);
  /// After invalid data: the next sync rewrites every edge. Returns false.
  bool forget();

  lp::Problem problem_;
  WelfareLayout layout_;
  std::vector<LossTerm> loss_term_;  // per edge
  std::vector<EdgeData> synced_;     // per edge; empty = rewrite every edge
  std::vector<int> changed_;         // sync scratch: the edges to rewrite
  Scratch scratch_;
  std::uint64_t topology_id_ = 0;  // of the network the LP was built from
  long rebuilds_ = 0;
};

/// Solves the social-welfare problem. status != kOptimal means the network
/// data is inconsistent (the LP is always feasible at f = 0 for validated
/// networks, so infeasibility indicates a modelling bug).
FlowSolution solve_social_welfare(const Network& net,
                                  const SocialWelfareOptions& options = {});

/// Model-reusing variant: identical results, but the LP is refreshed in
/// `model` instead of rebuilt — the per-solve model-construction
/// allocations (the dominant heap traffic of sweep loops) collapse to
/// zero once the model has seen the topology.
FlowSolution solve_social_welfare(const Network& net,
                                  SocialWelfareModel& model,
                                  const SocialWelfareOptions& options = {});

/// The solves above into the caller's `out`: every field is reset first
/// and its vectors keep their capacity. The value forms return what these
/// write. The model form solves into the model's scratch lp::Solution and
/// maps its duals through the model's layout; the one-shot form maps them
/// through the same row walk, made for the call.
void solve_social_welfare(const Network& net,
                          const SocialWelfareOptions& options,
                          FlowSolution& out);
void solve_social_welfare(const Network& net, SocialWelfareModel& model,
                          const SocialWelfareOptions& options,
                          FlowSolution& out);

}  // namespace gridsec::flow
