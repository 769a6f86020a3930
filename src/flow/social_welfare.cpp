#include "gridsec/flow/social_welfare.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::flow {

namespace {

// Guardrail: perturbations may have driven edge data out of domain
// (negative capacity, NaN cost, loss >= 1). Building the LP from such
// data would trip Problem's bound invariants, so gate here and report a
// typed verdict instead.
bool edge_valid(const Edge& edge) {
  return std::isfinite(edge.cost) && !std::isnan(edge.capacity) &&
         edge.capacity >= 0.0 && edge.loss >= 0.0 && edge.loss < 1.0;
}

/// Counts one network whose edge data is out of domain; returns false.
bool invalid_data() {
  static obs::Counter& c_bad =
      obs::default_registry().counter("flow.social_welfare.invalid_data");
  c_bad.add();
  return false;
}

/// Whether every edge is valid; an invalid network is counted.
bool edges_valid(const Network& net) {
  for (const Edge& edge : net.edges()) {
    if (!edge_valid(edge)) return invalid_data();
  }
  return true;
}

/// The hub each conservation row balances: build_social_welfare_lp's row
/// walk, one row per hub with an edge, into `row_hub`.
void conservation_hubs(const Network& net, std::vector<NodeId>& row_hub) {
  const auto has_row = [&net](NodeId n) {
    return net.node(n).kind == NodeKind::kHub &&
           !(net.out_edges(n).empty() && net.in_edges(n).empty());
  };
  std::size_t rows = 0;
  for (int n = 0; n < net.num_nodes(); ++n) rows += has_row(n) ? 1 : 0;
  row_hub.resize(rows);
  std::size_t row = 0;
  for (int n = 0; n < net.num_nodes(); ++n) {
    if (has_row(n)) row_hub[row++] = n;
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void reset(FlowSolution& out) {
  out.status = FlowSolution{}.status;
  out.welfare = 0.0;
  out.flow.clear();
  out.node_price.clear();
  out.edge_reduced_cost.clear();
  out.basis.variables.clear();
  out.basis.rows.clear();
  out.recovered = false;
}

// Maps the LP answer back into flow terms, the duals through `row_hub`
// (shared by the one-shot and the model-reusing entry points, which must
// stay result-identical). The vectors trade places with the LP answer's
// instead of being copied, so both keep their capacity.
void finish_solution(const Network& net, std::span<const NodeId> row_hub,
                     lp::Solution& lp_sol, FlowSolution& out) {
  reset(out);
  out.status = lp_sol.status;
  out.recovered = !lp_sol.recovery_trail.empty();
  if (!lp_sol.optimal()) return;

  out.welfare = -lp_sol.objective;  // min cost -> max welfare
  out.flow.swap(lp_sol.x);

  // Map conservation-row duals back onto their hubs. Dual of "outflow -
  // inflow = 0": raising rhs by one unit forces one unit of net
  // withdrawal at the hub; the dual is thus the marginal system cost of
  // serving load there — the LMP (positive sign because the internal
  // problem is a minimization).
  GRIDSEC_ASSERT(lp_sol.duals.size() == row_hub.size());
  out.node_price.assign(static_cast<std::size_t>(net.num_nodes()), 0.0);
  for (std::size_t row = 0; row < row_hub.size(); ++row) {
    out.node_price[static_cast<std::size_t>(row_hub[row])] =
        -lp_sol.duals[row];
  }
  out.edge_reduced_cost.swap(lp_sol.reduced_costs);
  out.basis.variables.swap(lp_sol.basis.variables);
  out.basis.rows.swap(lp_sol.basis.rows);
}

obs::Counter& solves_counter() {
  static obs::Counter& c =
      obs::default_registry().counter("flow.social_welfare.solves");
  return c;
}

}  // namespace

lp::Problem build_social_welfare_lp(const Network& net) {
  lp::Problem p(lp::Objective::kMinimize);
  // One variable per edge: delivered flow in [0, capacity] (Eq 2) with the
  // per-unit cost a(u,v) as objective coefficient (Eq 1).
  for (int e = 0; e < net.num_edges(); ++e) {
    const Edge& edge = net.edge(e);
    p.add_variable(edge.name, 0.0, edge.capacity, edge.cost);
  }
  // Lossy conservation at each hub (Eq 7): what the hub sends (grossed up
  // by each outgoing edge's loss) equals what it receives.
  for (int n = 0; n < net.num_nodes(); ++n) {
    if (net.node(n).kind != NodeKind::kHub) continue;
    lp::LinearExpr expr;
    for (EdgeId e : net.out_edges(n)) {
      expr.add(e, 1.0 / (1.0 - net.edge(e).loss));
    }
    for (EdgeId e : net.in_edges(n)) {
      expr.add(e, -1.0);
    }
    if (expr.empty()) continue;  // isolated hub
    p.add_constraint("conserve." + net.node(n).name, std::move(expr),
                     lp::Sense::kEqual, 0.0);
  }
  return p;
}

void WelfareLayout::build(const Network& net) {
  conservation_hubs(net, row_hub);
  const auto hub_or_none = [&net](NodeId n) {
    return net.node(n).kind == NodeKind::kHub ? n : -1;
  };
  from_hub.resize(static_cast<std::size_t>(net.num_edges()));
  to_hub.resize(static_cast<std::size_t>(net.num_edges()));
  for (int e = 0; e < net.num_edges(); ++e) {
    const auto es = static_cast<std::size_t>(e);
    from_hub[es] = hub_or_none(net.edge(e).from);
    to_hub[es] = hub_or_none(net.edge(e).to);
  }
}

void SocialWelfareModel::rebuild(const Network& net) {
  problem_ = build_social_welfare_lp(net);
  layout_.build(net);
  // Only out-edge coefficients (1/(1-loss), never zero) carry mutable
  // data; in-edge terms are the constant -1 and the rhs is the constant 0.
  loss_term_.assign(static_cast<std::size_t>(net.num_edges()), LossTerm{});
  for (std::size_t row = 0; row < layout_.row_hub.size(); ++row) {
    const auto& out = net.out_edges(layout_.row_hub[row]);
    for (std::size_t k = 0; k < out.size(); ++k) {
      loss_term_[static_cast<std::size_t>(out[k])] = {static_cast<int>(row),
                                                      static_cast<int>(k)};
    }
  }
  synced_.resize(static_cast<std::size_t>(net.num_edges()));
  for (int e = 0; e < net.num_edges(); ++e) {
    const Edge& edge = net.edge(e);
    synced_[static_cast<std::size_t>(e)] = {edge.capacity, edge.cost,
                                            edge.loss};
  }
  topology_id_ = net.topology_id();
  ++rebuilds_;
}

void SocialWelfareModel::write_edge(int e, const Edge& edge) {
  problem_.set_bounds(e, 0.0, edge.capacity);
  problem_.set_objective_coef(e, edge.cost);
  const LossTerm& slot = loss_term_[static_cast<std::size_t>(e)];
  if (slot.row >= 0) {
    problem_.set_constraint_coef(slot.row, slot.term,
                                 1.0 / (1.0 - edge.loss));
  }
  synced_[static_cast<std::size_t>(e)] = {edge.capacity, edge.cost,
                                          edge.loss};
}

bool SocialWelfareModel::forget() {
  synced_.clear();
  return false;
}

bool SocialWelfareModel::sync(const Network& net) {
  if (rebuilds_ == 0 || net.topology_id() != topology_id_) {
    if (!edges_valid(net)) return forget();
    rebuild(net);
    return true;
  }
  // Validate every edge that differs from what was last synced before
  // writing any, so an invalid network leaves the LP untouched.
  const bool rewrite_all = synced_.empty();
  changed_.clear();
  for (int e = 0; e < net.num_edges(); ++e) {
    const Edge& edge = net.edge(e);
    if (!rewrite_all) {
      const EdgeData& had = synced_[static_cast<std::size_t>(e)];
      if (same_bits(had.capacity, edge.capacity) &&
          same_bits(had.cost, edge.cost) && same_bits(had.loss, edge.loss)) {
        continue;
      }
    }
    if (!edge_valid(edge)) {
      invalid_data();
      return forget();
    }
    changed_.push_back(e);
  }
  synced_.resize(static_cast<std::size_t>(net.num_edges()));
  for (const int e : changed_) write_edge(e, net.edge(e));
  return true;
}

FlowSolution solve_social_welfare(const Network& net,
                                  const SocialWelfareOptions& options) {
  FlowSolution out;
  solve_social_welfare(net, options, out);
  return out;
}

FlowSolution solve_social_welfare(const Network& net,
                                  SocialWelfareModel& model,
                                  const SocialWelfareOptions& options) {
  FlowSolution out;
  solve_social_welfare(net, model, options, out);
  return out;
}

void solve_social_welfare(const Network& net,
                          const SocialWelfareOptions& options,
                          FlowSolution& out) {
  GRIDSEC_TRACE_SPAN("flow.social_welfare.solve");
  solves_counter().add();
  if (!edges_valid(net)) {
    reset(out);
    out.status = lp::SolveStatus::kNumericalError;
    return;
  }
  const lp::Problem p = build_social_welfare_lp(net);
  std::vector<NodeId> row_hub;
  conservation_hubs(net, row_hub);
  lp::Solution lp_sol;
  lp::solve_lp(p, options.simplex, lp_sol);
  finish_solution(net, row_hub, lp_sol, out);
}

void solve_social_welfare(const Network& net, SocialWelfareModel& model,
                          const SocialWelfareOptions& options,
                          FlowSolution& out) {
  GRIDSEC_TRACE_SPAN("flow.social_welfare.solve");
  solves_counter().add();
  if (!model.sync(net)) {
    reset(out);
    out.status = lp::SolveStatus::kNumericalError;
    return;
  }
  lp::Solution& lp_sol = model.scratch().lp;
  lp::solve_lp(model.problem(), options.simplex, lp_sol);
  finish_solution(net, model.layout().row_hub, lp_sol, out);
}

}  // namespace gridsec::flow
