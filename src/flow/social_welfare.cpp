#include "gridsec/flow/social_welfare.hpp"

#include <cmath>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::flow {

namespace {

// Guardrail: perturbations may have driven edge data out of domain
// (negative capacity, NaN cost, loss >= 1). Building the LP from such
// data would trip Problem's bound invariants, so gate here and report a
// typed verdict instead.
bool edge_data_valid(const Network& net) {
  for (int e = 0; e < net.num_edges(); ++e) {
    const Edge& edge = net.edge(e);
    if (!std::isfinite(edge.cost) || std::isnan(edge.capacity) ||
        edge.capacity < 0.0 || !(edge.loss >= 0.0 && edge.loss < 1.0)) {
      static obs::Counter& c_bad = obs::default_registry().counter(
          "flow.social_welfare.invalid_data");
      c_bad.add();
      return false;
    }
  }
  return true;
}

// Maps the LP answer back into flow terms (shared by the one-shot and the
// model-reusing entry points, which must stay result-identical).
FlowSolution finish_solution(const Network& net, lp::Solution&& lp_sol) {
  FlowSolution out;
  out.status = lp_sol.status;
  out.recovered = !lp_sol.recovery_trail.empty();
  if (!lp_sol.optimal()) return out;

  out.welfare = -lp_sol.objective;  // min cost -> max welfare
  out.flow = std::move(lp_sol.x);

  // Map conservation-row duals back onto nodes. Rows were added in node
  // order for hubs with incident edges; replay the same walk.
  out.node_price.assign(static_cast<std::size_t>(net.num_nodes()), 0.0);
  int row = 0;
  for (int n = 0; n < net.num_nodes(); ++n) {
    if (net.node(n).kind != NodeKind::kHub) continue;
    if (net.out_edges(n).empty() && net.in_edges(n).empty()) continue;
    if (row < static_cast<int>(lp_sol.duals.size())) {
      // Dual of "outflow - inflow = 0": raising rhs by one unit forces one
      // unit of net withdrawal at the hub; the dual is thus the marginal
      // system cost of serving load there — the LMP (positive sign because
      // the internal problem is a minimization).
      out.node_price[static_cast<std::size_t>(n)] =
          -lp_sol.duals[static_cast<std::size_t>(row)];
    }
    ++row;
  }
  out.edge_reduced_cost = std::move(lp_sol.reduced_costs);
  out.basis = std::move(lp_sol.basis);
  return out;
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

bool SocialWelfareModel::topology_matches(const Network& net) const {
  return rebuilds_ > 0 && net.topology_id() == topology_id_;
}

void SocialWelfareModel::refresh(const Network& net) {
  for (int e = 0; e < net.num_edges(); ++e) {
    const Edge& edge = net.edge(e);
    problem_.set_bounds(e, 0.0, edge.capacity);
    problem_.set_objective_coef(e, edge.cost);
  }
  // Replay build_social_welfare_lp's row walk. Only the out-edge
  // coefficients (1/(1-loss), never zero) carry mutable data; in-edge
  // terms are the constant -1 and the rhs is the constant 0.
  int row = 0;
  for (int n = 0; n < net.num_nodes(); ++n) {
    if (net.node(n).kind != NodeKind::kHub) continue;
    const auto& out = net.out_edges(n);
    if (out.empty() && net.in_edges(n).empty()) continue;  // isolated hub
    for (std::size_t k = 0; k < out.size(); ++k) {
      problem_.set_constraint_coef(
          row, static_cast<int>(k),
          1.0 / (1.0 - net.edge(out[k]).loss));
    }
    ++row;
  }
}

void SocialWelfareModel::sync(const Network& net) {
  if (topology_matches(net)) {
    refresh(net);
    return;
  }
  problem_ = build_social_welfare_lp(net);
  topology_id_ = net.topology_id();
  ++rebuilds_;
}

FlowSolution solve_social_welfare(const Network& net,
                                  const SocialWelfareOptions& options) {
  GRIDSEC_TRACE_SPAN("flow.social_welfare.solve");
  solves_counter().add();
  if (!edge_data_valid(net)) {
    FlowSolution bad;
    bad.status = lp::SolveStatus::kNumericalError;
    return bad;
  }
  lp::Problem p = build_social_welfare_lp(net);
  return finish_solution(net, lp::solve_lp(p, options.simplex));
}

FlowSolution solve_social_welfare(const Network& net,
                                  SocialWelfareModel& model,
                                  const SocialWelfareOptions& options) {
  GRIDSEC_TRACE_SPAN("flow.social_welfare.solve");
  solves_counter().add();
  if (!edge_data_valid(net)) {
    FlowSolution bad;
    bad.status = lp::SolveStatus::kNumericalError;
    return bad;
  }
  model.sync(net);
  return finish_solution(net, lp::solve_lp(model.problem(), options.simplex));
}

}  // namespace gridsec::flow
