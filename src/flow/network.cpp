#include "gridsec/flow/network.hpp"

#include <atomic>
#include <cmath>

namespace gridsec::flow {

std::uint64_t Network::fresh_topology_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

NodeId Network::add_node(std::string name, NodeKind kind) {
  nodes_.push_back({std::move(name), kind});
  out_.emplace_back();
  in_.emplace_back();
  topology_id_ = fresh_topology_id();
  return num_nodes() - 1;
}

NodeId Network::add_hub(std::string name) {
  return add_node(std::move(name), NodeKind::kHub);
}

NodeId Network::add_source(std::string name) {
  return add_node(std::move(name), NodeKind::kSource);
}

NodeId Network::add_sink(std::string name) {
  return add_node(std::move(name), NodeKind::kSink);
}

EdgeId Network::add_edge(std::string name, EdgeKind kind, NodeId from,
                         NodeId to, double capacity, double cost,
                         double loss) {
  GRIDSEC_ASSERT(from >= 0 && from < num_nodes());
  GRIDSEC_ASSERT(to >= 0 && to < num_nodes());
  GRIDSEC_ASSERT_MSG(from != to, "self-loop edge");
  GRIDSEC_ASSERT_MSG(capacity >= 0.0, "negative capacity");
  GRIDSEC_ASSERT_MSG(loss >= 0.0 && loss < 1.0, "loss outside [0,1)");
  switch (kind) {
    case EdgeKind::kSupply:
      GRIDSEC_ASSERT_MSG(node(from).kind == NodeKind::kSource &&
                             node(to).kind == NodeKind::kHub,
                         "supply edge must run source->hub");
      break;
    case EdgeKind::kDemand:
      GRIDSEC_ASSERT_MSG(node(from).kind == NodeKind::kHub &&
                             node(to).kind == NodeKind::kSink,
                         "demand edge must run hub->sink");
      break;
    case EdgeKind::kTransmission:
    case EdgeKind::kConversion:
      GRIDSEC_ASSERT_MSG(node(from).kind == NodeKind::kHub &&
                             node(to).kind == NodeKind::kHub,
                         "transport edge must run hub->hub");
      break;
  }
  edges_.push_back({std::move(name), kind, from, to, capacity, cost, loss});
  const EdgeId id = num_edges() - 1;
  out_[static_cast<std::size_t>(from)].push_back(id);
  in_[static_cast<std::size_t>(to)].push_back(id);
  topology_id_ = fresh_topology_id();
  return id;
}

EdgeId Network::add_supply(std::string name, NodeId hub, double capacity,
                           double unit_cost, double loss) {
  const NodeId src = add_source(name + ".src");
  return add_edge(std::move(name), EdgeKind::kSupply, src, hub, capacity,
                  unit_cost, loss);
}

EdgeId Network::add_demand(std::string name, NodeId hub, double capacity,
                           double unit_price, double loss) {
  const NodeId snk = add_sink(name + ".snk");
  return add_edge(std::move(name), EdgeKind::kDemand, hub, snk, capacity,
                  -unit_price, loss);
}

// The perturbation mutators intentionally accept out-of-domain values
// (negative capacity, NaN cost, loss >= 1): attack/noise models and the
// fault injector may drive edges into invalid states, and the contract is
// that validate() / solve_social_welfare reject such data with a typed
// status rather than the process aborting inside a setter.
void Network::set_capacity(EdgeId id, double capacity) {
  GRIDSEC_ASSERT(id >= 0 && id < num_edges());
  edges_[static_cast<std::size_t>(id)].capacity = capacity;
}

void Network::set_cost(EdgeId id, double cost) {
  GRIDSEC_ASSERT(id >= 0 && id < num_edges());
  edges_[static_cast<std::size_t>(id)].cost = cost;
}

void Network::set_loss(EdgeId id, double loss) {
  GRIDSEC_ASSERT(id >= 0 && id < num_edges());
  edges_[static_cast<std::size_t>(id)].loss = loss;
}

double Network::total_demand_capacity() const {
  double total = 0.0;
  for (const auto& e : edges_) {
    if (e.kind == EdgeKind::kDemand) total += e.capacity;
  }
  return total;
}

double Network::total_supply_capacity() const {
  double total = 0.0;
  for (const auto& e : edges_) {
    if (e.kind == EdgeKind::kSupply) total += e.capacity;
  }
  return total;
}

Status Network::validate() const {
  for (int i = 0; i < num_edges(); ++i) {
    const Edge& e = edge(i);
    if (!(e.capacity >= 0.0) || !std::isfinite(e.capacity)) {
      return Status::invalid_argument("edge '" + e.name + "': bad capacity");
    }
    if (!(e.loss >= 0.0 && e.loss < 1.0)) {
      return Status::invalid_argument("edge '" + e.name + "': bad loss");
    }
    if (!std::isfinite(e.cost)) {
      return Status::invalid_argument("edge '" + e.name + "': bad cost");
    }
  }
  // Paper Eq 3 analogue: each demand edge's hub must have incident inbound
  // capacity able to cover the demand (otherwise the data is inconsistent —
  // a consumer that can never be served).
  for (int i = 0; i < num_edges(); ++i) {
    const Edge& e = edge(i);
    if (e.kind != EdgeKind::kDemand) continue;
    double inbound = 0.0;
    for (EdgeId in : in_edges(e.from)) inbound += edge(in).capacity;
    if (inbound + 1e-9 < e.capacity) {
      return Status::invalid_argument(
          "demand edge '" + e.name +
          "' exceeds total inbound capacity at its hub (Eq 3 violated)");
    }
  }
  // Paper Eq 4 analogue is enforced by construction: supply edges carry at
  // most their own capacity, which is the source's s(v).
  return Status::ok();
}

StatusOr<EdgeId> Network::find_edge(std::string_view name) const {
  for (int i = 0; i < num_edges(); ++i) {
    if (edge(i).name == name) return i;
  }
  return Status::not_found("edge '" + std::string(name) + "' not found");
}

}  // namespace gridsec::flow
