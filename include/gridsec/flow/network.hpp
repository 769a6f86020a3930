// Energy flow-graph model (§II-D1 of the paper).
//
// Everything attackable is an edge: supply edges (generator into a hub),
// demand edges (hub into a consumer terminal), transmission edges
// (hub to hub) and conversion edges (e.g. gas hub to electric hub with
// thermal losses). Hubs enforce lossy conservation (Eq 7); terminals do not.
// The paper's supply/demand caps (Eqs 5–6) become capacity bounds on the
// supply/demand edges, and its data-sanity constraints (Eqs 3–4) live in
// Network::validate().
//
// Flow convention: f(u,v) is measured at the *receiving* end; an edge with
// loss l withdraws f/(1-l) at its tail to deliver f at its head.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gridsec/util/error.hpp"

namespace gridsec::flow {

using NodeId = int;
using EdgeId = int;

enum class NodeKind {
  kHub,     // lossy-conservation bus (electric bus / gas header)
  kSource,  // generator terminal: energy enters the system here
  kSink,    // consumer terminal: energy leaves the system here
};

enum class EdgeKind {
  kSupply,        // source terminal -> hub (production)
  kDemand,        // hub -> sink terminal (consumption; cost is -price)
  kTransmission,  // hub -> hub, same commodity
  kConversion,    // hub -> hub, commodity change (e.g. gas -> electric)
};

struct Node {
  std::string name;
  NodeKind kind = NodeKind::kHub;
};

struct Edge {
  std::string name;
  EdgeKind kind = EdgeKind::kTransmission;
  NodeId from = -1;
  NodeId to = -1;
  double capacity = 0.0;  // max delivered flow, c(u,v)
  double cost = 0.0;      // per delivered unit, a(u,v); negative = revenue
  double loss = 0.0;      // fractional loss l(u,v) in [0, 1)
};

class Network {
 public:
  NodeId add_hub(std::string name);
  NodeId add_source(std::string name);
  NodeId add_sink(std::string name);

  /// Generic edge. Terminal endpoints must match the edge kind
  /// (kSupply from a source, kDemand into a sink, others hub-to-hub).
  EdgeId add_edge(std::string name, EdgeKind kind, NodeId from, NodeId to,
                  double capacity, double cost, double loss = 0.0);

  /// Creates a dedicated source terminal plus its supply edge into `hub`.
  EdgeId add_supply(std::string name, NodeId hub, double capacity,
                    double unit_cost, double loss = 0.0);
  /// Creates a dedicated sink terminal plus its demand edge out of `hub`.
  /// `unit_price` is what the consumer pays (stored as cost = -unit_price).
  EdgeId add_demand(std::string name, NodeId hub, double capacity,
                    double unit_price, double loss = 0.0);

  /// Identifies the topology: the nodes with their names and kinds, and
  /// the edges with their names, kinds and endpoints. A Network gets a
  /// fresh id on construction and on every add_*; copies share it, and the
  /// set_* mutators of edge data never touch it.
  [[nodiscard]] std::uint64_t topology_id() const { return topology_id_; }

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] int num_edges() const {
    return static_cast<int>(edges_.size());
  }
  [[nodiscard]] const Node& node(NodeId id) const {
    GRIDSEC_ASSERT(id >= 0 && id < num_nodes());
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const Edge& edge(EdgeId id) const {
    GRIDSEC_ASSERT(id >= 0 && id < num_edges());
    return edges_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  [[nodiscard]] const std::vector<EdgeId>& out_edges(NodeId id) const {
    GRIDSEC_ASSERT(id >= 0 && id < num_nodes());
    return out_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<EdgeId>& in_edges(NodeId id) const {
    GRIDSEC_ASSERT(id >= 0 && id < num_nodes());
    return in_[static_cast<std::size_t>(id)];
  }

  /// Mutators used by attack/noise perturbations and fault injection.
  /// Deliberately unchecked beyond the edge id: perturbed values may land
  /// outside the valid domain (negative capacity, NaN cost, loss >= 1) and
  /// validate() / solve_social_welfare report that as a typed status
  /// instead of aborting here.
  void set_capacity(EdgeId id, double capacity);
  void set_cost(EdgeId id, double cost);
  void set_loss(EdgeId id, double loss);

  /// Total demand-edge capacity (max possible consumption).
  [[nodiscard]] double total_demand_capacity() const;
  /// Total supply-edge capacity (max possible production).
  [[nodiscard]] double total_supply_capacity() const;

  /// Structural sanity: endpoint kinds match edge kinds, losses in [0,1),
  /// capacities nonnegative, plus the paper's Eqs 3-4 analogue — every
  /// demand edge's hub must have enough incident capacity to possibly
  /// serve it.
  [[nodiscard]] Status validate() const;

  /// Looks up an edge by name (kNotFound if absent; names should be unique).
  [[nodiscard]] StatusOr<EdgeId> find_edge(std::string_view name) const;

 private:
  static std::uint64_t fresh_topology_id();
  NodeId add_node(std::string name, NodeKind kind);

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
  std::uint64_t topology_id_ = fresh_topology_id();
};

}  // namespace gridsec::flow
