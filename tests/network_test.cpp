// Tests for the energy network model.
#include "gridsec/flow/network.hpp"

#include <gtest/gtest.h>

namespace gridsec::flow {
namespace {

Network two_hub_line() {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  net.add_supply("gen.A", a, 100.0, 20.0);
  net.add_edge("line.AB", EdgeKind::kTransmission, a, b, 80.0, 2.0, 0.05);
  net.add_demand("load.B", b, 60.0, 50.0);
  return net;
}

TEST(Network, BuildCountsNodesAndEdges) {
  Network net = two_hub_line();
  // 2 hubs + 1 source terminal + 1 sink terminal.
  EXPECT_EQ(net.num_nodes(), 4);
  EXPECT_EQ(net.num_edges(), 3);
}

TEST(Network, SupplyHelperCreatesSourceTerminal) {
  Network net;
  const NodeId h = net.add_hub("H");
  const EdgeId e = net.add_supply("gen", h, 10.0, 5.0);
  EXPECT_EQ(net.edge(e).kind, EdgeKind::kSupply);
  EXPECT_EQ(net.node(net.edge(e).from).kind, NodeKind::kSource);
  EXPECT_EQ(net.edge(e).to, h);
  EXPECT_DOUBLE_EQ(net.edge(e).cost, 5.0);
}

TEST(Network, DemandHelperStoresNegativePrice) {
  Network net;
  const NodeId h = net.add_hub("H");
  net.add_supply("gen", h, 10.0, 5.0);
  const EdgeId e = net.add_demand("load", h, 10.0, 42.0);
  EXPECT_EQ(net.edge(e).kind, EdgeKind::kDemand);
  EXPECT_DOUBLE_EQ(net.edge(e).cost, -42.0);
  EXPECT_EQ(net.node(net.edge(e).to).kind, NodeKind::kSink);
}

TEST(Network, AdjacencyListsTrackEdges) {
  Network net = two_hub_line();
  auto line = net.find_edge("line.AB");
  ASSERT_TRUE(line.is_ok());
  const Edge& e = net.edge(line.value());
  EXPECT_EQ(net.out_edges(e.from).size(), 1u);  // hub A: line out
  EXPECT_EQ(net.in_edges(e.from).size(), 1u);   // hub A: supply in
  EXPECT_EQ(net.in_edges(e.to).size(), 1u);     // hub B: line in
}

TEST(Network, MutatorsUpdateParameters) {
  Network net = two_hub_line();
  auto line = net.find_edge("line.AB");
  ASSERT_TRUE(line.is_ok());
  net.set_capacity(line.value(), 10.0);
  net.set_cost(line.value(), 99.0);
  net.set_loss(line.value(), 0.2);
  EXPECT_DOUBLE_EQ(net.edge(line.value()).capacity, 10.0);
  EXPECT_DOUBLE_EQ(net.edge(line.value()).cost, 99.0);
  EXPECT_DOUBLE_EQ(net.edge(line.value()).loss, 0.2);
}

TEST(Network, TopologyIdSharedByCopiesRenewedByAdds) {
  Network net = two_hub_line();
  const std::uint64_t id = net.topology_id();
  EXPECT_NE(two_hub_line().topology_id(), id);

  const Network copy = net;
  EXPECT_EQ(copy.topology_id(), id);
  // Edge data is not topology.
  net.set_capacity(0, 10.0);
  net.set_cost(1, 3.0);
  net.set_loss(1, 0.1);
  EXPECT_EQ(net.topology_id(), id);

  const NodeId c = net.add_hub("C");
  const std::uint64_t after_hub = net.topology_id();
  EXPECT_NE(after_hub, id);
  net.add_edge("line.BC", EdgeKind::kTransmission, 1, c, 10.0, 1.0);
  EXPECT_NE(net.topology_id(), after_hub);
  EXPECT_NE(net.topology_id(), id);
  EXPECT_EQ(copy.topology_id(), id);
}

TEST(Network, CapacityTotals) {
  Network net = two_hub_line();
  EXPECT_DOUBLE_EQ(net.total_supply_capacity(), 100.0);
  EXPECT_DOUBLE_EQ(net.total_demand_capacity(), 60.0);
}

TEST(Network, ValidateAcceptsConsistentModel) {
  Network net = two_hub_line();
  EXPECT_TRUE(net.validate().is_ok());
}

TEST(Network, ValidateRejectsUnservableDemand) {
  Network net;
  const NodeId a = net.add_hub("A");
  net.add_supply("gen", a, 5.0, 1.0);
  net.add_demand("load", a, 50.0, 10.0);  // inbound capacity only 5
  const Status st = net.validate();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
}

TEST(Network, FindEdgeByName) {
  Network net = two_hub_line();
  EXPECT_TRUE(net.find_edge("gen.A").is_ok());
  EXPECT_FALSE(net.find_edge("nope").is_ok());
  EXPECT_EQ(net.find_edge("nope").status().code(), ErrorCode::kNotFound);
}

using NetworkDeathTest = Network;

TEST(NetworkDeathTest, RejectsWrongTerminalKinds) {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  EXPECT_DEATH(net.add_edge("bad", EdgeKind::kSupply, a, b, 1.0, 1.0),
               "supply edge");
}

TEST(NetworkDeathTest, RejectsBadLoss) {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  EXPECT_DEATH(
      net.add_edge("bad", EdgeKind::kTransmission, a, b, 1.0, 1.0, 1.0),
      "loss");
}

}  // namespace
}  // namespace gridsec::flow
