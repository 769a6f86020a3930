// Tests for multi-actor profit division (LMP and perturbation allocators).
#include "gridsec/flow/allocation.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gridsec/util/rng.hpp"

namespace gridsec::flow {
namespace {

constexpr double kTol = 1e-5;

// Two-hub system with congestion: generator at A (cost 10), expensive
// generator at B (cost 45), line A->B capacity 30, load at B (price 60,
// demand 100).
Network congested_pair() {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  net.add_supply("gen.A", a, 1000.0, 10.0);   // edge 0
  net.add_supply("gen.B", b, 1000.0, 45.0);   // edge 1
  net.add_edge("line", EdgeKind::kTransmission, a, b, 30.0, 0.0);  // edge 2
  net.add_demand("load.B", b, 100.0, 60.0);   // edge 3
  return net;
}

TEST(Allocation, EdgeProfitsSumToWelfareLmp) {
  Network net = congested_pair();
  auto res = allocate_profits(net, {}, 0);
  ASSERT_TRUE(res.optimal());
  const double sum = std::accumulate(res.edge_profit.begin(),
                                     res.edge_profit.end(), 0.0);
  EXPECT_NEAR(sum, res.welfare, kTol);
}

TEST(Allocation, CongestionRentGoesToLineOwner) {
  Network net = congested_pair();
  auto res = allocate_profits(net, {}, 0);
  ASSERT_TRUE(res.optimal());
  // LMPs: A=10, B=45. Line earns (45-10)*30 = 1050 congestion rent.
  EXPECT_NEAR(res.edge_profit[2], 1050.0, kTol);
  // gen.A sells at its own marginal cost: zero profit.
  EXPECT_NEAR(res.edge_profit[0], 0.0, kTol);
  // gen.B is the marginal unit: zero profit.
  EXPECT_NEAR(res.edge_profit[1], 0.0, kTol);
  // Consumer surplus: (60-45)*100 = 1500.
  EXPECT_NEAR(res.edge_profit[3], 1500.0, kTol);
}

TEST(Allocation, ActorAggregationMatchesOwnership) {
  Network net = congested_pair();
  // Owners: actor 0 owns both generators, actor 1 owns line + load.
  std::vector<int> owners{0, 0, 1, 1};
  auto res = allocate_profits(net, owners, 2);
  ASSERT_TRUE(res.optimal());
  ASSERT_EQ(res.actor_profit.size(), 2u);
  EXPECT_NEAR(res.actor_profit[0], res.edge_profit[0] + res.edge_profit[1],
              kTol);
  EXPECT_NEAR(res.actor_profit[1], res.edge_profit[2] + res.edge_profit[3],
              kTol);
  EXPECT_NEAR(res.actor_profit[0] + res.actor_profit[1], res.welfare, kTol);
}

TEST(Allocation, InframarginalGeneratorEarnsRent) {
  Network net;
  const NodeId h = net.add_hub("H");
  net.add_supply("cheap", h, 40.0, 10.0);  // edge 0
  net.add_supply("dear", h, 100.0, 30.0);  // edge 1, marginal
  net.add_demand("load", h, 70.0, 50.0);   // edge 2
  auto res = allocate_profits(net, {}, 0);
  ASSERT_TRUE(res.optimal());
  // LMP = 30 (dear generator marginal). Cheap earns (30-10)*40 = 800.
  EXPECT_NEAR(res.edge_profit[0], 800.0, kTol);
  EXPECT_NEAR(res.edge_profit[1], 0.0, kTol);
  EXPECT_NEAR(res.edge_profit[2], (50.0 - 30.0) * 70.0, kTol);
}

TEST(Allocation, PerturbationMatchesLmpOnNondegenerateSystem) {
  Network net = congested_pair();
  AllocationOptions lmp_opt;
  lmp_opt.kind = AllocatorKind::kLmp;
  AllocationOptions pert_opt;
  pert_opt.kind = AllocatorKind::kPerturbation;
  auto lmp = allocate_profits(net, {}, 0, lmp_opt);
  auto pert = allocate_profits(net, {}, 0, pert_opt);
  ASSERT_TRUE(lmp.optimal());
  ASSERT_TRUE(pert.optimal());
  for (int n = 0; n < net.num_nodes(); ++n) {
    EXPECT_NEAR(lmp.node_price[static_cast<std::size_t>(n)],
                pert.node_price[static_cast<std::size_t>(n)], 1e-3)
        << net.node(n).name;
  }
  for (int e = 0; e < net.num_edges(); ++e) {
    EXPECT_NEAR(lmp.edge_profit[static_cast<std::size_t>(e)],
                pert.edge_profit[static_cast<std::size_t>(e)], 1.0)
        << net.edge(e).name;
  }
}

TEST(Allocation, ProbeNodePricesScarcity) {
  Network net;
  const NodeId h = net.add_hub("H");
  net.add_supply("gen", h, 40.0, 20.0);
  net.add_demand("load", h, 60.0, 50.0);
  auto base = solve_social_welfare(net);
  ASSERT_TRUE(base.optimal());
  auto prices = probe_node_prices(net, base, 1e-4);
  ASSERT_TRUE(prices.is_ok());
  // Scarce supply: free injection is worth the consumer's 50.
  EXPECT_NEAR(prices.value()[static_cast<std::size_t>(h)], 50.0, 1e-3);
}

TEST(Allocation, LossyChainProfitsStillSumToWelfare) {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  net.add_supply("gen", a, 200.0, 12.0);
  net.add_edge("line", EdgeKind::kTransmission, a, b, 150.0, 1.5, 0.08);
  net.add_demand("load", b, 90.0, 55.0);
  auto res = allocate_profits(net, {}, 0);
  ASSERT_TRUE(res.optimal());
  const double sum = std::accumulate(res.edge_profit.begin(),
                                     res.edge_profit.end(), 0.0);
  EXPECT_NEAR(sum, res.welfare, kTol);
}

// Property sweep: on random networks, both allocators' edge profits must sum
// to the social welfare (the telescoping identity), and actor profits must
// sum to the same total under any ownership.
class AllocationProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocationProperty, ProfitsPartitionWelfare) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  Network net;
  const int n_hubs = 3 + static_cast<int>(rng.uniform_index(3));
  std::vector<NodeId> hubs;
  for (int i = 0; i < n_hubs; ++i) {
    hubs.push_back(net.add_hub(std::string("h").append(std::to_string(i))));
  }
  for (int i = 0; i < n_hubs; ++i) {
    net.add_supply("gen" + std::to_string(i), hubs[static_cast<std::size_t>(i)],
                   rng.uniform(20.0, 120.0), rng.uniform(5.0, 40.0));
    net.add_demand("load" + std::to_string(i),
                   hubs[static_cast<std::size_t>(i)], rng.uniform(20.0, 80.0),
                   rng.uniform(30.0, 90.0));
  }
  // Ring of lossy lines.
  for (int i = 0; i < n_hubs; ++i) {
    net.add_edge("line" + std::to_string(i), EdgeKind::kTransmission,
                 hubs[static_cast<std::size_t>(i)],
                 hubs[static_cast<std::size_t>((i + 1) % n_hubs)],
                 rng.uniform(10.0, 60.0), rng.uniform(0.0, 3.0),
                 rng.uniform(0.0, 0.15));
  }
  std::vector<int> owners(static_cast<std::size_t>(net.num_edges()));
  const int n_actors = 3;
  for (auto& o : owners) o = static_cast<int>(rng.uniform_index(n_actors));

  auto res = allocate_profits(net, owners, n_actors);
  ASSERT_TRUE(res.optimal());
  const double edge_sum = std::accumulate(res.edge_profit.begin(),
                                          res.edge_profit.end(), 0.0);
  EXPECT_NEAR(edge_sum, res.welfare, 1e-4);
  const double actor_sum = std::accumulate(res.actor_profit.begin(),
                                           res.actor_profit.end(), 0.0);
  EXPECT_NEAR(actor_sum, res.welfare, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace gridsec::flow
