#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/graph/udg.hpp"
#include "rim/sim/adversarial.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/topology/mst_topology.hpp"

namespace rim::core {
namespace {

graph::Graph mst_of(const geom::PointSet& points) {
  return topology::mst_topology(points, graph::build_udg(points, 1.0));
}

/// Max increase of I(v) over the pre-existing nodes (0 when no delta is
/// positive; a removed node's own delta is -I(victim)).
std::uint32_t max_node_increase(const Assessment& assessment) {
  std::int64_t increase = 0;
  for (const std::int64_t delta : assessment.delta_per_node) {
    increase = std::max(increase, delta);
  }
  return static_cast<std::uint32_t>(increase);
}

TEST(NodeAddition, IsolatedNewcomerAddsAtMostOne) {
  // Pure receiver-centric robustness: a node that transmits nothing and is
  // attached to nobody changes nothing at all.
  const auto points = sim::uniform_square(40, 1.5, 5);
  const graph::Graph topo = mst_of(points);
  const auto impact =
      Assessor{}.assess_addition(points, topo, {0.7, 0.7}, AttachPolicy::kIsolated);
  EXPECT_EQ(impact.receiver_max_node_increase, 0u);
  EXPECT_EQ(impact.receiver_after, impact.receiver_before);
}

class NodeAdditionRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeAdditionRobustness, ReceiverIncreaseBoundedByTwo) {
  // The newcomer's own disk adds at most 1 to any node, and its attachment
  // partner's enlarged disk at most 1 more: total <= 2 per node, in stark
  // contrast to the sender-centric measure (see Figure1 test below).
  const auto points = sim::uniform_square(50, 2.0, GetParam());
  const graph::Graph topo = mst_of(points);
  sim::Rng rng(GetParam() ^ 0xabcdu);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Vec2 newcomer{rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)};
    const auto impact = Assessor{}.assess_addition(points, topo, newcomer,
                                             AttachPolicy::kNearestNeighbor);
    EXPECT_LE(impact.receiver_max_node_increase, 2u)
        << "newcomer at (" << newcomer.x << ", " << newcomer.y << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeAdditionRobustness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(NodeAddition, Figure1SenderCentricExplodes) {
  // The paper's Figure 1: adding the outlier pushes the sender-centric
  // measure to ~n while the receiver-centric one moves by a small constant.
  const std::size_t n = 60;
  const geom::PointSet all = sim::figure1_instance(n, 11);
  const geom::PointSet cluster(all.begin(), all.end() - 1);
  const graph::Graph topo = mst_of(cluster);

  const auto impact = Assessor{}.assess_addition(cluster, topo, all.back(),
                                           AttachPolicy::kNearestNeighbor);
  // Sender-centric: the bridge edge covers essentially the whole cluster.
  EXPECT_GE(impact.sender_after, static_cast<std::uint32_t>(n) - 10);
  // Receiver-centric: any node gains at most 2.
  EXPECT_LE(impact.receiver_max_node_increase, 2u);
  EXPECT_LE(impact.receiver_after, impact.receiver_before + 2);
}

TEST(NodeAddition, NewcomerInterferenceIsCounted) {
  const geom::PointSet points{{0, 0}, {0.5, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const auto impact =
      Assessor{}.assess_addition(points, topo, {0.25, 0.1}, AttachPolicy::kIsolated);
  // Both existing disks (radius 0.5) cover the newcomer.
  EXPECT_EQ(impact.newcomer_interference, 2u);
}

TEST(NodeRemoval, NeverIncreasesInterferenceWithoutRepair) {
  const auto points = sim::uniform_square(40, 1.5, 21);
  const graph::Graph topo = mst_of(points);
  for (NodeId victim = 0; victim < points.size(); victim += 7) {
    Scenario scenario(points, topo);
    const auto impact =
        Assessor{}.assess(scenario, Mutation::remove_node(victim));
    EXPECT_EQ(max_node_increase(impact), 0u) << "victim " << victim;
    EXPECT_LE(impact.max_after, impact.max_before);
  }
}

TEST(NodeRemoval, RemovingCovererDropsInterference) {
  // Chain 0-1-2: removing the middle node leaves nothing transmitting.
  const geom::PointSet points{{0, 0}, {1, 0}, {2, 0}};
  graph::Graph topo(3);
  topo.add_edge(0, 1);
  topo.add_edge(1, 2);
  Scenario scenario(points, topo);
  const auto impact = Assessor{}.assess(scenario, Mutation::remove_node(1));
  EXPECT_EQ(impact.max_after, 0u);
  EXPECT_GT(impact.max_before, 0u);
}

}  // namespace
}  // namespace rim::core
