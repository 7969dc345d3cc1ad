#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/sinr.hpp"
#include "rim/graph/udg.hpp"
#include "rim/phy/scheduling.hpp"
#include "rim/sim/generators.hpp"
#include "rim/topology/mst_topology.hpp"

namespace rim::phy {
namespace {

/// Power the SINR comparator (kBrute) sums at \p receiver from the
/// transmitters \p senders, each with its farthest-neighbor radius. The
/// receiver is node 0 and silent (radius 0).
double assessed_power(NodeId receiver, std::span<const NodeId> senders,
                      std::span<const double> radii2,
                      std::span<const geom::Vec2> points,
                      const core::SinrOptions& sinr) {
  geom::PointSet nodes{points[receiver]};
  std::vector<double> node_radii2{0.0};
  for (NodeId u : senders) {
    nodes.push_back(points[u]);
    node_radii2.push_back(radii2[u]);
  }
  const core::SinrAssessor assessor(core::EvalOptions{}
                                        .with_strategy(core::Strategy::kBrute)
                                        .with_sinr(sinr));
  return assessor.assess(nodes, node_radii2).power[0];
}

/// Every topology link is scheduled, and every link of every slot decodes
/// (to 1e-9 relative) when the SINR comparator re-evaluates its signal and
/// the interference of the slot's other transmitters from scratch.
void expect_slots_decode(const Schedule& schedule, const graph::Graph& topo,
                         std::span<const geom::Vec2> points,
                         const core::SinrOptions& sinr = {}) {
  EXPECT_EQ(schedule.scheduled_links(), topo.edge_count());
  const std::vector<double> radii2 =
      core::transmission_radii_squared(topo, points);
  for (const auto& slot : schedule.slots) {
    for (graph::Edge link : slot) {
      std::vector<NodeId> others;
      for (graph::Edge other : slot) {
        if (other != link) others.push_back(other.u);
      }
      const NodeId sender[] = {link.u};
      const double signal =
          assessed_power(link.v, sender, radii2, points, sinr);
      const double interference =
          assessed_power(link.v, others, radii2, points, sinr);
      EXPECT_GE(signal / (sinr.noise + interference),
                sinr.beta * (1.0 - 1e-9))
          << "link " << link.u << "->" << link.v << ", h "
          << sinr.half_alpha;
    }
  }
}

// The SINR link rule, observed through the scheduler: whether two links
// share a slot is exactly whether both still decode together.

TEST(Sinr, IsolatedLinkAlwaysDecodes) {
  const geom::PointSet points{{0, 0}, {1, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const Schedule schedule = schedule_links_sinr(topo, points);
  EXPECT_EQ(schedule.length(), 1u);
  expect_slots_decode(schedule, topo, points);
  // With no interference the link decodes at SINR = beta * margin exactly
  // at the farthest neighbor.
  const core::SinrOptions sinr;
  const double radii2[] = {1.0, 1.0};
  const NodeId sender[] = {0};
  EXPECT_NEAR(assessed_power(1, sender, radii2, points, sinr) / sinr.noise,
              sinr.beta * sinr.margin, 1e-9);
}

TEST(Sinr, SilentNodeHasNoPower) {
  // Node 4 has no link (radius 0) and sits right beside receiver 1: it
  // adds no interference, so the two far-apart links still share a slot.
  const geom::PointSet points{{0, 0}, {1, 0}, {10, 0}, {11, 0}, {1.01, 0}};
  graph::Graph topo(5);
  topo.add_edge(0, 1);
  topo.add_edge(2, 3);
  const Schedule schedule = schedule_links_sinr(topo, points);
  EXPECT_EQ(schedule.length(), 1u);
  expect_slots_decode(schedule, topo, points);
}

TEST(Sinr, ReceivedPowerFollowsPathLoss) {
  // Link 0->1 and an interfering link 2->3, all radii 1, with transmitter 2
  // at distance D from receiver 1. Link 0->1 decodes iff
  // kappa / (noise + kappa / D^alpha) >= beta, i.e. iff D^alpha >= 4 under
  // the default beta, noise and margin: the links pack into one slot just
  // beyond D* = 4^(1/alpha) and need two just inside it.
  for (const int h : {1, 2}) {
    const auto sinr = core::SinrOptions{}.with_half_alpha(h);
    const double threshold = std::pow(4.0, 1.0 / (2.0 * h));
    for (const double scale : {0.97, 1.03}) {
      const double d = threshold * scale;
      const geom::PointSet points{{0, 0}, {1, 0}, {1 + d, 0}, {2 + d, 0}};
      graph::Graph topo(4);
      topo.add_edge(0, 1);
      topo.add_edge(2, 3);
      EXPECT_EQ(schedule_links_sinr(topo, points, sinr).length(),
                scale < 1.0 ? 2u : 1u)
          << "h " << h << ", D " << d;
    }
  }
}

TEST(Sinr, StrongInterfererKillsLink) {
  // Receiver 1 sits as close to the interferer 2 as to its own sender 0,
  // and both transmit at the same power: SINR < 1 < beta together.
  const geom::PointSet points{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  graph::Graph topo(4);
  topo.add_edge(0, 1);
  topo.add_edge(2, 3);
  EXPECT_EQ(schedule_links_sinr(topo, points).length(), 2u);
}

TEST(Sinr, HalfDuplexAndNonTransmittingSender) {
  // Half duplex: node 1 cannot receive 0->1 while sending 1->2. SINR alone
  // would admit both (the kernel excludes node 1's own position), so the
  // shared-endpoint check is what separates them.
  const geom::PointSet chain{{0, 0}, {1, 0}, {2, 0}};
  graph::Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  EXPECT_EQ(schedule_links_sinr(path, chain).length(), 2u);

  // Link 2-3 has coincident endpoints, so its sender has radius 0 and the
  // kernel excludes d2 == 0: zero signal. It never decodes and gets a slot
  // of its own, once; the two independent links pack.
  const geom::PointSet points{{0, 0}, {1, 0}, {20, 0}, {20, 0}, {40, 0},
                              {41, 0}};
  graph::Graph topo(6);
  topo.add_edge(0, 1);
  topo.add_edge(2, 3);
  topo.add_edge(4, 5);
  const Schedule schedule = schedule_links_sinr(topo, points);
  ASSERT_EQ(schedule.length(), 2u);
  EXPECT_EQ(schedule.scheduled_links(), 3u);
  const std::vector<graph::Edge> solo{{2, 3}};
  EXPECT_EQ(schedule.slots[1], solo);
}

TEST(ScheduleDisk, ValidAndCompleteOnRandomInstances) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto points = sim::uniform_square(80, 2.0, seed);
    const graph::Graph udg = graph::build_udg(points, 1.0);
    const graph::Graph mst = topology::mst_topology(points, udg);
    const Schedule schedule = schedule_links_disk(mst, points);
    EXPECT_TRUE(schedule_valid_disk(schedule, mst, points)) << seed;
    EXPECT_EQ(schedule.scheduled_links(), mst.edge_count()) << seed;
  }
}

TEST(ScheduleDisk, LengthAtLeastMaxDegree) {
  // All links at one node pairwise conflict (shared endpoint).
  const auto points = sim::uniform_square(100, 2.0, 7);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  const Schedule schedule = schedule_links_disk(mst, points);
  EXPECT_GE(schedule.length(), mst.max_degree());
}

TEST(ScheduleDisk, IndependentLinksShareOneSlot) {
  // Two far-apart short links: no conflict, one slot.
  const geom::PointSet points{{0, 0}, {0.5, 0}, {10, 0}, {10.5, 0}};
  graph::Graph topo(4);
  topo.add_edge(0, 1);
  topo.add_edge(2, 3);
  const Schedule schedule = schedule_links_disk(topo, points);
  EXPECT_EQ(schedule.length(), 1u);
}

TEST(ScheduleDisk, CoveringLinksAreSeparated) {
  // The long link's transmitter covers the short link's receiver.
  const geom::PointSet points{{0, 0}, {0.4, 0}, {1.0, 0}, {3.0, 0}};
  graph::Graph topo(4);
  topo.add_edge(0, 1);  // receiver 1 inside node 2's disk below
  topo.add_edge(2, 3);  // r_2 = 2 covers node 1
  const Schedule schedule = schedule_links_disk(topo, points);
  EXPECT_EQ(schedule.length(), 2u);
}

TEST(ScheduleSinr, AllLinksScheduledAndSlotsFeasible) {
  for (std::uint64_t seed : {4u, 5u}) {
    const auto points = sim::uniform_square(70, 2.0, seed);
    const graph::Graph udg = graph::build_udg(points, 1.0);
    const graph::Graph mst = topology::mst_topology(points, udg);
    SCOPED_TRACE(seed);
    expect_slots_decode(schedule_links_sinr(mst, points), mst, points);
  }
}

TEST(ScheduleSinr, SoloLinkNeedsOneSlot) {
  const geom::PointSet points{{0, 0}, {1, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  EXPECT_EQ(schedule_links_sinr(topo, points).length(), 1u);
}

TEST(ScheduleDisk, EmptyTopology) {
  const geom::PointSet points{{0, 0}, {1, 1}};
  const graph::Graph topo(2);
  EXPECT_EQ(schedule_links_disk(topo, points).length(), 0u);
  EXPECT_EQ(schedule_links_sinr(topo, points).length(), 0u);
}

TEST(Schedules, Deterministic) {
  const auto points = sim::uniform_square(60, 2.0, 15);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  EXPECT_EQ(schedule_links_disk(mst, points).slots,
            schedule_links_disk(mst, points).slots);
  EXPECT_EQ(schedule_links_sinr(mst, points).slots,
            schedule_links_sinr(mst, points).slots);
}

class SinrParamSweep : public ::testing::TestWithParam<int> {};

TEST_P(SinrParamSweep, HigherAlphaLocalisesInterference) {
  // With a steeper path-loss exponent alpha = 2h, remote interferers
  // matter less, so the SINR frame length does not grow as alpha rises.
  // The parameter is alpha itself; core::SinrOptions takes even values.
  const auto points = sim::uniform_square(70, 2.5, 16);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  const int alpha = GetParam();
  ASSERT_EQ(alpha % 2, 0);
  const int h = alpha / 2;
  const auto sinr = core::SinrOptions{}.with_half_alpha(h);
  const Schedule schedule = schedule_links_sinr(mst, points, sinr);
  expect_slots_decode(schedule, mst, points, sinr);
  if (h > 1) {
    const auto flatter = core::SinrOptions{}.with_half_alpha(h - 1);
    EXPECT_LE(schedule.length(),
              schedule_links_sinr(mst, points, flatter).length());
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, SinrParamSweep, ::testing::Values(2, 4, 6));

TEST(Schedules, FrameLengthTracksInterference) {
  // The E16 claim in miniature: on the linear exponential chain the disk
  // frame length is at least half of I(G'). Every link's disk covers the
  // chain's left end, so the frame saturates at n-1 slots.
  geom::PointSet chain_points;
  double x = 0.0;
  double gap = 1.0 / 512.0;
  for (int i = 0; i < 10; ++i) {
    chain_points.push_back({x, 0.0});
    x += gap;
    gap *= 2.0;
  }
  graph::Graph linear(chain_points.size());
  for (NodeId i = 0; i + 1 < chain_points.size(); ++i) linear.add_edge(i, i + 1);
  const std::size_t linear_frame =
      schedule_links_disk(linear, chain_points).length();
  const std::uint32_t linear_i =
      core::graph_interference(linear, chain_points);
  EXPECT_GE(linear_frame, static_cast<std::size_t>(linear_i) / 2);
}

}  // namespace
}  // namespace rim::phy
