#include <gtest/gtest.h>

#include <vector>

#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/a_exp.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/highway/linear_chain.hpp"
#include "rim/mac/csma_mac.hpp"
#include "rim/mac/event_queue.hpp"
#include "rim/mac/medium.hpp"
#include "rim/mac/simulation.hpp"
#include "rim/mac/slotted_mac.hpp"
#include "rim/sim/generators.hpp"
#include "rim/topology/mst_topology.hpp"

namespace rim::mac {
namespace {

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilHorizonStops) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void()> tick = [&] {
    if (++chain < 10) q.schedule_in(1.0, tick);
  };
  q.schedule(0.0, tick);
  q.run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(Medium, CoverersMatchInterferenceDefinition) {
  // 3-node chain with exponential-ish gaps: middle node's disk covers both.
  const geom::PointSet points{{0, 0}, {1, 0}, {3, 0}};
  graph::Graph topo(3);
  topo.add_edge(0, 1);
  topo.add_edge(1, 2);
  const Medium medium(topo, points);
  // Node 0: covered by 1 (r=2) — and by 2 (r=2 at distance 3? no).
  const auto c0 = medium.coverers_of(0);
  EXPECT_EQ(std::vector<NodeId>(c0.begin(), c0.end()), (std::vector<NodeId>{1}));
  // Node 1: covered by 0 (r=1) and 2 (r=2).
  const auto c1 = medium.coverers_of(1);
  EXPECT_EQ(std::vector<NodeId>(c1.begin(), c1.end()),
            (std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(medium.covers(1, 2));
  EXPECT_FALSE(medium.covers(0, 2));

  // The medium's coverers and ranges are exactly Definition 3.1's witnesses
  // and the topology-induced radii: random MSTs, plus coincident nodes
  // (0, 1 and 3, 4) and isolated ones (2, 5).
  const auto expect_matches_core = [](const graph::Graph& g,
                                      const geom::PointSet& pts) {
    const Medium m(g, pts);
    const auto witnesses = core::covering_sets(g, pts);
    const auto radii = core::transmission_radii(g, pts);
    ASSERT_EQ(m.node_count(), pts.size());
    for (NodeId v = 0; v < pts.size(); ++v) {
      const auto c = m.coverers_of(v);
      EXPECT_EQ(std::vector<NodeId>(c.begin(), c.end()), witnesses[v]) << v;
      EXPECT_EQ(m.range(v), radii[v]) << v;
    }
  };
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const geom::PointSet pts = sim::uniform_square(150, 2.5, seed);
    expect_matches_core(
        topology::mst_topology(pts, graph::build_udg(pts, 1.0)), pts);
  }
  const geom::PointSet special{{0, 0}, {0, 0}, {5, 5}, {1, 0}, {1, 0}, {9, 9}};
  graph::Graph g(special.size());
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(3, 4);
  expect_matches_core(g, special);
}

TEST(Medium, FrameReceptionRules) {
  const geom::PointSet points{{0, 0}, {1, 0}, {3, 0}};
  graph::Graph topo(3);
  topo.add_edge(0, 1);
  topo.add_edge(1, 2);
  const Medium medium(topo, points);
  std::vector<std::uint8_t> tx(3, 0);
  // Only node 0 transmits: node 1 receives.
  tx = {1, 0, 0};
  EXPECT_TRUE(medium.frame_received(0, 1, tx));
  // Receiver also transmitting: half duplex failure.
  tx = {1, 1, 0};
  EXPECT_FALSE(medium.frame_received(0, 1, tx));
  // Collision: node 2's disk covers node 1 too.
  tx = {1, 0, 1};
  EXPECT_FALSE(medium.frame_received(0, 1, tx));
  // Out of range: node 0 cannot reach node 2.
  tx = {1, 0, 0};
  EXPECT_FALSE(medium.frame_received(0, 2, tx));
  // Non-transmitting sender never delivers.
  tx = {0, 0, 0};
  EXPECT_FALSE(medium.frame_received(0, 1, tx));
}

TEST(SlottedMac, SingleFrameEventuallyDelivered) {
  const geom::PointSet points{{0, 0}, {1, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const Medium medium(topo, points);
  SlottedMac mac(medium, SlottedMac::Params{0.5, 2.0, 64}, 1);
  mac.offer(Frame{0, 1, 0.0});
  for (int slot = 0; slot < 200 && mac.stats().delivered == 0; ++slot) {
    mac.step(static_cast<double>(slot));
  }
  EXPECT_EQ(mac.stats().delivered, 1u);
  EXPECT_EQ(mac.stats().offered, 1u);
  EXPECT_GE(mac.stats().transmissions, 1u);
}

TEST(SlottedMac, EnergyAccountsRangeAlpha) {
  const geom::PointSet points{{0, 0}, {2, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const Medium medium(topo, points);
  SlottedMac mac(medium, SlottedMac::Params{1.0, 2.0, 64}, 1);
  mac.offer(Frame{0, 1, 0.0});
  mac.step(0.0);  // p=1: transmits once, delivered (no contender)
  EXPECT_EQ(mac.stats().delivered, 1u);
  EXPECT_DOUBLE_EQ(mac.stats().energy, 4.0);  // r^2 = 4
}

TEST(SlottedMac, RetryCapDropsFrames) {
  // Two mutually interfering nodes both always transmitting: permanent
  // collision until the retry cap trips.
  const geom::PointSet points{{0, 0}, {0.5, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const Medium medium(topo, points);
  SlottedMac mac(medium, SlottedMac::Params{1.0, 2.0, 5}, 2);
  mac.offer(Frame{0, 1, 0.0});
  mac.offer(Frame{1, 0, 0.0});
  for (int slot = 0; slot < 20; ++slot) mac.step(slot);
  EXPECT_EQ(mac.stats().delivered, 0u);
  EXPECT_EQ(mac.stats().dropped, 2u);
  EXPECT_GT(mac.stats().collisions, 0u);
}

TEST(SlottedMac, FinalizeCountsBacklog) {
  const geom::PointSet points{{0, 0}, {1, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const Medium medium(topo, points);
  SlottedMac mac(medium, SlottedMac::Params{0.0, 2.0, 64}, 3);  // never sends
  mac.offer(Frame{0, 1, 0.0});
  mac.offer(Frame{0, 1, 0.0});
  mac.step(0.0);
  EXPECT_EQ(mac.backlogged_nodes(), 1u);
  mac.finalize();
  EXPECT_EQ(mac.stats().backlog, 2u);
}

TEST(Simulation, DeterministicGivenSeed) {
  const auto points = sim::uniform_square(40, 2.0, 5);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  SimulationConfig config;
  config.slots = 500;
  config.seed = 77;
  const auto a = simulate_traffic(mst, points, config);
  const auto b = simulate_traffic(mst, points, config);
  EXPECT_EQ(a.mac.delivered, b.mac.delivered);
  EXPECT_EQ(a.mac.collisions, b.mac.collisions);
  EXPECT_DOUBLE_EQ(a.mac.energy, b.mac.energy);
}

TEST(Simulation, ConservationOfFrames) {
  const auto points = sim::uniform_square(50, 2.0, 6);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  SimulationConfig config;
  config.slots = 800;
  const auto report = simulate_traffic(mst, points, config);
  EXPECT_EQ(report.mac.offered,
            report.mac.delivered + report.mac.dropped + report.mac.backlog);
  EXPECT_EQ(report.mac.transmissions,
            report.mac.delivered + report.mac.collisions);
}

TEST(Simulation, HighInterferenceTopologyCollidesMore) {
  // Same instance, two topologies: linear exponential chain (interference
  // Θ(n)) versus A_exp (Θ(sqrt n)). Under saturated traffic the per-frame
  // success probability is roughly p (1-p)^{I(receiver)}, so the
  // low-interference topology must push through clearly more frames.
  const auto chain = highway::exponential_chain(48);
  const auto points = chain.to_points();
  SimulationConfig config;
  config.slots = 2000;
  config.arrival_rate = 1.0;  // saturate every queue
  config.mac.transmit_probability = 0.1;
  config.seed = 11;
  const auto linear =
      simulate_traffic(highway::linear_chain(chain, 1.0), points, config);
  const auto aexp =
      simulate_traffic(highway::a_exp(chain).topology, points, config);
  ASSERT_GT(linear.interference, aexp.interference);
  EXPECT_GT(aexp.mac.delivered, linear.mac.delivered * 13 / 10);
  // Collision rate (collisions per transmission) is higher under the
  // high-interference topology.
  const double linear_rate = static_cast<double>(linear.mac.collisions) /
                             static_cast<double>(linear.mac.transmissions);
  const double aexp_rate = static_cast<double>(aexp.mac.collisions) /
                           static_cast<double>(aexp.mac.transmissions);
  EXPECT_GT(linear_rate, aexp_rate);
}

TEST(CsmaMac, SingleFrameDelivered) {
  const geom::PointSet points{{0, 0}, {1, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const Medium medium(topo, points);
  CsmaMac mac(medium, CsmaMac::Params{1.0, 2.0, 64}, 1);
  mac.offer(Frame{0, 1, 0.0});
  mac.step(0.0);
  EXPECT_EQ(mac.stats().delivered, 1u);
  EXPECT_EQ(mac.stats().collisions, 0u);
}

TEST(CsmaMac, CarrierSensePreventsMutualCollision) {
  // Two mutually audible backlogged nodes with persistence 1: whoever wins
  // the contention order transmits, the other defers — never the ALOHA
  // permanent collision.
  const geom::PointSet points{{0, 0}, {0.5, 0}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const Medium medium(topo, points);
  CsmaMac mac(medium, CsmaMac::Params{1.0, 2.0, 64}, 2);
  mac.offer(Frame{0, 1, 0.0});
  mac.offer(Frame{1, 0, 0.0});
  for (int slot = 0; slot < 10 && mac.stats().delivered < 2; ++slot) {
    mac.step(slot);
  }
  EXPECT_EQ(mac.stats().delivered, 2u);
  EXPECT_EQ(mac.stats().collisions, 0u);
}

TEST(CsmaMac, HiddenTerminalsStillCollide) {
  // w covers the receiver v but is out of u's earshot: u cannot sense w, so
  // their simultaneous transmissions collide at v — CSMA's classic failure,
  // which keeps the receiver-centric interference measure predictive.
  const geom::PointSet points{{0, 0}, {1, 0}, {3, 0}, {5, 0}};
  graph::Graph topo(4);
  topo.add_edge(0, 1);  // u=0 -> v=1
  topo.add_edge(2, 3);  // w=2 with a long link (r=2 covers v=1)
  const Medium medium(topo, points);
  ASSERT_TRUE(medium.covers(2, 1));
  ASSERT_FALSE(medium.covers(2, 0));
  CsmaMac mac(medium, CsmaMac::Params{1.0, 2.0, 2}, 3);
  mac.offer(Frame{0, 1, 0.0});
  mac.offer(Frame{2, 3, 0.0});
  mac.step(0.0);
  // Both transmit (neither senses the other at its own location): the frame
  // to v=1 collides; the frame to 3 succeeds (nothing else covers node 3).
  EXPECT_EQ(mac.stats().transmissions, 2u);
  EXPECT_EQ(mac.stats().collisions, 1u);
  EXPECT_EQ(mac.stats().delivered, 1u);
}

TEST(CsmaSimulation, BeatsAlohaUnderSaturation) {
  const auto points = sim::uniform_square(80, 2.0, 21);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  SimulationConfig config;
  config.slots = 1500;
  config.arrival_rate = 1.0;
  config.mac.transmit_probability = 0.3;
  config.seed = 5;
  config.kind = MacKind::kAloha;
  const auto aloha = simulate_traffic(mst, points, config);
  config.kind = MacKind::kCsma;
  const auto csma = simulate_traffic(mst, points, config);
  EXPECT_GT(csma.mac.delivered, aloha.mac.delivered);
  const double aloha_rate = static_cast<double>(aloha.mac.collisions) /
                            static_cast<double>(aloha.mac.transmissions);
  const double csma_rate = static_cast<double>(csma.mac.collisions) /
                           static_cast<double>(csma.mac.transmissions);
  EXPECT_LT(csma_rate, aloha_rate);
}

TEST(CsmaSimulation, ConservationOfFrames) {
  const auto points = sim::uniform_square(50, 2.0, 22);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  SimulationConfig config;
  config.slots = 600;
  config.kind = MacKind::kCsma;
  const auto report = simulate_traffic(udg, points, config);
  EXPECT_EQ(report.mac.offered,
            report.mac.delivered + report.mac.dropped + report.mac.backlog);
  EXPECT_EQ(report.mac.transmissions,
            report.mac.delivered + report.mac.collisions);
}

TEST(Simulation, NoTrafficMeansCleanStats) {
  const auto points = sim::uniform_square(20, 1.5, 7);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  SimulationConfig config;
  config.slots = 100;
  config.arrival_rate = 0.0;
  const auto report = simulate_traffic(udg, points, config);
  EXPECT_EQ(report.mac.offered, 0u);
  EXPECT_EQ(report.mac.transmissions, 0u);
  EXPECT_DOUBLE_EQ(report.mac.delivery_ratio(), 1.0);
}

}  // namespace
}  // namespace rim::mac
