#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/sender_centric.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/graph/connectivity.hpp"
#include "rim/graph/mst.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/a_apx.hpp"
#include "rim/highway/a_exp.hpp"
#include "rim/highway/a_gen.hpp"
#include "rim/highway/critical.hpp"
#include "rim/highway/interference_1d.hpp"
#include "rim/highway/linear_chain.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/topology/registry.hpp"

/// Edge cases and cross-module invariants not covered by the per-module
/// suites: degenerate geometry (duplicates, collinearity), non-unit radii,
/// and relations between the two interference models.

namespace rim {
namespace {

TEST(DuplicatePoints, UdgAndInterferenceSurvive) {
  // Three coincident nodes plus one distinct: distance 0 edges are valid
  // UDG edges; radii can be 0 while others transmit.
  const geom::PointSet points{{1, 1}, {1, 1}, {1, 1}, {1.5, 1}};
  const graph::Graph udg = graph::build_udg(points, 1.0);
  EXPECT_EQ(udg.edge_count(), 6u);  // complete on 4 nodes
  const core::InterferenceSummary s = core::Assessor{}.assess(udg, points);
  // Every node's radius is 0.5 (farthest neighbor): all disks cover all.
  for (std::uint32_t i : s.per_node) EXPECT_EQ(i, 3u);
}

TEST(DuplicatePoints, ZeroLengthEdgeGivesZeroRadius) {
  const geom::PointSet points{{2, 2}, {2, 2}};
  graph::Graph topo(2);
  topo.add_edge(0, 1);
  const auto radii = core::transmission_radii(topo, points);
  EXPECT_DOUBLE_EQ(radii[0], 0.0);
  // Zero radius transmits nothing in the model: no interference.
  EXPECT_EQ(core::graph_interference(topo, points), 0u);
}

TEST(NonUnitRadius, UdgAndHighwayAgreeAtRadiusTwo) {
  const auto inst = sim::uniform_highway(80, 20.0, 5);
  const graph::Graph via_highway = inst.udg(2.0);
  const graph::Graph via_generic = graph::build_udg_brute(inst.to_points(), 2.0);
  EXPECT_EQ(via_highway.edge_count(), via_generic.edge_count());
  EXPECT_EQ(inst.max_degree(2.0), via_highway.max_degree());
}

TEST(NonUnitRadius, AGenRespectsSegmentLength) {
  const auto inst = sim::uniform_highway(200, 10.0, 6);
  for (double radius : {0.5, 2.0}) {
    const auto result = highway::a_gen(inst, radius);
    EXPECT_TRUE(graph::preserves_connectivity(inst.udg(radius), result.topology))
        << radius;
    // Every edge of the result must be a UDG edge at this radius.
    const auto& xs = inst.positions();
    for (graph::Edge e : result.topology.edges()) {
      EXPECT_LE(std::abs(xs[e.u] - xs[e.v]), radius) << radius;
    }
  }
}

TEST(NonUnitRadius, AApxBranchesConsistently) {
  const auto inst = sim::uniform_highway(150, 6.0, 7);
  for (double radius : {0.5, 1.0, 3.0}) {
    const auto result = highway::a_apx(inst, radius);
    EXPECT_TRUE(graph::preserves_connectivity(inst.udg(radius), result.topology))
        << radius;
    EXPECT_EQ(result.gamma, highway::gamma(inst, radius)) << radius;
  }
}

TEST(ModelsRelation, SenderMaxAtLeastReceiverishOnTrees) {
  // For any tree: the sender-centric coverage of the longest edge at a node
  // counts at least the nodes its endpoint disks cover; empirically the
  // sender measure dominates the receiver measure on MSTs. We assert the
  // weaker, always-true fact that both are bounded by n-1 and positive on
  // non-trivial trees.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto points = sim::uniform_square(80, 2.0, seed);
    const graph::Graph udg = graph::build_udg(points, 1.0);
    const graph::Graph mst = graph::euclidean_mst(udg, points);
    const std::uint32_t recv = core::graph_interference(mst, points);
    const std::uint32_t send = core::evaluate_sender_centric(mst, points).max;
    EXPECT_GT(recv, 0u);
    EXPECT_LT(recv, points.size());
    EXPECT_LT(send, points.size());
  }
}

TEST(CoveringSets, SizesMatchInterferenceVector) {
  const auto points = sim::uniform_square(100, 2.0, 8);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = graph::euclidean_mst(udg, points);
  const auto sets = core::covering_sets(mst, points);
  const core::InterferenceSummary s = core::Assessor{}.assess(mst, points);
  ASSERT_EQ(sets.size(), points.size());
  for (NodeId v = 0; v < points.size(); ++v) {
    EXPECT_EQ(sets[v].size(), s.per_node[v]) << v;
    EXPECT_TRUE(std::is_sorted(sets[v].begin(), sets[v].end()));
    // Each listed coverer really covers v, and v never lists itself.
    const auto radii2 = core::transmission_radii_squared(mst, points);
    for (NodeId u : sets[v]) {
      EXPECT_NE(u, v);
      EXPECT_LE(geom::dist2(points[u], points[v]), radii2[u]);
    }
  }
}

TEST(CoveringSets, TopologyNeighborsAlwaysListed) {
  const auto points = sim::uniform_square(60, 1.8, 9);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = graph::euclidean_mst(udg, points);
  const auto sets = core::covering_sets(mst, points);
  for (graph::Edge e : mst.edges()) {
    EXPECT_TRUE(std::binary_search(sets[e.v].begin(), sets[e.v].end(), e.u));
    EXPECT_TRUE(std::binary_search(sets[e.u].begin(), sets[e.u].end(), e.v));
  }
}

TEST(ScaleInvariance, InterferenceUnchangedUnderUniformScaling) {
  // Scaling positions and the UDG radius together leaves the combinatorics
  // untouched.
  const auto points = sim::uniform_square(70, 2.0, 10);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  geom::PointSet scaled = points;
  for (auto& p : scaled) p = p * 7.5;
  const graph::Graph udg_scaled = graph::build_udg(scaled, 7.5);
  ASSERT_EQ(udg.edge_count(), udg_scaled.edge_count());
  const graph::Graph mst = graph::euclidean_mst(udg, points);
  graph::Graph mst_scaled(scaled.size());
  for (graph::Edge e : mst.edges()) mst_scaled.add_edge(e.u, e.v);
  EXPECT_EQ(core::Assessor{}.assess(mst, points).per_node,
            core::Assessor{}.assess(mst_scaled, scaled).per_node);
}

TEST(MirrorSymmetry, HighwayReflectionPreservesInterference) {
  // Reflecting a 1-D instance (x -> -x) reverses node order but preserves
  // all interference values of the mirrored topology.
  const auto inst = sim::uniform_highway(90, 7.0, 11);
  const graph::Graph chain = highway::linear_chain(inst, 1.0);
  const std::uint32_t original = highway::graph_interference_1d(inst, chain);

  std::vector<double> mirrored;
  for (double x : inst.positions()) mirrored.push_back(-x);
  const auto inst_m = highway::HighwayInstance::from_positions(std::move(mirrored));
  const graph::Graph chain_m = highway::linear_chain(inst_m, 1.0);
  EXPECT_EQ(highway::graph_interference_1d(inst_m, chain_m), original);
}

TEST(RegistryInterferenceOrdering, NnfNeverAboveMst) {
  // NNF ⊆ MST edge-wise, and interference is edge-monotone, so I(NNF) <=
  // I(MST) on every instance.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto points = sim::uniform_square(90, 2.2, seed);
    const graph::Graph udg = graph::build_udg(points, 1.0);
    const auto* nnf = topology::find_algorithm("nnf");
    const auto* mst = topology::find_algorithm("mst");
    EXPECT_LE(core::graph_interference(nnf->build(points, udg), points),
              core::graph_interference(mst->build(points, udg), points))
        << seed;
  }
}

TEST(RegistryInterferenceOrdering, RngNeverAboveGabriel) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto points = sim::uniform_square(90, 2.2, seed + 50);
    const graph::Graph udg = graph::build_udg(points, 1.0);
    const auto* rng = topology::find_algorithm("rng");
    const auto* gabriel = topology::find_algorithm("gabriel");
    EXPECT_LE(core::graph_interference(rng->build(points, udg), points),
              core::graph_interference(gabriel->build(points, udg), points))
        << seed;
  }
}

TEST(GridIndexSquared, MatchesLinearRadiusQueries) {
  const auto points = sim::uniform_square(200, 3.0, 13);
  const geom::GridIndex index(points, 0.5);
  sim::Rng rng(14);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Vec2 c{rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)};
    const double r = rng.uniform(0.0, 1.5);
    std::vector<NodeId> linear;
    index.for_each_in_disk(c, r, [&](NodeId id) { linear.push_back(id); });
    std::vector<NodeId> squared;
    index.for_each_in_disk_squared(c, r * r,
                                   [&](NodeId id) { squared.push_back(id); });
    std::sort(linear.begin(), linear.end());
    std::sort(squared.begin(), squared.end());
    EXPECT_EQ(linear, squared);
  }
}

TEST(AExp, SpanSmallerThanRadiusStillWorks) {
  // A chain squeezed into a tenth of the radius: A_exp must behave the
  // same (interference is scale-free).
  const auto full = highway::exponential_chain(64, 1.0);
  const auto tiny = highway::exponential_chain(64, 0.1);
  EXPECT_EQ(highway::a_exp(full).interference, highway::a_exp(tiny).interference);
}

TEST(CriticalSets, RadiusLimitsCriticalReach) {
  // With a small radius, distant linear-chain transmitters have no edges,
  // so gamma collapses.
  const auto chain = highway::exponential_chain(32);
  const std::uint32_t full = highway::gamma(chain, 1.0);
  // Radius covering only the first few gaps: most nodes have no linear
  // edges at all.
  const std::uint32_t tiny = highway::gamma(chain, 1e-6);
  EXPECT_GT(full, tiny);
}

TEST(NodeAddition, CoincidentNewcomerCountsExistingDisks) {
  // A newcomer dropped exactly onto an existing transmitter is covered by
  // everything covering that spot.
  const geom::PointSet points{{0, 0}, {0.5, 0}, {1.0, 0}};
  graph::Graph topo(3);
  topo.add_edge(0, 1);
  topo.add_edge(1, 2);
  const auto impact = core::Assessor{}.assess_addition(points, topo, {0.5, 0.0},
                                                 core::AttachPolicy::kIsolated);
  // Node 1's position is covered by disks of 0, 1 (self excluded for node 1
  // but not for the newcomer) and 2.
  EXPECT_EQ(impact.newcomer_interference, 3u);
}

TEST(Determinism, FullPipelineReproducible) {
  // Same seeds => byte-identical pipeline outputs across repetitions.
  const auto run = [] {
    const auto points = sim::uniform_square(120, 2.5, 99);
    const graph::Graph udg = graph::build_udg(points, 1.0);
    std::vector<std::uint32_t> values;
    for (const auto& algorithm : topology::all_algorithms()) {
      values.push_back(core::graph_interference(algorithm.build(points, udg),
                                                points));
    }
    return values;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace rim
