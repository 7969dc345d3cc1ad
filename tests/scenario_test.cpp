#include <gtest/gtest.h>

#include <vector>

#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/scenario.hpp"
#include "rim/graph/udg.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/topology/mst_topology.hpp"

namespace rim::core {
namespace {

graph::Graph mst_of(const geom::PointSet& points) {
  return topology::mst_topology(points, graph::build_udg(points, 1.0));
}

/// Reference oracle: from-scratch kBrute evaluation of the scenario's
/// exported topology and points.
std::vector<std::uint32_t> brute_reference(Scenario& scenario) {
  const graph::Graph topo = scenario.topology();
  const geom::PointSet points = scenario.points();
  const std::vector<double> radii2 = transmission_radii_squared(topo, points);
  return interference_vector_squared(points, radii2, Strategy::kBrute);
}

void expect_matches_brute(Scenario& scenario, const char* context) {
  const std::vector<std::uint32_t> expected = brute_reference(scenario);
  const auto actual = scenario.interference();
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(actual[v], expected[v]) << context << ", node " << v;
  }
}

TEST(Scenario, ConstructionMatchesStatelessEvaluation) {
  const auto points = sim::uniform_square(120, 3.0, 9);
  const graph::Graph topo = mst_of(points);
  Scenario scenario(points, topo);
  const InterferenceSummary via_engine = scenario.summary();
  const InterferenceSummary via_free = Assessor{}.assess(topo, points);
  EXPECT_EQ(via_engine.per_node, via_free.per_node);
  EXPECT_EQ(via_engine.max, via_free.max);
  EXPECT_EQ(via_engine.total, via_free.total);
}

TEST(Scenario, AddEdgeGrowsDisksExactly) {
  // Chain 0-1, isolated 2: adding 1-2 enlarges r_1 and gives 2 a disk.
  const geom::PointSet points{{0, 0}, {1, 0}, {3, 0}};
  graph::Graph topo(3);
  topo.add_edge(0, 1);
  Scenario scenario(points, topo);
  (void)scenario.interference();  // prime the cache, then mutate
  scenario.add_edge(1, 2);
  expect_matches_brute(scenario, "after add_edge");
  EXPECT_EQ(scenario.radius_squared(1), 4.0);
  EXPECT_EQ(scenario.radius_squared(2), 4.0);
}

TEST(Scenario, RemoveNodeRenamesLastNode) {
  const auto points = sim::uniform_square(40, 1.5, 3);
  Scenario scenario(points, mst_of(points));
  (void)scenario.interference();
  const NodeId renamed = scenario.remove_node(5);
  EXPECT_EQ(renamed, static_cast<NodeId>(points.size() - 1));
  EXPECT_EQ(scenario.node_count(), points.size() - 1);
  EXPECT_EQ(scenario.position(5), points[points.size() - 1]);
  expect_matches_brute(scenario, "after remove_node");
  // Removing the (new) last node needs no rename.
  EXPECT_EQ(scenario.remove_node(
                static_cast<NodeId>(scenario.node_count() - 1)),
            kInvalidNode);
}

TEST(Scenario, IsolatedNewcomerDisturbsNothing) {
  const auto points = sim::uniform_square(60, 2.0, 11);
  Scenario scenario(points, mst_of(points));
  const InterferenceSummary before = scenario.summary();
  scenario.add_node({1.0, 1.0});
  const auto after = scenario.interference();
  for (NodeId v = 0; v < points.size(); ++v) {
    EXPECT_EQ(after[v], before.per_node[v]) << "node " << v;
  }
}

/// The headline property: after an arbitrary randomized mutation sequence,
/// the incrementally-maintained vector is bit-identical to the kBrute
/// oracle on the exported state.
class ScenarioProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioProperty, RandomizedMutationsMatchBrute) {
  sim::Rng rng(GetParam());
  const auto points = sim::uniform_square(80, 2.0, GetParam() ^ 0x5eedu);
  Scenario scenario(points, mst_of(points));
  (void)scenario.interference();  // start from a warm cache

  const double side = 2.0;
  for (int op = 0; op < 1000; ++op) {
    const double roll = rng.next_double();
    const auto n = scenario.node_count();
    if (roll < 0.25 || n < 4) {
      const geom::Vec2 p{rng.uniform(-0.2, side + 0.2),
                         rng.uniform(-0.2, side + 0.2)};
      const NodeId id = scenario.add_node(p);
      if (rng.next_double() < 0.8) {
        const NodeId partner = scenario.nearest_node(p, id);
        if (partner != kInvalidNode) scenario.add_edge(id, partner);
      }
    } else if (roll < 0.45) {
      scenario.remove_node(static_cast<NodeId>(rng.next_below(n)));
    } else if (roll < 0.70) {
      // Local jitter: the common churn case, served by the incremental path.
      const auto v = static_cast<NodeId>(rng.next_below(n));
      const geom::Vec2 q = scenario.position(v);
      scenario.move_node(v, {q.x + rng.uniform(-0.15, 0.15),
                             q.y + rng.uniform(-0.15, 0.15)});
    } else if (roll < 0.85) {
      // Arbitrary (possibly deployment-spanning) edges: adversarial cover
      // for the deferred/full-evaluation path.
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u != v) scenario.add_edge(u, v);
    } else {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto neighbors = scenario.neighbors(u);
      if (!neighbors.empty()) {
        scenario.remove_edge(
            u, neighbors[rng.next_below(neighbors.size())]);
      }
    }
    // Query after every op: keeps the cache warm (so the next delta takes
    // the incremental path) and checks bit-identity at every step.
    const std::vector<std::uint32_t> expected = brute_reference(scenario);
    const auto actual = scenario.interference();
    ASSERT_EQ(std::vector<std::uint32_t>(actual.begin(), actual.end()),
              expected)
        << "op " << op << " seed " << GetParam();
  }
  expect_matches_brute(scenario, "final state");
  // The engine must actually have exercised the incremental path.
  EXPECT_GT(scenario.stats().incremental_updates, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(Scenario, OversizedDeltaFallsBackToFullEvaluation) {
  // A hub wired to everyone has a disk spanning the deployment; touching it
  // must defer to a batched full recompute, and stay exact.
  const auto points = sim::uniform_square(400, 2.0, 17);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(0, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::uint64_t full_before = scenario.stats().full_evaluations;

  scenario.move_node(0, {1.1, 0.9});  // drags a deployment-wide disk along
  expect_matches_brute(scenario, "after oversized move");
  EXPECT_GT(scenario.stats().deferred_mutations, 0u);
  EXPECT_GT(scenario.stats().full_evaluations, full_before);
}

TEST(Scenario, ParallelDeferredDeltaFallsBackToExactFullEvaluation) {
  // The same fallback under kParallel with the persistent grid already
  // built: the deferred full evaluation must still match the oracle.
  const auto points = sim::uniform_square(3000, 6.0, 41);
  Scenario scenario(points, mst_of(points),
                    EvalOptions{}.with_strategy(Strategy::kParallel));
  (void)scenario.nearest_node({3.0, 3.0});  // builds the grid
  (void)scenario.interference();
  const std::uint64_t full_before = scenario.stats().full_evaluations;

  // An edge between two far-apart nodes gives both a deployment-wide disk.
  const NodeId a = scenario.nearest_node({0.0, 0.0});
  const NodeId b = scenario.nearest_node({6.0, 6.0});
  ASSERT_TRUE(scenario.add_edge(a, b));
  EXPECT_GT(scenario.stats().deferred_mutations, 0u);
  expect_matches_brute(scenario, "after oversized parallel edge");
  EXPECT_GT(scenario.stats().full_evaluations, full_before);
}

TEST(Scenario, MoveToCurrentPositionIsStrictNoOp) {
  // Moving a node onto its own position must not recount, defer, or
  // trigger a full evaluation — the engine treats it as a no-op.
  const auto points = sim::uniform_square(80, 1.5, 23);
  Scenario scenario(points, mst_of(points));
  const std::vector<std::uint32_t> before(scenario.interference().begin(),
                                          scenario.interference().end());
  const std::uint64_t inc_before = scenario.stats().incremental_updates;
  const std::uint64_t def_before = scenario.stats().deferred_mutations;
  const std::uint64_t full_before = scenario.stats().full_evaluations;

  for (NodeId v = 0; v < scenario.node_count(); v += 7) {
    scenario.move_node(v, scenario.position(v));
  }
  scenario.apply(Mutation::move_node(3, scenario.position(3)));

  EXPECT_EQ(std::vector<std::uint32_t>(scenario.interference().begin(),
                                       scenario.interference().end()),
            before);
  EXPECT_EQ(scenario.stats().incremental_updates.value(), inc_before);
  EXPECT_EQ(scenario.stats().deferred_mutations.value(), def_before);
  EXPECT_EQ(scenario.stats().full_evaluations.value(), full_before);
}

TEST(Scenario, StatsJsonExposesCounters) {
  const auto points = sim::uniform_square(50, 1.5, 29);
  Scenario scenario(points, mst_of(points));
  (void)scenario.interference();
  scenario.add_node({0.5, 0.5});
  (void)scenario.interference();
  const std::string json = scenario.stats_json().dump();
  EXPECT_NE(json.find("\"full_evaluations\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("incremental_updates"), std::string::npos);
  EXPECT_NE(json.find("cells_touched"), std::string::npos);
}

/// Regression for the paper's robustness bound through the redesigned
/// assessor: one arrival under nearest-neighbor attachment increases any
/// pre-existing node's interference by at most 2 (its own disk plus the
/// attachment partner's enlarged disk).
TEST(ScenarioRegression, NodeAdditionBoundedByTwoUnderNearestNeighbor) {
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const auto points = sim::uniform_square(60, 2.0, seed);
    const graph::Graph topo = mst_of(points);
    sim::Rng rng(seed ^ 0xfeedu);
    for (int trial = 0; trial < 8; ++trial) {
      const geom::Vec2 p{rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)};
      const auto impact = Assessor{}.assess_addition(points, topo, p,
                                               AttachPolicy::kNearestNeighbor);
      EXPECT_LE(impact.receiver_max_node_increase, 2u)
          << "seed " << seed << " newcomer (" << p.x << ", " << p.y << ")";
    }
  }
}

}  // namespace
}  // namespace rim::core
