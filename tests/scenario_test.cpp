#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/graph/udg.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/sim/workload.hpp"
#include "rim/topology/mst_topology.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"

namespace rim::core {
namespace {

graph::Graph mst_of(const geom::PointSet& points) {
  return topology::mst_topology(points, graph::build_udg(points, 1.0));
}

/// Reference oracle: from-scratch kBrute evaluation of the scenario's
/// exported topology and points.
std::vector<std::uint32_t> brute_reference(Scenario& scenario) {
  const graph::Graph topo = scenario.topology();
  const std::span<const geom::Vec2> points = scenario.points();
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
TEST(Scenario, PointOpsAreOneElementBatches) {
  // Every point op is one apply_batch call: it counts in the batch
  // counters, and apply() derives its return value from the batch result.
  const auto points = sim::uniform_square(300, 4.9, 37);
  Scenario scenario(points, topology::nearest_neighbor_forest(points));
  (void)scenario.interference();
  const auto n = static_cast<NodeId>(points.size());
  const NodeId id = scenario.add_node({2.0, 2.0});
  ASSERT_EQ(id, n);
  const NodeId partner = scenario.nearest_node({2.0, 2.0}, id);
  EXPECT_TRUE(scenario.add_edge(id, partner));
  EXPECT_FALSE(scenario.add_edge(id, partner));  // already present
  EXPECT_FALSE(scenario.add_edge(id, id));
  scenario.move_node(id, {2.1, 2.0});
  scenario.move_node(id, {2.1, 2.0});  // no-op
  EXPECT_TRUE(scenario.remove_edge(id, partner));
  EXPECT_FALSE(scenario.remove_edge(id, partner));
  EXPECT_TRUE(scenario.add_edge(id, partner));
  // Out-of-range ids are skipped.
  EXPECT_EQ(scenario.apply(Mutation::remove_node(n + 5)), kInvalidNode);
  EXPECT_EQ(scenario.apply(Mutation::move_node(n + 5, {0.0, 0.0})),
            kInvalidNode);
  EXPECT_EQ(scenario.node_count(), points.size() + 1);
  // Removing node 3 renames the newcomer (the last id) into slot 3.
  EXPECT_EQ(scenario.remove_node(3), id);
  EXPECT_EQ(scenario.position(3), (geom::Vec2{2.1, 2.0}));
  EXPECT_EQ(scenario.remove_node(static_cast<NodeId>(n - 1)), kInvalidNode);
  EXPECT_EQ(scenario.apply(Mutation::add_node({1.0, 1.0})), n - 1);
  expect_matches_brute(scenario, "after point ops");

  const ScenarioStats& stats = scenario.stats();
  EXPECT_EQ(stats.batches.value(), 14u);
  EXPECT_EQ(stats.batch_mutations.value(), 8u);
  EXPECT_EQ(stats.incremental_updates.value(), 8u);
  EXPECT_EQ(stats.full_evaluations.value(), 1u);
  EXPECT_EQ(scenario.stats_json().dump().find("incremental_ns"),
            std::string::npos);
}

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

/// Churn for the copy and restore tests on a points-only NNF deployment of
/// side \p side, batch \p index of a fixed schedule. Most batches are local:
/// nudges within a few cells and edges to each node's nearest neighbour.
/// Every fourth also has arrivals anywhere, wired to their nearest node,
/// and departures (swap-with-last renames). Batch 5 moves node 0 far out,
/// so its disk spans the deployment and the batch is deferred; batch 6
/// removes it again, so later batches run incrementally.
std::vector<Mutation> churn_batch(Scenario& s, sim::Rng& rng, int index,
                                  double side) {
  const std::size_t n = s.node_count();
  std::vector<Mutation> batch;
  if (index == 5) {
    batch.push_back(Mutation::move_node(0, {side * 3.0, side * 3.0}));
  }
  if (index == 6) batch.push_back(Mutation::remove_node(0));
  // Ids below n1 keep their node through the batch's removal of node 0.
  const std::size_t n1 = index == 6 ? n - 1 : n;
  for (int i = 0; i < 96; ++i) {
    const auto v = static_cast<NodeId>(1 + rng.next_below(n1 - 1));
    const geom::Vec2 p = s.position(v);
    if (i % 3 == 0) {
      const NodeId w = s.nearest_node(p, v);
      if (w != kInvalidNode && w < n1) batch.push_back(Mutation::add_edge(v, w));
    } else {
      batch.push_back(Mutation::move_node(
          v, {p.x + rng.uniform(-0.3, 0.3), p.y + rng.uniform(-0.3, 0.3)}));
    }
  }
  if (index % 4 == 3) {
    for (int i = 0; i < 8; ++i) {
      const geom::Vec2 p{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      const auto id = static_cast<NodeId>(n + static_cast<std::size_t>(i));
      batch.push_back(Mutation::add_node(p));
      batch.push_back(Mutation::add_edge(id, s.nearest_node(p)));
    }
    for (int i = 0; i < 6; ++i) {
      batch.push_back(Mutation::remove_node(
          static_cast<NodeId>(1 + rng.next_below(n - 1))));
    }
  }
  return batch;
}

void expect_same_result(const BatchResult& a, const BatchResult& b,
                        int batch) {
  EXPECT_EQ(a.applied, b.applied) << "batch " << batch;
  EXPECT_EQ(a.disk_tasks, b.disk_tasks) << "batch " << batch;
  EXPECT_EQ(a.recounts, b.recounts) << "batch " << batch;
  EXPECT_EQ(a.waves, b.waves) << "batch " << batch;
  EXPECT_EQ(a.deferred, b.deferred) << "batch " << batch;
  EXPECT_EQ(a.aborted, b.aborted) << "batch " << batch;
  EXPECT_EQ(a.abort_index, b.abort_index) << "batch " << batch;
}

std::vector<std::uint32_t> interference_of(Scenario& s) {
  const auto values = s.interference();
  return {values.begin(), values.end()};
}

struct Deployment {
  geom::PointSet points;
  graph::Graph nnf;
  double side = 0.0;
};

Deployment nnf_deployment(std::size_t n, std::uint64_t seed) {
  Deployment d;
  d.side = std::sqrt(static_cast<double>(n) / 12.5);
  d.points = sim::uniform_square(n, d.side, seed);
  d.nnf = topology::nearest_neighbor_forest(d.points);
  return d;
}

TEST(ScenarioCopy, MutatingACopyLeavesTheSourceUntouched) {
  const Deployment d = nnf_deployment(2000, 31);
  Scenario source(d.points, d.nnf);
  (void)source.nearest_node({0.0, 0.0});  // build the grid
  const std::vector<std::uint32_t> interference = interference_of(source);
  const std::uint64_t checksum = source.snapshot().payload_checksum();

  Scenario copy(source);
  sim::Rng rng(5);
  for (int b = 0; b < 6; ++b) {
    (void)copy.apply_batch(churn_batch(copy, rng, b, d.side));
  }
  copy.move_node(0, {d.side * 2.0, d.side * 2.0});
  copy.remove_node(1);
  (void)copy.add_node({-1.0, -1.0});
  ASSERT_NE(copy.snapshot().payload_checksum(), checksum);

  EXPECT_EQ(source.snapshot().payload_checksum(), checksum);
  EXPECT_EQ(interference_of(source), interference);
  // The source's own grid still answers: churn it like a fresh twin.
  Scenario twin(d.points, d.nnf);
  (void)twin.nearest_node({0.0, 0.0});
  (void)twin.interference();
  sim::Rng rs(6);
  sim::Rng rt(6);
  for (int b = 0; b < 4; ++b) {
    const BatchResult a = source.apply_batch(churn_batch(source, rs, b, d.side));
    const BatchResult t = twin.apply_batch(churn_batch(twin, rt, b, d.side));
    expect_same_result(a, t, b);
  }
  EXPECT_EQ(source.snapshot().payload_checksum(),
            twin.snapshot().payload_checksum());
  EXPECT_EQ(interference_of(source), interference_of(twin));
  expect_matches_brute(source, "source after churn");
}

TEST(ScenarioCopy, CopyAssignedScenarioChurnsLikeAFreshOne) {
  const Deployment d = nnf_deployment(2000, 32);
  const Deployment other = nnf_deployment(500, 33);
  Scenario fresh(d.points, d.nnf);
  Scenario assigned(other.points, other.nnf);
  sim::Rng warm(7);
  for (int b = 0; b < 3; ++b) {  // give the target a grid and history
    (void)assigned.apply_batch(churn_batch(assigned, warm, b, other.side));
  }
  {
    const Scenario source(d.points, d.nnf);
    assigned = source;
  }
  sim::Rng rf(8);
  sim::Rng ra(8);
  for (int b = 0; b < 8; ++b) {
    const BatchResult f = fresh.apply_batch(churn_batch(fresh, rf, b, d.side));
    const BatchResult a =
        assigned.apply_batch(churn_batch(assigned, ra, b, d.side));
    expect_same_result(f, a, b);
    ASSERT_EQ(interference_of(fresh), interference_of(assigned)) << "batch " << b;
  }
  EXPECT_EQ(fresh.snapshot().to_bytes(), assigned.snapshot().to_bytes());
  expect_matches_brute(assigned, "assigned after churn");
}

/// restore(snapshot(s)) must continue exactly like s: same BatchResult
/// (deferral decisions included, which read the grid's occupancy) and the
/// same interference, batch by batch, and it re-snapshots byte-identically.
TEST(ScenarioRestore, RestoredScenarioTracksTheOriginalBatchByBatch) {
  const Deployment d = nnf_deployment(20000, 34);
  Scenario s(d.points, d.nnf);
  Scenario restored(nnf_deployment(300, 35).points,
                    nnf_deployment(300, 35).nnf);
  sim::Rng rs(9);
  sim::Rng rr(9);
  std::size_t deferred = 0;
  for (int b = 0; b < 12; ++b) {
    const Snapshot snap = s.snapshot();
    std::string error;
    ASSERT_TRUE(restored.restore(snap, &error)) << error;
    ASSERT_EQ(restored.snapshot().to_bytes(), snap.to_bytes())
        << "batch " << b;
    const BatchResult a = s.apply_batch(churn_batch(s, rs, b, d.side));
    const BatchResult r =
        restored.apply_batch(churn_batch(restored, rr, b, d.side));
    expect_same_result(a, r, b);
    deferred += a.deferred ? 1 : 0;
    ASSERT_EQ(interference_of(s), interference_of(restored)) << "batch " << b;
  }
  EXPECT_GT(deferred, 0u);
  EXPECT_LT(deferred, 12u);
}

}  // namespace
}  // namespace rim::core
