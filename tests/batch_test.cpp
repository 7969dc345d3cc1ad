#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rim/core/assessor.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/graph/udg.hpp"
#include "rim/parallel/thread_pool.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/sim/workload.hpp"
#include "rim/topology/mst_topology.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"

/// Tests for the parallel batch pipeline (Scenario::apply_batch) and the
/// unified impact assessor (core::Assessor). The contract under test is
/// bit-identity: a batch must leave the scenario in exactly the state that
/// applying its mutations one at a time would, which in turn must match the
/// kBrute from-scratch oracle.

namespace rim::core {
namespace {

std::vector<std::uint32_t> brute_reference(Scenario& scenario) {
  const graph::Graph topo = scenario.topology();
  const std::span<const geom::Vec2> points = scenario.points();
  const std::vector<double> radii2 = transmission_radii_squared(topo, points);
  return interference_vector_squared(points, radii2, Strategy::kBrute);
}

void expect_scenarios_identical(Scenario& a, Scenario& b, const char* context) {
  ASSERT_EQ(a.node_count(), b.node_count()) << context;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << context;
  const auto ia = a.interference();
  const auto ib = b.interference();
  ASSERT_EQ(ia.size(), ib.size()) << context;
  for (std::size_t v = 0; v < ia.size(); ++v) {
    ASSERT_EQ(ia[v], ib[v]) << context << ", node " << v;
    ASSERT_EQ(a.position(v), b.position(v)) << context << ", node " << v;
    ASSERT_EQ(a.radius_squared(v), b.radius_squared(v))
        << context << ", node " << v;
  }
}

void expect_matches_brute(Scenario& scenario, const char* context) {
  const std::vector<std::uint32_t> expected = brute_reference(scenario);
  const auto actual = scenario.interference();
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(actual[v], expected[v]) << context << ", node " << v;
  }
}

sim::WorkloadConfig small_config(std::uint64_t seed) {
  sim::WorkloadConfig config;
  config.initial_nodes = 70;
  config.batch_size = 48;
  config.side = 2.0;
  config.seed = seed;
  return config;
}

/// The headline property: randomized batches, applied through the pipeline
/// (both inline and on the shared pool), stay bit-identical to serial
/// application and to the kBrute oracle after every batch.
class BatchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchProperty, RandomizedBatchesMatchSerialAndBrute) {
  const sim::WorkloadConfig config = small_config(GetParam());
  Scenario serial = sim::make_tenant_scenario(config, 0);
  Scenario inline_batch = serial;
  Scenario pooled_batch = serial;
  (void)serial.interference();
  (void)inline_batch.interference();
  (void)pooled_batch.interference();

  sim::Rng rng(GetParam() ^ 0xbadc0deu);
  for (int round = 0; round < 12; ++round) {
    const std::vector<Mutation> batch =
        sim::make_churn_batch(rng, serial.node_count(), config);
    for (const Mutation& m : batch) serial.apply(m);
    inline_batch.apply_batch(batch, nullptr);
    pooled_batch.apply_batch(batch, &parallel::ThreadPool::shared());

    expect_scenarios_identical(serial, inline_batch, "inline vs serial");
    expect_scenarios_identical(serial, pooled_batch, "pooled vs serial");
    expect_matches_brute(inline_batch, "inline vs brute");
  }
  EXPECT_GT(inline_batch.stats().batches, 0u);
  EXPECT_GT(inline_batch.stats().batch_mutations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(ApplyBatch, EmptyBatchIsNoOp) {
  const auto points = sim::uniform_square(30, 1.5, 5);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<std::uint32_t> before(scenario.interference().begin(),
                                          scenario.interference().end());
  const BatchResult result = scenario.apply_batch({});
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.waves, 0u);
  EXPECT_FALSE(result.deferred);
  const auto after = scenario.interference();
  EXPECT_EQ(before, std::vector<std::uint32_t>(after.begin(), after.end()));
}

TEST(ApplyBatch, SingleMutationBatchMatchesApply) {
  const auto points = sim::uniform_square(40, 1.5, 7);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario serial(points, topo);
  Scenario batched = serial;
  (void)serial.interference();
  (void)batched.interference();
  const Mutation m = Mutation::move_node(7, {0.33, 0.77});
  serial.apply(m);
  batched.apply_batch(std::span<const Mutation>(&m, 1), nullptr);
  expect_scenarios_identical(serial, batched, "single-mutation batch");
}

/// Hooks that abort the structural pass before mutation \p index.
class AbortBefore final : public BatchHooks {
 public:
  explicit AbortBefore(std::size_t index) : index_(index) {}
  bool before_mutation(std::size_t index) override { return index != index_; }

 private:
  std::size_t index_;
};

/// A batch seeding an empty scenario bulk-builds the grid from its leading
/// arrivals instead of inserting them one at a time. The state must equal
/// applying the same mutations one by one: the same snapshot bytes (cell
/// size included), the same nearest answers, and the same batch results
/// under further churn. An abort among the arrivals keeps its prefix.
TEST(ApplyBatch, SeedBatchOnEmptyScenarioMatchesSerial) {
  sim::Rng rng(77);
  std::vector<Mutation> seed;
  for (int i = 0; i < 300; ++i) {
    seed.push_back(
        Mutation::add_node({rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)}));
  }
  for (NodeId v = 1; v < 300; v += 2) {
    seed.push_back(Mutation::add_edge(v, v - 1));
  }
  seed.push_back(Mutation::move_node(3, {2.5, 2.5}));
  for (int i = 0; i < 20; ++i) {  // arrivals after the grid exists
    seed.push_back(
        Mutation::add_node({rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)}));
  }

  const auto expect_same = [&](Scenario& a, Scenario& b, const char* what) {
    EXPECT_EQ(a.snapshot().to_bytes(), b.snapshot().to_bytes()) << what;
    for (int i = 0; i < 20; ++i) {
      const geom::Vec2 p{rng.uniform(-1.0, 6.0), rng.uniform(-1.0, 6.0)};
      EXPECT_EQ(a.nearest_node(p), b.nearest_node(p)) << what;
    }
    expect_scenarios_identical(a, b, what);
  };

  Scenario batched;
  (void)batched.apply_batch(seed, nullptr);
  Scenario serial;
  for (const Mutation& m : seed) serial.apply(m);
  expect_same(batched, serial, "seed batch");
  const std::vector<Mutation> churn =
      sim::make_churn_batch(rng, batched.node_count(), small_config(5));
  const BatchResult a = batched.apply_batch(churn, nullptr);
  const BatchResult b = serial.apply_batch(churn, nullptr);
  EXPECT_EQ(a.disk_tasks, b.disk_tasks);
  EXPECT_EQ(a.recounts, b.recounts);
  EXPECT_EQ(a.deferred, b.deferred);
  expect_same(batched, serial, "churn after the seed");
  expect_matches_brute(batched, "churn after the seed");

  AbortBefore abort(120);
  Scenario aborted;
  const BatchResult r = aborted.apply_batch(seed, nullptr, &abort);
  ASSERT_TRUE(r.aborted);
  Scenario prefix;
  for (std::size_t i = 0; i < 120; ++i) prefix.apply(seed[i]);
  expect_same(aborted, prefix, "aborted seed batch");
}

TEST(ApplyBatch, InvalidIdsAreSkipped) {
  const auto points = sim::uniform_square(25, 1.5, 9);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<std::uint32_t> before(scenario.interference().begin(),
                                          scenario.interference().end());
  const std::vector<Mutation> batch{
      Mutation::remove_node(999),
      Mutation::add_edge(0, 999),
      Mutation::remove_edge(999, 1),
      Mutation::move_node(999, {0.0, 0.0}),
      Mutation::add_edge(3, 3),  // self-loop: also a no-op
  };
  const BatchResult result = scenario.apply_batch(batch, nullptr);
  EXPECT_EQ(result.applied, 0u);
  const auto after = scenario.interference();
  EXPECT_EQ(before, std::vector<std::uint32_t>(after.begin(), after.end()));
  expect_matches_brute(scenario, "after invalid batch");
}

TEST(ApplyBatch, MoveToCurrentPositionInBatchIsNoOp) {
  const auto points = sim::uniform_square(25, 1.5, 13);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<Mutation> batch{
      Mutation::move_node(4, scenario.position(4))};
  const BatchResult result = scenario.apply_batch(batch, nullptr);
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.disk_tasks, 0u);
  EXPECT_EQ(result.recounts, 0u);
  expect_matches_brute(scenario, "after same-position move batch");
}

TEST(ApplyBatch, AddThenRemoveSameNodeWithinBatch) {
  const auto points = sim::uniform_square(30, 1.5, 21);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario serial(points, topo);
  Scenario batched = serial;
  (void)serial.interference();
  (void)batched.interference();
  const auto newcomer = static_cast<NodeId>(points.size());
  const std::vector<Mutation> batch{
      Mutation::add_node({0.7, 0.7}),
      Mutation::add_edge(newcomer, 0),
      Mutation::remove_node(newcomer),
  };
  for (const Mutation& m : batch) serial.apply(m);
  batched.apply_batch(batch, nullptr);
  EXPECT_EQ(batched.node_count(), points.size());
  expect_scenarios_identical(serial, batched, "add+remove same batch");
  expect_matches_brute(batched, "add+remove same batch vs brute");
}

TEST(ApplyBatch, RemovalChurnWithRenamesMatchesSerial) {
  // Heavy removal mix: every removal triggers a swap-with-last rename, so
  // later mutations in the same batch target renamed ids.
  const auto points = sim::uniform_square(60, 2.0, 31);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario serial(points, topo);
  Scenario batched = serial;
  (void)serial.interference();
  (void)batched.interference();
  sim::Rng rng(31);
  std::vector<Mutation> batch;
  std::size_t n = points.size();
  for (int i = 0; i < 20; ++i) {
    batch.push_back(Mutation::remove_node(
        static_cast<NodeId>(rng.next_below(n--))));
  }
  for (int i = 0; i < 10; ++i) {
    batch.push_back(Mutation::move_node(
        static_cast<NodeId>(rng.next_below(n)),
        {rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)}));
  }
  for (const Mutation& m : batch) serial.apply(m);
  batched.apply_batch(batch, nullptr);
  expect_scenarios_identical(serial, batched, "removal churn");
  expect_matches_brute(batched, "removal churn vs brute");
}

TEST(ApplyBatch, GiantDiskBatchDefersAndStaysExact) {
  // A hub wired to everyone: moving it drags a deployment-spanning disk, so
  // the pipeline must fall back to a deferred full evaluation — and still
  // agree with the oracle.
  const auto points = sim::uniform_square(400, 2.0, 37);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(0, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<Mutation> batch{Mutation::move_node(0, {1.1, 0.9})};
  const BatchResult result = scenario.apply_batch(batch, nullptr);
  EXPECT_TRUE(result.deferred);
  EXPECT_GT(scenario.stats().batch_deferred, 0u);
  expect_matches_brute(scenario, "after deferred batch");
}

TEST(ApplyBatch, StatsJsonExposesBatchCounters) {
  const auto points = sim::uniform_square(40, 1.5, 41);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<Mutation> batch{Mutation::move_node(3, {0.5, 0.5}),
                                    Mutation::add_node({1.0, 1.0})};
  scenario.apply_batch(batch, nullptr);
  const std::string json = scenario.stats_json().dump();
  EXPECT_NE(json.find("\"batches\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("batch_disk_tasks"), std::string::npos);
  EXPECT_NE(json.find("batch_wave_tasks"), std::string::npos);
  EXPECT_NE(json.find("\"grid\""), std::string::npos);
}

// --- one executor, any pool ------------------------------------------------
// apply_batch always builds the same AABB-disjoint wave schedule and runs it
// on the pool when the pool has more than one worker, inline otherwise. The
// cases below run every fixture both ways and pin that the BatchResult does
// not depend on the pool — the byte-parity svc::Service relies on when it
// applies batches inline.

void expect_results_equal(const BatchResult& a, const BatchResult& b,
                          const char* context) {
  EXPECT_EQ(a.applied, b.applied) << context;
  EXPECT_EQ(a.disk_tasks, b.disk_tasks) << context;
  EXPECT_EQ(a.recounts, b.recounts) << context;
  EXPECT_EQ(a.waves, b.waves) << context;
  EXPECT_EQ(a.deferred, b.deferred) << context;
  EXPECT_EQ(a.aborted, b.aborted) << context;
  EXPECT_EQ(a.abort_index, b.abort_index) << context;
}

/// A "triple field": `active` triples A—B (distance 1) and A—C (distance
/// 1/2) spaced `active_spacing` apart, plus far-away ballast triples that
/// only keep the batch's touched-region estimate well below the deferral
/// threshold. Removing each active A—C edge shrinks exactly one disk (C's)
/// per triple: with spacing 100 the disk tasks are pairwise AABB-disjoint
/// (one wave); with spacing 0.05 every pair conflicts (one wave per task).
struct TripleField {
  geom::PointSet points;
  std::vector<Mutation> batch;
};

TripleField make_triple_field(std::size_t active, double active_spacing,
                              std::size_t ballast) {
  TripleField field;
  field.points.reserve((active + ballast) * 3);
  for (std::size_t i = 0; i < active + ballast; ++i) {
    const double x =
        i < active ? active_spacing * static_cast<double>(i)
                   : 100000.0 + 100.0 * static_cast<double>(i - active);
    field.points.push_back({x, 0.0});        // A
    field.points.push_back({x + 1.0, 0.0});  // B
    field.points.push_back({x + 0.5, 0.0});  // C
  }
  for (std::size_t i = 0; i < active; ++i) {
    field.batch.push_back(Mutation::remove_edge(static_cast<NodeId>(3 * i),
                                                static_cast<NodeId>(3 * i + 2)));
  }
  return field;
}

Scenario make_triple_scenario(const TripleField& field) {
  graph::Graph topo(field.points.size());
  for (NodeId a = 0; a + 2 < field.points.size(); a += 3) {
    topo.add_edge(a, a + 1);
    topo.add_edge(a, a + 2);
  }
  Scenario scenario(field.points, topo);
  (void)scenario.interference();
  return scenario;
}

/// Applies \p field's batch one mutation at a time, inline, and on a
/// 4-worker pool; all three must agree with each other and with kBrute.
/// Returns the pooled BatchResult for fixture-specific checks.
BatchResult run_triple_field(const TripleField& field) {
  Scenario serial = make_triple_scenario(field);
  Scenario inline_batch = serial;
  Scenario pooled_batch = serial;
  parallel::ThreadPool pool(4);
  for (const Mutation& m : field.batch) serial.apply(m);
  const BatchResult inline_result =
      inline_batch.apply_batch(field.batch, nullptr);
  const BatchResult pooled_result =
      pooled_batch.apply_batch(field.batch, &pool);
  expect_results_equal(inline_result, pooled_result, "inline vs pooled");
  expect_scenarios_identical(serial, inline_batch, "inline vs serial");
  expect_scenarios_identical(serial, pooled_batch, "pooled vs serial");
  expect_matches_brute(pooled_batch, "pooled vs brute");
  return pooled_result;
}

TEST(ApplyBatch, NoConflictBatchRunsAsOneWave) {
  const BatchResult result = run_triple_field(make_triple_field(8, 100.0, 56));
  // One disk task per active triple (C's shrink; A's farthest neighbor
  // stays B), pairwise disjoint: a single wave.
  ASSERT_FALSE(result.deferred);
  EXPECT_EQ(result.disk_tasks, 8u);
  EXPECT_EQ(result.waves, 1u);
}

TEST(ApplyBatch, AllConflictBatchSerializesIntoOneWavePerTask) {
  // Spacing 0.05 stacks all eight active disks inside ~1.4 units: every
  // pair of tasks conflicts, so each lands in its own wave, in task order.
  const BatchResult result = run_triple_field(make_triple_field(8, 0.05, 248));
  ASSERT_FALSE(result.deferred);
  EXPECT_EQ(result.disk_tasks, 8u);
  EXPECT_EQ(result.waves, result.disk_tasks);
}

TEST(ApplyBatch, AllConflictBatchWithoutPoolRunsInlineOneWavePerTask) {
  // Same contended field, no pool at all: the schedule is unchanged (one
  // wave per task) and the inline run stays exact against apply() and kBrute.
  const TripleField field = make_triple_field(8, 0.05, 248);
  Scenario serial = make_triple_scenario(field);
  Scenario inline_batch = serial;
  for (const Mutation& m : field.batch) serial.apply(m);
  const BatchResult result = inline_batch.apply_batch(field.batch, nullptr);
  ASSERT_FALSE(result.deferred);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.applied, field.batch.size());
  EXPECT_EQ(result.disk_tasks, 8u);
  EXPECT_EQ(result.waves, result.disk_tasks);
  expect_scenarios_identical(serial, inline_batch, "inline vs serial");
  expect_matches_brute(inline_batch, "inline vs brute");
}

/// Constant-density MST scenario (the E19 network family): disks stay
/// local, so batches run through the incremental pipeline instead of the
/// deferred full-evaluation fallback.
Scenario make_mst_scenario(std::size_t n, double side, std::uint64_t seed) {
  const geom::PointSet points = sim::uniform_square(n, side, seed);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  Scenario scenario(points, mst);
  (void)scenario.interference();
  return scenario;
}

/// Spatially local churn (moves jitter by <= 0.3, edge flips go to the
/// nearest neighbor, adds attach locally): keeps every disk task small.
/// Generated against \p reference *before* the batch is applied anywhere,
/// so all replicas see the same mutations.
std::vector<Mutation> make_local_batch(Scenario& reference, sim::Rng& rng,
                                       std::size_t size, double side) {
  std::vector<Mutation> batch;
  batch.reserve(size);
  std::size_t n = reference.node_count();
  const auto clamp = [side](double x) {
    return x < 0.0 ? 0.0 : (x > side ? side : x);
  };
  const std::size_t moves = size / 2;
  for (std::size_t i = 0; i < moves; ++i) {
    const auto v = static_cast<NodeId>(rng.next_below(n));
    const geom::Vec2 old = reference.position(v);
    batch.push_back(Mutation::move_node(
        v, {clamp(old.x + rng.uniform(-0.3, 0.3)),
            clamp(old.y + rng.uniform(-0.3, 0.3))}));
  }
  const std::size_t adds = size / 10;
  for (std::size_t i = 0; i < adds; ++i) {
    const auto anchor = static_cast<NodeId>(rng.next_below(n));
    const geom::Vec2 p = reference.position(anchor);
    batch.push_back(Mutation::add_node(
        {clamp(p.x + rng.uniform(-0.3, 0.3)),
         clamp(p.y + rng.uniform(-0.3, 0.3))}));
    batch.push_back(Mutation::add_edge(static_cast<NodeId>(n), anchor));
    ++n;
  }
  for (std::size_t i = moves + adds; i < size; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const NodeId v = reference.nearest_node(reference.position(u), u);
    if (v == kInvalidNode) continue;
    batch.push_back(rng.next_double() < 0.5 ? Mutation::add_edge(u, v)
                                            : Mutation::remove_edge(u, v));
  }
  return batch;
}

/// Randomized local-churn batches on a 3,000-node MST, applied inline and
/// on a real 4-worker pool, stay bit-identical to one-at-a-time apply() and
/// to the kBrute oracle, with the same BatchResult either way.
class LocalChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalChurnProperty, InlineAndPooledMatchApplyAndBrute) {
  const std::size_t n = 3000;
  const double side = 15.5;  // ~12.5 nodes per unit square
  Scenario serial = make_mst_scenario(n, side, GetParam());
  Scenario inline_batch = make_mst_scenario(n, side, GetParam());
  Scenario pooled_batch = make_mst_scenario(n, side, GetParam());

  parallel::ThreadPool pool(4);
  sim::Rng rng(GetParam() ^ 0x5bec0de5u);
  std::size_t parallel_waves = 0;
  for (int round = 0; round < 6; ++round) {
    const std::vector<Mutation> batch =
        make_local_batch(serial, rng, 20, side);
    for (const Mutation& m : batch) serial.apply(m);
    const BatchResult inline_result = inline_batch.apply_batch(batch, nullptr);
    const BatchResult pooled_result = pooled_batch.apply_batch(batch, &pool);
    expect_results_equal(inline_result, pooled_result, "inline vs pooled");
    if (!pooled_result.deferred) parallel_waves += pooled_result.waves;
    expect_scenarios_identical(serial, inline_batch, "inline vs serial");
    expect_scenarios_identical(serial, pooled_batch, "pooled vs serial");
  }
  EXPECT_GT(parallel_waves, 0u);
  expect_matches_brute(inline_batch, "inline vs brute");
  expect_matches_brute(pooled_batch, "pooled vs brute");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalChurnProperty,
                         ::testing::Values(17u, 29u, 41u));

TEST(ApplyBatch, ResultIsIdenticalForEveryPoolSize) {
  const std::size_t n = 3000;
  const double side = 15.5;
  Scenario reference = make_mst_scenario(n, side, 7);
  Scenario no_pool = reference;
  Scenario one_worker = reference;
  Scenario four_workers = reference;
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool4(4);

  sim::Rng rng(0xacedu);
  for (int round = 0; round < 6; ++round) {
    const std::vector<Mutation> batch =
        make_local_batch(reference, rng, 32, side);
    for (const Mutation& m : batch) reference.apply(m);
    const BatchResult r0 = no_pool.apply_batch(batch, nullptr);
    const BatchResult r1 = one_worker.apply_batch(batch, &pool1);
    const BatchResult r4 = four_workers.apply_batch(batch, &pool4);
    expect_results_equal(r0, r1, "nullptr vs 1 worker");
    expect_results_equal(r0, r4, "nullptr vs 4 workers");
    expect_scenarios_identical(no_pool, one_worker, "nullptr vs 1 worker");
    expect_scenarios_identical(no_pool, four_workers, "nullptr vs 4 workers");
  }
  expect_scenarios_identical(reference, four_workers, "4 workers vs apply");
  // The wave counters are schedule facts, not timing: identical too.
  EXPECT_EQ(no_pool.stats().batch_waves, four_workers.stats().batch_waves);
  EXPECT_EQ(no_pool.stats().batch_disk_tasks,
            four_workers.stats().batch_disk_tasks);
}

// --- golden schedule -------------------------------------------------------
// The BatchResult of a fixed, seeded stream is pinned: applied, disk_tasks,
// recounts, waves and deferred depend on the structural pass's task order
// (removed disks first, then ascending final id), which the wave schedule,
// the service's batch replies and their wire bytes all inherit. The stream
// exercises the renaming paths: removals that rename nodes already touched
// in the same batch (moved ones and ones added in the batch), add-then-
// remove of one arrival, and one long edge that forces a deferral.

/// One golden batch against \p reference's current state. Removals come
/// last, so every id the batch names before them is a pre-batch id or an
/// arrival of this batch.
std::vector<Mutation> make_golden_batch(Scenario& reference, sim::Rng& rng,
                                        double side, bool long_edge) {
  std::vector<Mutation> batch;
  const auto n = static_cast<NodeId>(reference.node_count());
  const auto clamp = [side](double x) {
    return x < 0.0 ? 0.0 : (x > side ? side : x);
  };
  const auto jitter = [&](geom::Vec2 p) {
    return geom::Vec2{clamp(p.x + rng.uniform(-0.3, 0.3)),
                      clamp(p.y + rng.uniform(-0.3, 0.3))};
  };
  const auto random_id = [&] { return static_cast<NodeId>(rng.next_below(n)); };
  // Moves: random nodes plus the two highest ids, which the removals below
  // rename.
  std::vector<NodeId> moved;
  for (int i = 0; i < 10; ++i) moved.push_back(random_id());
  moved.push_back(n - 1);
  moved.push_back(n - 2);
  for (const NodeId v : moved) {
    batch.push_back(Mutation::move_node(v, jitter(reference.position(v))));
  }
  // Edge flips toward the nearest neighbor.
  for (int i = 0; i < 8; ++i) {
    const NodeId u = random_id();
    const NodeId w = reference.nearest_node(reference.position(u), u);
    batch.push_back(rng.next_double() < 0.5 ? Mutation::add_edge(u, w)
                                            : Mutation::remove_edge(u, w));
  }
  if (long_edge) {
    batch.push_back(Mutation::add_edge(reference.nearest_node({0.0, 0.0}),
                                       reference.nearest_node({side, side})));
  }
  // Arrival A (id n) stays; arrival B (id n + 1) is added and removed.
  const NodeId anchor_a = random_id();
  batch.push_back(Mutation::add_node(jitter(reference.position(anchor_a))));
  batch.push_back(Mutation::add_edge(n, anchor_a));
  const NodeId anchor_b = random_id();
  batch.push_back(Mutation::add_node(jitter(reference.position(anchor_b))));
  batch.push_back(Mutation::add_edge(n + 1, anchor_b));
  batch.push_back(Mutation::remove_node(n + 1));
  // Arrival C (id n + 1) is renamed into moved[0]'s slot, A into
  // moved[1]'s, and the moved node n - 1 into moved[2]'s; the renamed A is
  // moved again afterwards.
  const NodeId anchor_c = random_id();
  batch.push_back(Mutation::add_node(jitter(reference.position(anchor_c))));
  batch.push_back(Mutation::add_edge(n + 1, anchor_c));
  batch.push_back(Mutation::remove_node(moved[0]));
  batch.push_back(Mutation::remove_node(moved[1]));
  batch.push_back(Mutation::move_node(moved[1], jitter(reference.position(
                                                    anchor_a))));
  batch.push_back(Mutation::remove_node(moved[2]));
  return batch;
}

struct GoldenRow {
  std::size_t applied;
  std::size_t disk_tasks;
  std::size_t recounts;
  std::size_t waves;
  bool deferred;
};

TEST(ApplyBatch, GoldenScheduleOnNnf4096) {
  const std::size_t n = 4096;
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  const geom::PointSet points = sim::uniform_square(n, side, 4096);
  const graph::Graph nnf = topology::nearest_neighbor_forest(points);
  Scenario inline_batch(points, nnf);
  (void)inline_batch.interference();
  Scenario pooled_batch = inline_batch;
  parallel::ThreadPool pool(4);
  sim::Rng rng(0x601de2u);
  std::vector<GoldenRow> rows;
  for (int round = 0; round < 8; ++round) {
    const std::vector<Mutation> batch =
        make_golden_batch(inline_batch, rng, side, round == 6);
    const BatchResult r = inline_batch.apply_batch(batch, nullptr);
    const BatchResult pooled = pooled_batch.apply_batch(batch, &pool);
    expect_results_equal(r, pooled, "inline vs pooled");
    rows.push_back({r.applied, r.disk_tasks, r.recounts, r.waves, r.deferred});
    // Round 6 defers; round 7 then starts on a dirty cache.
    if (round != 6) {
      (void)inline_batch.interference();
      (void)pooled_batch.interference();
    }
  }
  // Recorded with the dense id-indexed pending table that the sparse
  // touched list replaced, so equal rows pin the task order.
  const std::vector<GoldenRow> golden = {
      {24, 37, 11, 4, false}, {28, 46, 11, 5, false}, {28, 41, 11, 4, false},
      {29, 43, 11, 3, false}, {28, 39, 11, 6, false}, {28, 47, 11, 4, false},
      {31, 51, 11, 0, true},  {28, 0, 0, 0, true},
  };
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(rows[i].applied, golden[i].applied) << "round " << i;
    EXPECT_EQ(rows[i].disk_tasks, golden[i].disk_tasks) << "round " << i;
    EXPECT_EQ(rows[i].recounts, golden[i].recounts) << "round " << i;
    EXPECT_EQ(rows[i].waves, golden[i].waves) << "round " << i;
    EXPECT_EQ(rows[i].deferred, golden[i].deferred) << "round " << i;
  }
  expect_scenarios_identical(inline_batch, pooled_batch, "inline vs pooled");
  expect_matches_brute(inline_batch, "inline vs brute");
}

// --- Assessor::assess ----------------------------------------------------

TEST(Assess, DoesNotMutateTheScenario) {
  const auto points = sim::uniform_square(50, 2.0, 51);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  const std::vector<std::uint32_t> before(scenario.interference().begin(),
                                          scenario.interference().end());
  const std::size_t edges_before = scenario.edge_count();

  (void)Assessor{}.assess(scenario, Mutation::remove_node(7));
  (void)Assessor{}.assess(scenario, Mutation::add_node({0.4, 0.6}));

  EXPECT_EQ(scenario.node_count(), points.size());
  EXPECT_EQ(scenario.edge_count(), edges_before);
  const auto after = scenario.interference();
  EXPECT_EQ(before, std::vector<std::uint32_t>(after.begin(), after.end()));
}

TEST(Assess, AdditionSequenceMatchesApplication) {
  const auto points = sim::uniform_square(50, 2.0, 61);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  const geom::Vec2 p{0.8, 1.2};
  const auto newcomer = static_cast<NodeId>(points.size());
  const NodeId partner = scenario.nearest_node(p);
  const std::vector<Mutation> sequence{Mutation::add_node(p),
                                       Mutation::add_edge(newcomer, partner)};
  const Assessment assessment = Assessor{}.assess(scenario, sequence);

  Scenario applied = scenario;
  for (const Mutation& m : sequence) applied.apply(m);
  EXPECT_EQ(assessment.max_before, scenario.max_interference());
  EXPECT_EQ(assessment.max_after, applied.max_interference());
  EXPECT_EQ(assessment.newcomer_interference,
            applied.interference_of(newcomer));
  ASSERT_EQ(assessment.delta_per_node.size(), points.size());
  for (NodeId v = 0; v < points.size(); ++v) {
    EXPECT_EQ(assessment.delta_per_node[v],
              static_cast<std::int64_t>(applied.interference_of(v)) -
                  static_cast<std::int64_t>(scenario.interference_of(v)))
        << "node " << v;
  }
}

TEST(Assess, RemovalReportsVictimAndRenames) {
  const auto points = sim::uniform_square(40, 2.0, 71);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  const NodeId victim = 5;
  const auto victim_before = scenario.interference_of(victim);
  const Assessment assessment = Assessor{}.assess(scenario, Mutation::remove_node(victim));

  // The victim's slot disappeared: its delta is minus its old value.
  EXPECT_EQ(assessment.delta_per_node[victim],
            -static_cast<std::int64_t>(victim_before));
  // affected_ids is ascending and exactly the non-zero deltas.
  for (std::size_t i = 1; i < assessment.affected_ids.size(); ++i) {
    EXPECT_LT(assessment.affected_ids[i - 1], assessment.affected_ids[i]);
  }
  for (const NodeId id : assessment.affected_ids) {
    EXPECT_NE(assessment.delta_per_node[id], 0);
  }
  // Cross-check against real application with the rename resolved.
  Scenario applied = scenario;
  const NodeId renamed = applied.remove_node(victim);
  for (NodeId v = 0; v < points.size(); ++v) {
    if (v == victim) continue;
    const NodeId where = v == renamed ? victim : v;
    EXPECT_EQ(assessment.delta_per_node[v],
              static_cast<std::int64_t>(applied.interference_of(where)) -
                  static_cast<std::int64_t>(scenario.interference_of(v)))
        << "node " << v;
  }
}

}  // namespace
}  // namespace rim::core
