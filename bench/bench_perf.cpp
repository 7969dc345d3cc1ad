/// Experiment E12 — performance of the library's kernels (google-benchmark):
/// interference evaluation strategies, UDG construction, spatial indices,
/// and the Section 5 algorithms.

#include <benchmark/benchmark.h>

#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/a_apx.hpp"
#include "rim/highway/a_exp.hpp"
#include "rim/highway/a_gen.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/highway/interference_1d.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/topology/mst_topology.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"
#include "rim/topology/registry.hpp"

namespace {

using namespace rim;

struct Prepared {
  geom::PointSet points;
  graph::Graph udg;
  graph::Graph mst;
  std::vector<double> radii2;
};

Prepared prepare(std::size_t n) {
  Prepared p;
  // Density held constant (~12.5 nodes per unit square).
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  p.points = sim::uniform_square(n, side, 42);
  p.udg = graph::build_udg(p.points, 1.0);
  p.mst = topology::mst_topology(p.points, p.udg);
  p.radii2 = core::transmission_radii_squared(p.mst, p.points);
  return p;
}

void BM_InterferenceBrute(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::interference_vector_squared(
        p.points, p.radii2, core::Strategy::kBrute));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InterferenceBrute)->RangeMultiplier(4)->Range(256, 4096)->Complexity();

void BM_InterferenceGrid(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::interference_vector_squared(
        p.points, p.radii2, core::Strategy::kGrid));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InterferenceGrid)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_InterferenceParallel(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::interference_vector_squared(
        p.points, p.radii2, core::Strategy::kParallel));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InterferenceParallel)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_ScenarioChurnEvent(benchmark::State& state) {
  // One fully-evaluated churn tick on the incremental engine: alternating
  // arrival (nearest-neighbor attachment) and departure, with the
  // interference cache refreshed after every event. Compare against
  // BM_InterferenceGrid at the same n for the incremental-vs-full gap.
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  const double side = std::sqrt(static_cast<double>(p.points.size()) / 12.5);
  core::Scenario scenario(p.points, p.mst);
  benchmark::DoNotOptimize(scenario.max_interference());
  sim::Rng rng(19);
  bool add = true;
  for (auto _ : state) {
    if (add) {
      const geom::Vec2 q{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      const NodeId id = scenario.add_node(q);
      const NodeId partner = scenario.nearest_node(q, id);
      if (partner != kInvalidNode) scenario.add_edge(id, partner);
    } else {
      scenario.remove_node(
          static_cast<NodeId>(rng.next_below(scenario.node_count())));
    }
    add = !add;
    benchmark::DoNotOptimize(scenario.max_interference());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScenarioChurnEvent)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_ScenarioMoveNode(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  core::Scenario scenario(p.points, p.mst);
  benchmark::DoNotOptimize(scenario.max_interference());
  sim::Rng rng(23);
  for (auto _ : state) {
    const auto v = static_cast<NodeId>(rng.next_below(scenario.node_count()));
    const geom::Vec2 q = scenario.position(v);
    scenario.move_node(v, {q.x + 0.1 * (rng.next_double() - 0.5),
                           q.y + 0.1 * (rng.next_double() - 0.5)});
    benchmark::DoNotOptimize(scenario.max_interference());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScenarioMoveNode)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_ScenarioPointOp(benchmark::State& state) {
  // One point op on a warm incremental engine, with no query in the loop:
  // iterations cycle move_node, add_edge and remove_edge over precomputed
  // (node, nearest neighbor) pairs of a points-only NNF at density 12.5,
  // so the time per iteration is the op's own cost. Moves alternate their
  // direction per pass over the pairs, so nodes oscillate instead of
  // drifting away. The `deferred` counter must read 0: a deferred op
  // leaves the cache dirty, and later ops would skip their disk deltas.
  // BM_ScenarioMoveNode and BM_ScenarioChurnEvent refresh
  // max_interference() every iteration, an O(n) scan that hides the op.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  const auto points = sim::uniform_square(n, side, 42);
  core::Scenario scenario(points, topology::nearest_neighbor_forest(points));
  benchmark::DoNotOptimize(scenario.max_interference());
  struct Op {
    NodeId v;
    NodeId w;
    geom::Vec2 step;
  };
  std::vector<Op> ops(1024);
  sim::Rng rng(29);
  for (Op& op : ops) {
    op.v = static_cast<NodeId>(rng.next_below(n));
    op.w = scenario.nearest_node(scenario.position(op.v), op.v);
    op.step = {0.05 * (rng.next_double() - 0.5),
               0.05 * (rng.next_double() - 0.5)};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Op& op = ops[(i / 3) % ops.size()];
    const double sign = (i / (3 * ops.size())) % 2 == 0 ? 1.0 : -1.0;
    switch (i % 3) {
      case 0:
        scenario.move_node(op.v, scenario.position(op.v) + sign * op.step);
        break;
      case 1:
        benchmark::DoNotOptimize(scenario.add_edge(op.v, op.w));
        break;
      default:
        benchmark::DoNotOptimize(scenario.remove_edge(op.v, op.w));
        break;
    }
    ++i;
  }
  state.counters["deferred"] =
      static_cast<double>(scenario.stats().batch_deferred.value() +
                          scenario.stats().deferred_mutations.value());
}
BENCHMARK(BM_ScenarioPointOp)
    ->ArgName("nodes")
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_UdgConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  const auto points = sim::uniform_square(n, side, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_udg(points, 1.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UdgConstruction)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_GridIndexQuery(benchmark::State& state) {
  const auto points = sim::uniform_square(65536, 72.0, 3);
  const geom::GridIndex index(points, 1.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.count_in_disk(points[i % points.size()], 1.0));
    ++i;
  }
}
BENCHMARK(BM_GridIndexQuery);

void BM_ScenarioColdStart(benchmark::State& state) {
  // Cold start of the incremental engine on a points-only NNF at density
  // 12.5. restore=0 times Scenario(points, topology) plus the first
  // move_node, which builds the persistent grid; restore=1 times restore()
  // of that scenario's snapshot, grid included. Neither runs a full
  // evaluation: a fresh scenario's cache is dirty, so the move skips its
  // disk delta.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  const auto points = sim::uniform_square(n, side, 42);
  const graph::Graph nnf = topology::nearest_neighbor_forest(points);
  const geom::Vec2 moved{points[0].x + 0.01, points[0].y};
  if (state.range(1) == 0) {
    for (auto _ : state) {
      core::Scenario scenario(points, nnf);
      scenario.move_node(0, moved);
      benchmark::DoNotOptimize(scenario.node_count());
    }
  } else {
    core::Scenario scenario(points, nnf);
    scenario.move_node(0, moved);
    const core::Snapshot snapshot = scenario.snapshot();
    for (auto _ : state) {
      benchmark::DoNotOptimize(scenario.restore(snapshot));
    }
  }
}
BENCHMARK(BM_ScenarioColdStart)
    ->ArgNames({"nodes", "restore"})
    ->ArgsProduct({{4096, 100000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioCopy(benchmark::State& state) {
  // Copy construction of a warm engine (grid built, interference cached) on
  // a points-only NNF at density 12.5: the probe copy core::Assessor makes
  // for every assessment.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  const auto points = sim::uniform_square(n, side, 42);
  core::Scenario scenario(points, topology::nearest_neighbor_forest(points));
  scenario.move_node(0, {points[0].x + 0.01, points[0].y});
  benchmark::DoNotOptimize(scenario.max_interference());
  for (auto _ : state) {
    const core::Scenario copy(scenario);
    benchmark::DoNotOptimize(copy.node_count());
  }
}
BENCHMARK(BM_ScenarioCopy)
    ->ArgNames({"nodes"})
    ->Arg(4096)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_AExp(benchmark::State& state) {
  const auto chain =
      highway::exponential_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::a_exp(chain));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AExp)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

void BM_AGen(benchmark::State& state) {
  const auto inst = sim::uniform_highway(
      static_cast<std::size_t>(state.range(0)),
      static_cast<double>(state.range(0)) / 40.0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::a_gen(inst, 1.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AGen)->RangeMultiplier(4)->Range(1024, 65536)->Complexity();

void BM_AApx(benchmark::State& state) {
  const auto inst = sim::uniform_highway(
      static_cast<std::size_t>(state.range(0)),
      static_cast<double>(state.range(0)) / 40.0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::a_apx(inst, 1.0));
  }
}
BENCHMARK(BM_AApx)->RangeMultiplier(4)->Range(1024, 65536);

void BM_Interference1D(benchmark::State& state) {
  const auto inst = sim::uniform_highway(
      static_cast<std::size_t>(state.range(0)),
      static_cast<double>(state.range(0)) / 40.0, 5);
  const auto topo = highway::a_gen(inst, 1.0).topology;
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::graph_interference_1d(inst, topo));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Interference1D)->RangeMultiplier(4)->Range(1024, 65536)->Complexity();

void BM_TopologyAlgorithms(benchmark::State& state) {
  const Prepared p = prepare(1000);
  const auto algorithms = topology::all_algorithms();
  const auto& algorithm = algorithms[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(algorithm.name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm.build(p.points, p.udg));
  }
}
BENCHMARK(BM_TopologyAlgorithms)->DenseRange(0, 9);

}  // namespace
