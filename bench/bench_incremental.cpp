/// Experiment E18 — the incremental interference engine: per-event cost of
/// core::Scenario mutations (arrivals with nearest-neighbor attachment,
/// departures, moves) against stateless full kGrid recomputation, on a
/// 100k-node churn trace. The paper's robustness result (one added node
/// perturbs any I(v) by at most 1) is what makes the O(affected-disk)
/// delta exact; this experiment shows it is also fast.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "rim/analysis/experiment.hpp"
#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/geom/dynamic_grid.hpp"
#include "rim/geom/grid_kernels.hpp"
#include "rim/graph/udg.hpp"
#include "rim/io/table.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/simd/simd.hpp"
#include "rim/topology/mst_topology.hpp"

namespace {

using namespace rim;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

/// One churn event against the live scenario: arrival (nearest-neighbor
/// attachment), departure, or a local move. Returns after refreshing the
/// engine's interference cache, i.e. the cost of a fully-evaluated tick.
void churn_event(core::Scenario& scenario, sim::Rng& rng, double side) {
  const double roll = rng.next_double();
  if (roll < 0.4 || scenario.node_count() < 3) {
    const geom::Vec2 p{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    const NodeId id = scenario.add_node(p);
    const NodeId partner = scenario.nearest_node(p, id);
    if (partner != kInvalidNode) scenario.add_edge(id, partner);
  } else if (roll < 0.8) {
    scenario.remove_node(
        static_cast<NodeId>(rng.next_below(scenario.node_count())));
  } else {
    const auto v = static_cast<NodeId>(rng.next_below(scenario.node_count()));
    const geom::Vec2 p = scenario.position(v);
    scenario.move_node(v, {p.x + 0.2 * (rng.next_double() - 0.5),
                           p.y + 0.2 * (rng.next_double() - 0.5)});
  }
  (void)scenario.max_interference();
}

}  // namespace

int main() {
  analysis::run_experiment(
      {"E18", "Incremental engine vs full recomputation under churn",
       "Section 1 & 3 (robustness => locality of updates)",
       "Scenario deltas are >= 10x cheaper per churn event than stateless "
       "full kGrid recomputation at 100k nodes"},
      std::cout, [](std::ostream& out) {
        io::Table table({"nodes", "events", "incr us/event", "full us/eval",
                         "speedup", "full evals"});
        for (const std::size_t n : {10000ul, 100000ul}) {
          // Constant density (~12.5 nodes per unit square), MST topology.
          const double side = std::sqrt(static_cast<double>(n) / 12.5);
          const geom::PointSet points = sim::uniform_square(n, side, 42);
          const graph::Graph udg = graph::build_udg(points, 1.0);
          const graph::Graph mst = topology::mst_topology(points, udg);

          core::Scenario scenario(points, mst);
          (void)scenario.max_interference();  // prime the cache

          // Incremental: a full churn trace of deltas on the live engine.
          const std::size_t events = 1000;
          sim::Rng rng(7);
          const auto t_incr = Clock::now();
          for (std::size_t e = 0; e < events; ++e) {
            churn_event(scenario, rng, side);
          }
          const double incr_us =
              ns_since(t_incr) / 1e3 / static_cast<double>(events);

          // Baseline: stateless full kGrid evaluation of the same network
          // (what every consumer paid per tick before the engine existed).
          const graph::Graph topo_now = scenario.topology();
          const std::span<const geom::Vec2> points_now = scenario.points();
          const std::size_t full_reps = 20;
          core::InterferenceSummary last_full;
          const auto t_full = Clock::now();
          for (std::size_t r = 0; r < full_reps; ++r) {
            last_full = core::Assessor{}.assess(
                topo_now, points_now, core::Strategy::kGrid);
            if (last_full.max == 0xffffffffu) out << "";  // defeat DCE
          }
          const double full_us =
              ns_since(t_full) / 1e3 / static_cast<double>(full_reps);

          table.row()
              .cell(static_cast<std::uint64_t>(n))
              .cell(static_cast<std::uint64_t>(events))
              .cell(incr_us, 1)
              .cell(full_us, 1)
              .cell(full_us / incr_us, 1)
              .cell(scenario.stats().full_evaluations);

          if (n == 100000ul) {
            out << "engine stats (100k trace): "
                << scenario.stats_json().dump() << "\n";
            out << (full_us / incr_us >= 10.0
                        ? "ACCEPTANCE: speedup >= 10x PASS"
                        : "ACCEPTANCE: speedup >= 10x FAIL")
                << "\n";

            // SIMD/scalar bit-identity at scale: recount I(v) for every
            // node of the live post-churn store through the active vector
            // backend and the scalar reference twin, and require identical
            // FNV-1a checksums (the same kernel pair the randomized churn
            // trace above exercised through Scenario's delta path).
            const std::size_t count = points_now.size();
            const std::vector<double> r2 =
                core::transmission_radii_squared(topo_now, points_now);
            double max_r2 = 0.0;
            geom::DynamicGrid grid(1.0);
            for (NodeId v = 0; v < count; ++v) {
              grid.insert(v, points_now[v], r2[v]);
              if (r2[v] > max_r2) max_r2 = r2[v];
            }
            std::vector<std::uint32_t> simd_iv(count);
            std::vector<std::uint32_t> scalar_iv(count);
            for (NodeId v = 0; v < count; ++v) {
              simd_iv[v] =
                  geom::count_covering(grid, points_now[v], max_r2, v).covered;
              scalar_iv[v] =
                  geom::count_covering_scalar(grid, points_now[v], max_r2, v)
                      .covered;
            }
            const std::uint64_t simd_sum = core::fnv1a_words(simd_iv);
            const std::uint64_t scalar_sum = core::fnv1a_words(scalar_iv);
            const std::uint64_t full_sum = core::fnv1a_words(last_full.per_node);
            out << "interference checksums (" << count << " nodes, backend "
                << simd::kBackend << "): simd=" << std::hex << simd_sum
                << " scalar=" << scalar_sum << " full_eval=" << full_sum
                << std::dec << "\n";
            out << (simd_sum == scalar_sum && simd_sum == full_sum
                        ? "ACCEPTANCE: simd/scalar checksums identical PASS"
                        : "ACCEPTANCE: simd/scalar checksums identical FAIL")
                << "\n\n";
          }
        }
        table.print(out);
      });
  return 0;
}
