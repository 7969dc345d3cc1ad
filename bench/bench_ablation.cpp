/// Ablation experiments for the design choices DESIGN.md calls out:
///  A. A_gen hub spacing: the paper's ⌈sqrt Δ⌉ against alternatives.
///  B. A_apx switching threshold: γ ≷ c · sqrt(Δ) for several c.
///  C. Local search rounds: marginal benefit per sweep.

#include <chrono>
#include <cmath>
#include <iostream>

#include "rim/analysis/experiment.hpp"
#include "rim/core/radii.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/graph/udg.hpp"
#include "rim/analysis/stats.hpp"
#include "rim/highway/a_gen.hpp"
#include "rim/highway/critical.hpp"
#include "rim/highway/interference_1d.hpp"
#include "rim/highway/linear_chain.hpp"
#include "rim/highway/local_search.hpp"
#include "rim/io/table.hpp"
#include "rim/sim/generators.hpp"
#include "rim/topology/mst_topology.hpp"

int main() {
  using namespace rim;
  analysis::run_experiment(
      {"EA", "Ablations: hub spacing, A_apx threshold, local-search budget",
       "Sections 5.2, 5.3 design choices",
       "⌈sqrt Δ⌉ spacing near-optimal; threshold c in [0.5, 2] robust"},
      std::cout, [](std::ostream& out) {
        // A. Hub spacing sweep on uniform highways.
        {
          const auto inst = sim::uniform_highway(800, 10.0, 7);
          const std::size_t delta = inst.max_degree(1.0);
          const auto default_spacing = static_cast<std::size_t>(
              std::ceil(std::sqrt(static_cast<double>(delta))));
          io::Table table({"spacing", "I(A_gen)", "note"});
          for (std::size_t spacing :
               {std::size_t{1}, default_spacing / 4, default_spacing / 2,
                default_spacing, default_spacing * 2, default_spacing * 4,
                delta}) {
            if (spacing == 0) continue;
            const auto result = highway::a_gen(inst, 1.0, spacing);
            table.row()
                .cell(static_cast<std::uint64_t>(spacing))
                .cell(highway::graph_interference_1d(inst, result.topology))
                .cell(spacing == default_spacing ? "<- paper's ceil(sqrt D)"
                                                 : "");
          }
          out << "-- A: A_gen hub spacing (uniform highway, n=800, Δ=" << delta
              << ")\n";
          table.print(out);
          out << "\nOn uniform instances small spacing approximates the linear\n"
                 "chain and wins — the ceil(sqrt Δ) choice optimises the WORST\n"
                 "case, which the exponential chain below exhibits:\n\n";

          const auto chain = highway::exponential_chain(1024);
          const std::size_t chain_delta = chain.max_degree(1.0);
          const auto chain_default = static_cast<std::size_t>(
              std::ceil(std::sqrt(static_cast<double>(chain_delta))));
          io::Table chain_table({"spacing", "I(A_gen)", "note"});
          for (std::size_t spacing :
               {std::size_t{1}, chain_default / 4, chain_default / 2,
                chain_default, chain_default * 2, chain_default * 4,
                chain_delta}) {
            if (spacing == 0) continue;
            const auto result = highway::a_gen(chain, 1.0, spacing);
            chain_table.row()
                .cell(static_cast<std::uint64_t>(spacing))
                .cell(highway::graph_interference_1d(chain, result.topology))
                .cell(spacing == chain_default ? "<- paper's ceil(sqrt D)"
                                               : "");
          }
          out << "-- A': A_gen hub spacing (exponential chain, n=1024, Δ="
              << chain_delta << ")\n";
          chain_table.print(out);
          out << '\n';
        }

        // B. A_apx switching threshold γ > c sqrt(Δ).
        {
          out << "-- B: A_apx threshold γ > c·sqrt(Δ): worst interference over "
                 "a mixed instance pool\n";
          std::vector<highway::HighwayInstance> pool;
          pool.push_back(sim::uniform_highway(400, 5.0, 1));
          pool.push_back(sim::uniform_highway(400, 40.0, 2));
          pool.push_back(highway::exponential_chain(256));
          pool.push_back(sim::perturbed_exponential_chain(256, 0.2, 3));
          pool.push_back(sim::blocked_highway(10, 40, 0.5, 1.0, 4));
          io::Table table({"c", "worst I", "mean I", "agen picks"});
          for (double c : {0.25, 0.5, 1.0, 2.0, 4.0}) {
            std::vector<double> values;
            std::uint64_t picks = 0;
            for (const auto& inst : pool) {
              const std::uint32_t g = highway::gamma(inst, 1.0);
              const auto delta = static_cast<double>(inst.max_degree(1.0));
              graph::Graph topo;
              if (static_cast<double>(g) > c * std::sqrt(delta)) {
                topo = highway::a_gen(inst, 1.0).topology;
                ++picks;
              } else {
                topo = highway::linear_chain(inst, 1.0);
              }
              values.push_back(static_cast<double>(
                  highway::graph_interference_1d(inst, topo)));
            }
            const auto s = analysis::summarize(values);
            table.row().cell(c, 2).cell(s.max, 0).cell(s.mean, 1).cell(picks);
          }
          table.print(out);
          out << '\n';
        }

        // C. Local-search budget on a mid-size exponential chain.
        {
          const auto chain = highway::exponential_chain(20);
          const auto points = chain.to_points();
          const graph::Graph udg = chain.udg(1.0);
          const graph::Graph seed = highway::linear_chain(chain, 1.0);
          io::Table table({"rounds", "I(tree)", "swaps", "local optimum"});
          for (std::size_t rounds : {0u, 1u, 2u, 4u, 8u, 16u}) {
            highway::LocalSearchParams params;
            params.max_rounds = rounds;
            const auto result = highway::local_search_min_interference(
                points, udg, seed, params);
            table.row()
                .cell(static_cast<std::uint64_t>(rounds))
                .cell(result.interference)
                .cell(static_cast<std::uint64_t>(result.swaps_applied))
                .cell(result.reached_local_optimum);
          }
          out << "-- C: local-search budget (exponential chain n=20, seeded "
                 "from the linear chain)\n";
          table.print(out);
          out << '\n';
        }

        // D. Grid cell size in the interference evaluator: the library
        // keys cells to twice the median transmission radius; sweep
        // multiples of the median and time the coverage queries.
        {
          const auto points = sim::uniform_square(20000, 40.0, 13);
          const graph::Graph udg = graph::build_udg(points, 1.0);
          const graph::Graph mst = topology::mst_topology(points, udg);
          const auto radii = core::transmission_radii(mst, points);
          std::vector<double> sorted(radii.begin(), radii.end());
          std::sort(sorted.begin(), sorted.end());
          const double median = sorted[sorted.size() / 2];
          io::Table table({"cell / median_r", "query time (ms)", "note"});
          for (double factor : {0.25, 0.5, 1.0, 2.0, 4.0, 16.0}) {
            const geom::GridIndex index(points, median * factor);
            const auto start = std::chrono::steady_clock::now();
            std::uint64_t sink = 0;
            for (NodeId u = 0; u < points.size(); ++u) {
              if (radii[u] <= 0.0) continue;
              index.for_each_in_disk_squared(points[u], radii[u] * radii[u],
                                             [&](NodeId) { ++sink; });
            }
            const double ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
            // RIM_LINT_ALLOW(float-equality): factor iterates over exact
            // literal ablation settings; 2.0 labels the default row.
            const bool is_default = factor == 2.0;
            table.row().cell(factor, 2).cell(ms, 1).cell(
                is_default ? "<- library default" : "");
            (void)sink;
          }
          out << "-- D: interference-evaluator grid cell size (n=20000 "
                 "uniform, MST radii)\n";
          table.print(out);
        }
      });
  return 0;
}
