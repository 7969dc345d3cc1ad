/// Experiment E16 — does the paper's combinatorial measure predict physical
/// reality? For every topology of one instance: receiver-centric
/// interference I(G'), disk-model frame length, and SINR-model frame length
/// (minimum slots to fire every link once), plus the cross-topology
/// correlation. Reference point: [11] (Meyer auf de Heide et al.) ties
/// interference to congestion; Moscibroda et al. argue for SINR.

#include <iostream>

#include "rim/analysis/experiment.hpp"
#include "rim/analysis/stats.hpp"
#include "rim/core/interference.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/a_exp.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/highway/linear_chain.hpp"
#include "rim/io/table.hpp"
#include "rim/phy/scheduling.hpp"
#include "rim/sim/generators.hpp"
#include "rim/topology/registry.hpp"

int main() {
  using namespace rim;
  analysis::run_experiment(
      {"E16", "Protocol-model interference vs physical-model schedulability",
       "Section 3 model discussion; references [11] and the SINR literature",
       "frame length (disk and SINR) grows with I(G'); rank order preserved"},
      std::cout, [](std::ostream& out) {
        // Part 1: topology zoo on one 2-D instance.
        {
          const auto points = sim::uniform_square(150, 3.0, 12);
          const graph::Graph udg = graph::build_udg(points, 1.0);
          io::Table table({"topology", "edges", "I recv", "frame(disk)",
                           "frame(SINR)"});
          std::vector<double> interference;
          std::vector<double> disk_frames;
          std::vector<double> sinr_frames;
          for (const auto& algorithm : topology::all_algorithms()) {
            const graph::Graph topo = algorithm.build(points, udg);
            const std::uint32_t i = core::graph_interference(topo, points);
            const std::size_t disk = phy::schedule_links_disk(topo, points).length();
            const std::size_t sinr = phy::schedule_links_sinr(topo, points).length();
            table.row()
                .cell(algorithm.name)
                .cell(static_cast<std::uint64_t>(topo.edge_count()))
                .cell(i)
                .cell(static_cast<std::uint64_t>(disk))
                .cell(static_cast<std::uint64_t>(sinr));
            interference.push_back(i);
            disk_frames.push_back(static_cast<double>(disk));
            sinr_frames.push_back(static_cast<double>(sinr));
          }
          const double disk_r = analysis::pearson(interference, disk_frames);
          const double sinr_r = analysis::pearson(interference, sinr_frames);
          out << "-- topology zoo, uniform n=150\n";
          table.print(out);
          out << "\ncorrelation I(G') vs frame length: disk " << disk_r
              << ", SINR " << sinr_r << "\n"
              << "ACCEPTANCE: zoo Pearson(I, frame) >= 0.9 (disk and SINR) "
              << (disk_r >= 0.9 && sinr_r >= 0.9 ? "PASS" : "FAIL") << "\n\n";
        }

        // Part 2: the exponential chain across sizes — frame length follows
        // the Θ(n) vs Θ(sqrt n) separation of Section 5.
        {
          io::Table table({"n", "I(linear)", "frame(linear)", "I(A_exp)",
                           "frame(A_exp)"});
          for (std::size_t n : {16u, 32u, 64u, 128u}) {
            const auto chain = highway::exponential_chain(n);
            const auto points = chain.to_points();
            const graph::Graph linear = highway::linear_chain(chain, 1.0);
            const graph::Graph aexp = highway::a_exp(chain).topology;
            table.row()
                .cell(static_cast<std::uint64_t>(n))
                .cell(core::graph_interference(linear, points))
                .cell(static_cast<std::uint64_t>(
                    phy::schedule_links_disk(linear, points).length()))
                .cell(core::graph_interference(aexp, points))
                .cell(static_cast<std::uint64_t>(
                    phy::schedule_links_disk(aexp, points).length()));
          }
          out << "-- exponential chain: one-shot frame length saturates\n";
          table.print(out);
          out << "\nNote: on the exponential chain EVERY link's disk covers\n"
                 "the left end of the chain, so all links pairwise conflict\n"
                 "and one-shot scheduling serialises to m = n-1 slots for\n"
                 "both topologies — frame length measures per-shot\n"
                 "concurrency, while I(G') bounds how many transmitters can\n"
                 "disturb one receiver. The zoo correlation above shows they\n"
                 "agree when geometry leaves room for concurrency; this\n"
                 "instance shows where they intentionally differ.\n";
        }
      });
  return 0;
}
