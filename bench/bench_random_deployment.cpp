/// Experiment E23 — million-node random-deployment validation: one seeded
/// uniform deployment per tier n ∈ {10k, 100k, 1M} (constant density, NNF
/// topology), evaluated under all three interference models in one process
/// — receiver-centric (the paper's), sender-centric (MobiHoc'04), and the
/// SINR physical comparator (DESIGN.md §12). The receiver-centric maximum
/// is checked against the Devroye–Morin-style O(sqrt(n log n)) bound as a
/// calibrated upper envelope plus a log-log growth-exponent fit; the SINR
/// SIMD and scalar kernel paths must produce bit-identical power
/// checksums at every tier, and Strategy::kParallel must reproduce the
/// kGrid SINR power bits and sender-centric per-edge coverage exactly.
/// The registry snapshot lands in BENCH_8.json.
///
/// An optional argv[1] caps the largest tier (CI's PR legs run the 100k
/// smoke tier; the nightly scale job runs the full million).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "rim/analysis/experiment.hpp"
#include "rim/analysis/fit.hpp"
#include "rim/core/assessor.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/sender_centric.hpp"
#include "rim/core/sinr.hpp"
#include "rim/io/table.hpp"
#include "rim/obs/registry.hpp"
#include "rim/parallel/thread_pool.hpp"
#include "rim/sim/random_deployment.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"

namespace {

using namespace rim;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - start)
                 .count()) /
         1e6;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream s;
  s << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return s.str();
}

struct TierResult {
  std::size_t nodes = 0;
  std::uint32_t receiver_max = 0;
  std::uint32_t sender_max = 0;
  std::uint32_t sinr_max = 0;
  double sinr_max_power = 0.0;
  std::uint64_t sinr_checksum = 0;
  bool sinr_checksums_identical = false;
  bool sinr_parallel_identical = false;
  bool sender_parallel_identical = false;
  double receiver_ms = 0.0;
  double sender_ms = 0.0;
  double sinr_ms = 0.0;
  double sender_parallel_ms = 0.0;
  double sinr_parallel_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_nodes = 1000000;
  if (argc > 1) max_nodes = std::strtoull(argv[1], nullptr, 10);

  bool ok = true;
  analysis::run_experiment(
      {"E23", "Million-node random deployment under three models",
       "PAPERS.md: Devroye-Morin bounds for random point sets; Aslanyan "
       "(physical model); MobiHoc'04 (sender-centric)",
       "receiver-centric max interference on uniform deployments stays "
       "within a calibrated c*sqrt(n ln n) envelope with growth exponent "
       "well below 0.5, while the SINR comparator's SIMD and scalar "
       "kernels agree bit-identically"},
      std::cout, [&](std::ostream& out) {
        constexpr std::uint64_t kSeed = 97;
        constexpr double kDensity = 12.5;  // nodes per unit square
        const std::size_t all_tiers[] = {10000, 100000, 1000000};
        const std::size_t pool_threads =
            parallel::ThreadPool::shared().thread_count();

        std::vector<TierResult> tiers;
        bool checksums_ok = true;
        bool parallel_ok = true;
        for (const std::size_t n : all_tiers) {
          if (n > max_nodes) continue;
          TierResult tier;
          tier.nodes = n;
          const double side = std::sqrt(static_cast<double>(n) / kDensity);
          const sim::RandomDeployment deployment(
              sim::RandomDeployment::Params{}
                  .with_kind(sim::RandomDeployment::Kind::kUniform)
                  .with_nodes(n)
                  .with_side(side),
              kSeed);
          const geom::PointSet points = deployment.generate();
          const graph::Graph nnf = topology::nearest_neighbor_forest(points);

          // One options object per deployment: the three models differ only
          // in with_model, so they assess the identical instance.
          const core::EvalOptions base =
              core::EvalOptions{}.with_strategy(core::Strategy::kGrid);
          const core::Assessor assessor;

          auto t0 = Clock::now();
          const core::InterferenceSummary receiver =
              assessor.assess(nnf, points, base);
          tier.receiver_ms = ms_since(t0);
          tier.receiver_max = receiver.max;

          // Sender-centric per-edge coverage (its max is the Assessor's
          // node-projected max), then the kParallel replay.
          t0 = Clock::now();
          const core::SenderCentricSummary sender =
              core::evaluate_sender_centric(nnf, points, base);
          tier.sender_ms = ms_since(t0);
          tier.sender_max = sender.max;

          core::EvalOptions parallel = base;
          parallel.with_strategy(core::Strategy::kParallel);
          t0 = Clock::now();
          const core::SenderCentricSummary sender_parallel =
              core::evaluate_sender_centric(nnf, points, parallel);
          tier.sender_parallel_ms = ms_since(t0);
          tier.sender_parallel_identical =
              sender_parallel.per_edge == sender.per_edge;

          // SINR through the SinrAssessor directly for the power column and
          // the checksum, then the scalar-twin replay for bit-identity.
          t0 = Clock::now();
          core::EvalOptions sinr_opts = base;
          sinr_opts.with_model(core::Model::kSinr);
          const core::SinrAssessor sinr_assessor(sinr_opts);
          const std::vector<double> radii2 =
              core::transmission_radii_squared(nnf, points);
          const core::SinrSummary sinr = sinr_assessor.assess(points, radii2);
          tier.sinr_ms = ms_since(t0);
          tier.sinr_max = sinr.max;
          tier.sinr_max_power = sinr.max_power;
          tier.sinr_checksum = sinr.power_checksum;

          const core::SinrSummary sinr_scalar =
              sinr_assessor.assess_scalar(points, radii2);
          tier.sinr_checksums_identical =
              sinr.power_checksum == sinr_scalar.power_checksum &&
              sinr.max == sinr_scalar.max && sinr.total == sinr_scalar.total;
          checksums_ok = checksums_ok && tier.sinr_checksums_identical;

          // kParallel scatters one receiver stripe per pool thread; every
          // power bit must still equal the one-stripe kGrid scatter.
          t0 = Clock::now();
          const core::SinrSummary sinr_parallel =
              sinr_assessor.assess(points, radii2, parallel);
          tier.sinr_parallel_ms = ms_since(t0);
          tier.sinr_parallel_identical =
              std::equal(sinr.power.begin(), sinr.power.end(),
                         sinr_parallel.power.begin(),
                         sinr_parallel.power.end(),
                         [](double a, double b) {
                           return std::bit_cast<std::uint64_t>(a) ==
                                  std::bit_cast<std::uint64_t>(b);
                         }) &&
              sinr_parallel.per_node == sinr.per_node;
          parallel_ok = parallel_ok && tier.sinr_parallel_identical &&
                        tier.sender_parallel_identical;

          tiers.push_back(tier);
        }

        io::Table table({"nodes", "recv max", "send max", "sinr max",
                         "sinr max power", "recv ms", "send ms", "sinr ms",
                         "send par ms", "sinr par ms"});
        for (const TierResult& t : tiers) {
          table.row()
              .cell(t.nodes)
              .cell(t.receiver_max)
              .cell(t.sender_max)
              .cell(t.sinr_max)
              .cell(t.sinr_max_power, 6)
              .cell(t.receiver_ms, 1)
              .cell(t.sender_ms, 1)
              .cell(t.sinr_ms, 1)
              .cell(t.sender_parallel_ms, 1)
              .cell(t.sinr_parallel_ms, 1);
        }
        table.print(out);
        out << "deployment seed " << kSeed << ", density " << kDensity
            << " nodes/unit^2, NNF topology, " << pool_threads
            << " pool threads for kParallel; largest tier "
            << (tiers.empty() ? 0 : tiers.back().nodes) << " nodes\n";
        for (const TierResult& t : tiers) {
          out << "sinr power checksum @" << t.nodes << ": "
              << hex64(t.sinr_checksum) << "\n";
        }

        // --- Devroye-Morin envelope: calibrate c at the smallest tier with
        // a 2x safety factor, then demand every larger tier stays under
        // c * sqrt(n ln n). NNF maxima on uniform deployments grow far
        // slower than the bound, so the envelope is a one-sided robustness
        // check, not a tight band; the exponent fit below pins the shape.
        const auto bound = [](std::size_t n) {
          const auto dn = static_cast<double>(n);
          return std::sqrt(dn * std::log(dn));
        };
        bool envelope_ok = true;
        double calibrated_c = 0.0;
        double exponent = 0.0;
        if (tiers.size() >= 2) {
          calibrated_c = 2.0 * static_cast<double>(tiers[0].receiver_max) /
                         bound(tiers[0].nodes);
          for (std::size_t i = 1; i < tiers.size(); ++i) {
            const double limit = calibrated_c * bound(tiers[i].nodes);
            if (static_cast<double>(tiers[i].receiver_max) > limit) {
              envelope_ok = false;
              out << "envelope violated @" << tiers[i].nodes << ": max "
                  << tiers[i].receiver_max << " > " << limit << "\n";
            }
          }
          std::vector<double> xs, ys;
          for (const TierResult& t : tiers) {
            xs.push_back(static_cast<double>(t.nodes));
            ys.push_back(static_cast<double>(t.receiver_max));
          }
          exponent = analysis::fit_power_law(xs, ys).slope;
          out << "receiver-centric growth: calibrated c = " << calibrated_c
              << ", fitted exponent " << exponent
              << " (sqrt(n log n) bound would be ~0.5+)\n";
        }

        // --- Registry snapshot => BENCH_8.json artifact. ---
        {
          io::JsonObject bench;
          bench["experiment"] = io::Json(std::string("E23"));
          bench["seed"] = io::Json(kSeed);
          bench["density"] = io::Json(kDensity);
          bench["max_nodes"] = io::Json(max_nodes);
          io::JsonArray tier_docs;
          for (const TierResult& t : tiers) {
            io::JsonObject doc;
            doc["nodes"] = io::Json(t.nodes);
            doc["receiver_max"] = io::Json(t.receiver_max);
            doc["sender_max"] = io::Json(t.sender_max);
            doc["sinr_max"] = io::Json(t.sinr_max);
            doc["sinr_max_power"] = io::Json(t.sinr_max_power);
            doc["sinr_power_checksum"] = io::Json(hex64(t.sinr_checksum));
            doc["receiver_ms"] = io::Json(t.receiver_ms);
            doc["sender_ms"] = io::Json(t.sender_ms);
            doc["sinr_ms"] = io::Json(t.sinr_ms);
            doc["sender_parallel_ms"] = io::Json(t.sender_parallel_ms);
            doc["sinr_parallel_ms"] = io::Json(t.sinr_parallel_ms);
            tier_docs.push_back(io::Json(std::move(doc)));
          }
          bench["tiers"] = io::Json(std::move(tier_docs));
          bench["envelope_c"] = io::Json(calibrated_c);
          bench["growth_exponent"] = io::Json(exponent);
          // Throughput metric for the trajectory gate: largest-tier nodes
          // assessed per second, summed across the three models.
          if (!tiers.empty()) {
            const TierResult& top = tiers.back();
            const double total_ms = top.receiver_ms + top.sender_ms + top.sinr_ms;
            bench["nodes_per_second_all_models"] = io::Json(
                total_ms > 0.0 ? 3.0 * static_cast<double>(top.nodes) /
                                     (total_ms / 1000.0)
                               : 0.0);
          }
          analysis::stamp_bench(bench);
          obs::Registry::global().add_source(
              "bench", [b = io::Json(std::move(bench))] { return b; });
          std::ofstream file("BENCH_8.json");
          file << obs::Registry::global().snapshot().dump() << "\n";
          out << "metrics snapshot written to BENCH_8.json\n";
        }

        if (checksums_ok && !tiers.empty()) {
          out << "ACCEPTANCE: simd/scalar sinr checksums identical PASS\n";
        } else {
          out << "ACCEPTANCE: simd/scalar sinr checksums identical FAIL\n";
          ok = false;
        }
        if (parallel_ok && !tiers.empty()) {
          out << "ACCEPTANCE: kParallel sinr power and sender coverage "
                 "bit-identical to kGrid PASS\n";
        } else {
          out << "ACCEPTANCE: kParallel sinr power and sender coverage "
                 "bit-identical to kGrid FAIL\n";
          ok = false;
        }
        if (tiers.size() < 2) {
          out << "ACCEPTANCE: receiver-centric max within c*sqrt(n log n) "
                 "envelope SKIPPED (single tier)\n";
          out << "ACCEPTANCE: growth exponent <= 0.55 SKIPPED (single "
                 "tier)\n";
        } else {
          if (envelope_ok) {
            out << "ACCEPTANCE: receiver-centric max within c*sqrt(n log n) "
                   "envelope PASS\n";
          } else {
            out << "ACCEPTANCE: receiver-centric max within c*sqrt(n log n) "
                   "envelope FAIL\n";
            ok = false;
          }
          if (exponent <= 0.55) {
            out << "ACCEPTANCE: growth exponent <= 0.55 PASS (" << exponent
                << ")\n";
          } else {
            out << "ACCEPTANCE: growth exponent <= 0.55 FAIL (" << exponent
                << ")\n";
            ok = false;
          }
        }
      });
  return ok ? 0 : 1;
}
