/// Experiment E21 — the redesigned hot path under serving load, plus fair
/// admission. Phase 1 drives the query-dominated assessment path (the
/// SoA + SIMD receiver recount behind query_interference_of) from
/// concurrent tenants and compares requests/second against the E20
/// baseline recorded in BENCH_5.json (run bench_service first). Phase 2
/// mixes one hog against seven well-behaved tenants with per-tenant token
/// buckets enabled and checks that every tenant's completion count stays
/// within 2x of the median — the hog is shed, not served first. The
/// registry snapshot is written to BENCH_6.json.
///
/// The throughput acceptance also gates on a multi-core host: the batch
/// wave executor and the concurrent tenants need real parallelism, so on
/// a single-hardware-thread machine the leg reports FAIL by design.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rim/analysis/experiment.hpp"
#include "rim/core/scenario.hpp"
#include "rim/io/json.hpp"
#include "rim/io/table.hpp"
#include "rim/sim/rng.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/errors.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

namespace {

using namespace rim;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSessions = 8;       ///< matches the E20 baseline
constexpr std::size_t kSessionNodes = 256;  ///< matches the E20 seed size
constexpr std::size_t kQueriesPerTenant = 4000;

// Fairness mix: one hog offering 10x the well-behaved load, against
// buckets sized so a polite tenant is never shed (burst covers its whole
// offer) while the hog runs out of burst and is rate-limited.
constexpr std::size_t kFairTenants = 7;
constexpr std::uint64_t kFairAttempts = 600;
constexpr std::uint64_t kHogAttempts = 6000;
constexpr double kBucketRate = 100.0;  ///< tokens/s after the burst is gone
constexpr double kBucketBurst = 600.0;

double ms_since(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start)
                                 .count()) /
         1000.0;
}

/// Seed one session with the E20-shaped network: a chained point cloud.
std::vector<core::Mutation> seed_mutations(std::uint64_t seed) {
  std::vector<core::Mutation> batch;
  batch.reserve(kSessionNodes * 2);
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < kSessionNodes; ++i) {
    batch.push_back(core::Mutation::add_node(
        {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)}));
  }
  for (std::size_t i = 1; i < kSessionNodes; ++i) {
    batch.push_back(core::Mutation::add_edge(
        static_cast<NodeId>(i - 1), static_cast<NodeId>(i)));
  }
  return batch;
}

/// Open and seed a session; empty error string on success.
std::string open_seeded_session(svc::Client& client, std::uint64_t seed,
                                std::uint64_t& session) {
  const svc::SvcResult<std::uint64_t> opened = client.try_create_session();
  if (!opened) return "create_session: " + opened.error().message;
  session = *opened;
  const svc::SvcResult<core::BatchResult> applied =
      client.try_apply_batch(session, seed_mutations(seed));
  if (!applied) return "seed apply_batch: " + applied.error().message;
  return {};
}

struct QueryWorker {
  std::string error;          ///< first hard failure, empty when clean
  std::uint64_t ok = 0;       ///< successful responses
  std::uint64_t shed = 0;     ///< explicit "overloaded" responses
};

/// The timed hot loop: point interference queries against a live session.
void run_queries(svc::Service& service, std::uint64_t seed,
                 std::uint64_t queries, QueryWorker& result) {
  svc::LoopbackTransport transport(service);
  svc::Client client(transport);
  std::uint64_t session = 0;
  result.error = open_seeded_session(client, seed, session);
  if (!result.error.empty()) return;
  sim::Rng rng(seed * 31 + 3);
  for (std::uint64_t q = 0; q < queries; ++q) {
    const auto v = static_cast<NodeId>(rng.next_below(kSessionNodes));
    const svc::SvcResult<std::uint32_t> answer =
        client.try_query_interference_of(session, v);
    if (answer) {
      ++result.ok;
    } else if (answer.error().code == svc::SvcErrorCode::kOverloaded) {
      ++result.shed;
    } else {
      result.error = "query_interference_of: " + answer.error().message;
      return;
    }
  }
}

}  // namespace

int main() {
  bool ok = true;
  analysis::run_experiment(
      {"E21", "Hot-path serving throughput and fair admission",
       "Section 1 (serving many deployments without starving any)",
       "query-dominated serving runs >= 10x the E20 request rate with "
       "< 5% sheds; token buckets keep every tenant within 2x of the "
       "median completions under a 1-hog/7-fair mix"},
      std::cout, [&ok](std::ostream& out) {
        const unsigned hardware_threads = std::thread::hardware_concurrency();
        out << "hardware threads: " << hardware_threads << "\n";

        // --- Phase 1: query-path throughput across concurrent tenants. ---
        svc::ServiceConfig config;
        config.limits.max_sessions = kSessions * 2;
        config.limits.max_live_sessions = kSessions * 2;
        config.limits.max_in_flight = kSessions * 2;
        svc::Service service(config);

        std::vector<QueryWorker> workers(kSessions);
        {
          std::vector<std::thread> tenants;
          tenants.reserve(kSessions);
          for (std::size_t s = 0; s < kSessions; ++s) {
            tenants.emplace_back([&service, s, &workers] {
              run_queries(service, 2000 + s, kQueriesPerTenant, workers[s]);
            });
          }
          for (std::thread& tenant : tenants) tenant.join();
        }
        // The timed window intentionally includes session seeding, like
        // E20's window includes its seed batches: same offered-load shape,
        // different request mix.
        const auto t_load = Clock::now();
        std::vector<QueryWorker> timed(kSessions);
        {
          std::vector<std::thread> tenants;
          tenants.reserve(kSessions);
          for (std::size_t s = 0; s < kSessions; ++s) {
            tenants.emplace_back([&service, s, &timed] {
              run_queries(service, 3000 + s, kQueriesPerTenant, timed[s]);
            });
          }
          for (std::thread& tenant : tenants) tenant.join();
        }
        const double load_ms = ms_since(t_load);

        std::uint64_t requests = 0;
        std::uint64_t sheds = 0;
        std::size_t clean = 0;
        for (std::size_t s = 0; s < kSessions; ++s) {
          if (timed[s].error.empty()) {
            ++clean;
          } else {
            out << "tenant " << s << " FAILED: " << timed[s].error << '\n';
            ok = false;
          }
          requests += timed[s].ok;
          sheds += timed[s].shed;
        }
        const io::Json latency =
            service.frontend_counters().latency_ns.to_json();
        const double p50 = latency.find("p50")->as_number(0.0);
        const double p99 = latency.find("p99")->as_number(0.0);
        const double req_per_s =
            load_ms > 0.0 ? double(requests) * 1000.0 / load_ms : 0.0;

        io::Table table({"sessions", "requests", "shed", "wall ms", "req/s",
                         "p50 us", "p99 us"});
        table.row()
            .cell(static_cast<std::uint64_t>(kSessions))
            .cell(requests)
            .cell(sheds)
            .cell(load_ms, 1)
            .cell(req_per_s, 0)
            .cell(p50 / 1000.0, 1)
            .cell(p99 / 1000.0, 1);
        table.print(out);

        // --- Baseline comparison against BENCH_5.json (E20). ---
        double baseline_req_per_s = 0.0;
        {
          std::ifstream file("BENCH_5.json");
          std::stringstream text;
          text << file.rdbuf();
          io::Json baseline;
          std::string parse_error;
          if (file && io::Json::parse(text.str(), baseline, parse_error)) {
            if (const io::Json* bench = baseline.find("bench")) {
              if (const io::Json* rate = bench->find("requests_per_second")) {
                baseline_req_per_s = rate->as_number(0.0);
              }
            }
          }
          if (baseline_req_per_s <= 0.0) {
            out << "no usable BENCH_5.json baseline in the working "
                   "directory (run bench_service first)\n";
          }
        }
        const double speedup =
            baseline_req_per_s > 0.0 ? req_per_s / baseline_req_per_s : 0.0;
        out << "baseline (E20): " << baseline_req_per_s
            << " req/s; this leg: " << req_per_s << " req/s; speedup "
            << speedup << "x\n";
        const double total_offered = double(requests + sheds);
        const double shed_fraction =
            total_offered > 0.0 ? double(sheds) / total_offered : 1.0;
        if (clean == kSessions && speedup >= 10.0) {
          out << "ACCEPTANCE: hot-path req/s >= 10x E20 baseline PASS\n";
        } else {
          out << "ACCEPTANCE: hot-path req/s >= 10x E20 baseline FAIL\n";
          ok = false;
        }
        if (shed_fraction < 0.05) {
          out << "ACCEPTANCE: sheds < 5% of offered load PASS\n";
        } else {
          out << "ACCEPTANCE: sheds < 5% of offered load FAIL\n";
          ok = false;
        }
        if (hardware_threads >= 2) {
          out << "ACCEPTANCE: multi-core host (hardware_threads >= 2) PASS\n";
        } else {
          out << "ACCEPTANCE: multi-core host (hardware_threads >= 2) FAIL\n";
          ok = false;
        }

        // --- Phase 2: 1 hog + 7 fair tenants, buckets on. ---
        // Every session gets the same bucket; the fair tenants' whole
        // offer fits inside the burst so they are never shed, while the
        // hog's 10x offer runs the bucket dry and is rate-limited. The
        // fairness claim is about *completions*: the hog cannot convert
        // its extra offered load into extra service.
        svc::ServiceConfig fair_config;
        fair_config.limits.max_sessions = kSessions * 2;
        fair_config.limits.max_live_sessions = kSessions * 2;
        fair_config.limits.max_in_flight = kSessions * 2;
        fair_config.limits.tenant_rate_per_s = kBucketRate;
        fair_config.limits.tenant_burst = kBucketBurst;
        svc::Service fair_service(fair_config);

        std::vector<QueryWorker> mix(kFairTenants + 1);
        {
          std::vector<std::thread> tenants;
          tenants.reserve(mix.size());
          tenants.emplace_back([&fair_service, &mix] {
            run_queries(fair_service, 4000, kHogAttempts, mix[0]);
          });
          for (std::size_t s = 0; s < kFairTenants; ++s) {
            tenants.emplace_back([&fair_service, s, &mix] {
              run_queries(fair_service, 4100 + s, kFairAttempts, mix[s + 1]);
            });
          }
          for (std::thread& tenant : tenants) tenant.join();
        }
        std::vector<std::uint64_t> completions;
        completions.reserve(mix.size());
        for (std::size_t s = 0; s < mix.size(); ++s) {
          if (!mix[s].error.empty()) {
            out << (s == 0 ? "hog" : "fair tenant") << " FAILED: "
                << mix[s].error << '\n';
            ok = false;
          }
          completions.push_back(mix[s].ok);
        }
        std::vector<std::uint64_t> sorted = completions;
        std::sort(sorted.begin(), sorted.end());
        const std::uint64_t median = sorted[sorted.size() / 2];
        const std::uint64_t lowest = sorted.front();
        const std::uint64_t highest = sorted.back();
        out << "fairness mix: hog completed " << mix[0].ok << " (shed "
            << mix[0].shed << "), fair tenants completed";
        for (std::size_t s = 1; s < mix.size(); ++s) out << ' ' << mix[s].ok;
        out << "; median " << median << "\n";
        out << "tenant sheds counted by service: "
            << fair_service.counters().rejected_tenant.value() << "\n";
        const bool fair_ok = median > 0 && highest <= 2 * median &&
                             2 * lowest >= median && mix[0].shed > 0;
        if (fair_ok) {
          out << "ACCEPTANCE: tenant completions within 2x of median PASS\n";
        } else {
          out << "ACCEPTANCE: tenant completions within 2x of median FAIL\n";
          ok = false;
        }

        // --- Registry snapshot => BENCH_6.json artifact. ---
        io::JsonObject bench;
        bench["experiment"] = io::Json(std::string("E21"));
        bench["sessions"] = io::Json(kSessions);
        bench["requests"] = io::Json(requests);
        bench["requests_per_second"] = io::Json(req_per_s);
        bench["latency_p50_ns"] = io::Json(p50);
        bench["latency_p99_ns"] = io::Json(p99);
        bench["shed"] = io::Json(sheds);
        bench["hardware_threads"] = io::Json(std::uint64_t{hardware_threads});
        bench["baseline_requests_per_second"] = io::Json(baseline_req_per_s);
        bench["speedup_vs_baseline"] = io::Json(speedup);
        io::JsonObject fairness;
        fairness["hog_completed"] = io::Json(mix[0].ok);
        fairness["hog_shed"] = io::Json(mix[0].shed);
        fairness["median_completed"] = io::Json(median);
        fairness["max_completed"] = io::Json(highest);
        fairness["min_completed"] = io::Json(lowest);
        bench["fairness"] = io::Json(std::move(fairness));
        analysis::stamp_bench(bench);
        service.registry().add_source(
            "bench", [b = io::Json(std::move(bench))] { return b; });
        std::ofstream file("BENCH_6.json");
        file << service.registry().snapshot().dump() << "\n";
        out << "metrics snapshot written to BENCH_6.json\n";
      });
  return ok ? 0 : 1;
}
