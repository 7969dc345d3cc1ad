/// Experiment E20 — the rim::svc serving layer under load: N concurrent
/// clients each drive their own session of topology churn through the
/// service (loopback transport, so the protocol cost itself is measured,
/// not the kernel's TCP stack) and report throughput and latency from the
/// service's obs counters. A second phase overloads a deliberately tiny
/// admission gate and verifies excess load is *shed* with explicit
/// "overloaded" responses — never queued. The registry snapshot is
/// written to BENCH_5.json.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "rim/analysis/experiment.hpp"
#include "rim/core/scenario.hpp"
#include "rim/io/json.hpp"
#include "rim/io/table.hpp"
#include "rim/sim/rng.hpp"
#include "rim/sim/workload.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

namespace {

using namespace rim;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSessions = 8;
constexpr std::size_t kBatchesPerSession = 24;
constexpr std::size_t kBatchSize = 64;
constexpr std::size_t kInitialNodes = 256;

double ms_since(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start)
                                 .count()) /
         1000.0;
}

/// The session seed: a grid-ish point cloud chained into one component,
/// expressed as wire mutations.
std::vector<core::Mutation> seed_mutations(std::uint64_t seed) {
  std::vector<core::Mutation> batch;
  batch.reserve(kInitialNodes * 2);
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < kInitialNodes; ++i) {
    batch.push_back(core::Mutation::add_node(
        {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)}));
  }
  for (std::size_t i = 1; i < kInitialNodes; ++i) {
    batch.push_back(core::Mutation::add_edge(
        static_cast<NodeId>(i - 1), static_cast<NodeId>(i)));
  }
  return batch;
}

struct WorkerResult {
  std::string error;            ///< first failure, empty when clean
  std::uint64_t requests = 0;   ///< ok responses this worker saw
  std::uint64_t mutations = 0;  ///< mutations the service applied for it
};

/// One tenant: create a session, seed it, run churn batches with an
/// interference query after each, close. Every response is an implicit
/// protocol check — any error aborts the worker.
void run_tenant(svc::Service& service, std::uint64_t seed,
                WorkerResult& result) {
  svc::LoopbackTransport transport(service);
  svc::Client client(transport);
  // Typed calls (SvcResult<T>): a failure is an SvcError value carrying the
  // decoded wire code, not a bool plus string accessors.
  const svc::SvcResult<std::uint64_t> opened = client.try_create_session();
  if (!opened) {
    result.error = "create_session: " + opened.error().message;
    return;
  }
  const std::uint64_t session = *opened;
  ++result.requests;
  svc::SvcResult<core::BatchResult> applied =
      client.try_apply_batch(session, seed_mutations(seed));
  if (!applied) {
    result.error = "seed apply_batch: " + applied.error().message;
    return;
  }
  ++result.requests;
  result.mutations += applied->applied;

  sim::Rng rng(seed * 7919 + 1);
  sim::WorkloadConfig churn;
  churn.batch_size = kBatchSize;
  std::size_t nodes = kInitialNodes;
  for (std::size_t b = 0; b < kBatchesPerSession; ++b) {
    const std::vector<core::Mutation> batch =
        sim::make_churn_batch(rng, nodes, churn);
    for (const core::Mutation& m : batch) {
      if (m.kind == core::Mutation::Kind::kAddNode) ++nodes;
      if (m.kind == core::Mutation::Kind::kRemoveNode) --nodes;
    }
    applied = client.try_apply_batch(session, batch);
    if (!applied) {
      result.error = "apply_batch: " + applied.error().message;
      return;
    }
    ++result.requests;
    result.mutations += applied->applied;
    const svc::SvcResult<io::Json> interference =
        client.try_query_interference(session);
    if (!interference) {
      result.error = "query_interference: " + interference.error().message;
      return;
    }
    ++result.requests;
  }
  if (const svc::SvcResult<void> closed = client.try_close_session(session);
      !closed) {
    result.error = "close_session: " + closed.error().message;
    return;
  }
  ++result.requests;
}

}  // namespace

int main() {
  bool ok = true;
  analysis::run_experiment(
      {"E20", "Multi-tenant serving layer under churn load",
       "Section 1 (ad-hoc networks serve many independent deployments)",
       "svc sustains >= 8 concurrent sessions of batch churn; admission "
       "control sheds (never queues) load past max_in_flight"},
      std::cout, [&ok](std::ostream& out) {
        // --- Phase 1: throughput across kSessions concurrent tenants. ---
        svc::ServiceConfig config;
        config.limits.max_sessions = kSessions * 2;
        config.limits.max_live_sessions = kSessions * 2;
        config.limits.max_in_flight = kSessions * 2;
        svc::Service service(config);

        std::vector<WorkerResult> results(kSessions);
        std::vector<std::thread> tenants;
        tenants.reserve(kSessions);
        const auto t_load = Clock::now();
        for (std::size_t s = 0; s < kSessions; ++s) {
          tenants.emplace_back([&service, s, &results] {
            run_tenant(service, 1000 + s, results[s]);
          });
        }
        for (std::thread& tenant : tenants) tenant.join();
        const double load_ms = ms_since(t_load);

        std::uint64_t requests = 0;
        std::uint64_t mutations = 0;
        std::size_t clean = 0;
        for (std::size_t s = 0; s < kSessions; ++s) {
          if (results[s].error.empty()) {
            ++clean;
          } else {
            out << "tenant " << s << " FAILED: " << results[s].error << '\n';
          }
          requests += results[s].requests;
          mutations += results[s].mutations;
        }
        const io::Json latency =
            service.frontend_counters().latency_ns.to_json();
        const double p50 = latency.find("p50")->as_number(0.0);
        const double p99 = latency.find("p99")->as_number(0.0);

        io::Table table({"sessions", "requests", "mutations", "wall ms",
                         "req/s", "p50 us", "p99 us"});
        const double req_per_s = load_ms > 0.0
                                     ? double(requests) * 1000.0 / load_ms
                                     : 0.0;
        table.row()
            .cell(static_cast<std::uint64_t>(kSessions))
            .cell(requests)
            .cell(mutations)
            .cell(load_ms, 1)
            .cell(req_per_s, 0)
            .cell(p50 / 1000.0, 1)
            .cell(p99 / 1000.0, 1);
        table.print(out);

        if (clean == kSessions) {
          out << "ACCEPTANCE: concurrent sessions >= 8 PASS\n";
        } else {
          out << "ACCEPTANCE: concurrent sessions >= 8 FAIL (" << clean
              << " of " << kSessions << " tenants clean)\n";
          ok = false;
        }

        // --- Phase 2: overload a tiny gate; excess must be shed. ---
        // 12 pushers of millisecond-scale batch work against a 2-slot
        // gate: most attempts find the gate full and get an immediate
        // "overloaded" answer. Pushers retry the *same* batch until it is
        // admitted (keeping session state consistent), so every shed is
        // an explicit, client-visible refusal — never a queued request.
        svc::ServiceConfig tiny;
        tiny.limits.max_in_flight = 2;
        tiny.limits.max_sessions = 64;
        svc::Service gated(tiny);
        constexpr std::size_t kPushers = 12;
        constexpr std::size_t kGatedBatches = 8;
        std::atomic<std::uint64_t> answered{0};
        std::atomic<std::uint64_t> shed{0};
        std::atomic<std::uint64_t> other{0};
        std::vector<std::thread> pushers;
        pushers.reserve(kPushers);
        for (std::size_t p = 0; p < kPushers; ++p) {
          pushers.emplace_back([&gated, p, &answered, &shed, &other] {
            svc::LoopbackTransport transport(gated);
            svc::Client client(transport);
            // Retries the call until the gate admits it; counts how the
            // service answered each attempt. SvcError::retryable() is the
            // typed form of the old error_code() string comparison.
            const auto insist = [&](auto&& call) -> bool {
              while (true) {
                const auto result = call();
                if (result.has_value()) {
                  answered.fetch_add(1, std::memory_order_relaxed);
                  return true;
                }
                if (!result.error().retryable()) {
                  other.fetch_add(1, std::memory_order_relaxed);
                  return false;
                }
                shed.fetch_add(1, std::memory_order_relaxed);
              }
            };
            std::uint64_t session = 0;
            if (!insist([&]() -> svc::SvcResult<void> {
                  const auto opened = client.try_create_session();
                  if (!opened) return rim::common::Unexpected(opened.error());
                  session = *opened;
                  return {};
                }))
              return;
            if (!insist([&] {
                  return client.try_apply_batch(session,
                                                seed_mutations(500 + p));
                }))
              return;
            sim::Rng rng(p * 31 + 7);
            sim::WorkloadConfig churn;
            churn.batch_size = kBatchSize;
            std::size_t nodes = kInitialNodes;
            for (std::size_t b = 0; b < kGatedBatches; ++b) {
              const std::vector<core::Mutation> batch =
                  sim::make_churn_batch(rng, nodes, churn);
              for (const core::Mutation& m : batch) {
                if (m.kind == core::Mutation::Kind::kAddNode) ++nodes;
                if (m.kind == core::Mutation::Kind::kRemoveNode) --nodes;
              }
              if (!insist([&] {
                    return client.try_apply_batch(session, batch);
                  }))
                return;
            }
          });
        }
        for (std::thread& pusher : pushers) pusher.join();
        const std::uint64_t counted_shed =
            gated.frontend_counters().rejected_overloaded.value();
        out << "overload: " << answered.load() << " answered, " << shed.load()
            << " shed with explicit responses (service counted "
            << counted_shed << "), " << other.load() << " other errors\n";
        // Shed responses must be explicit (client-visible) and counted;
        // nothing may vanish into a queue: every attempt was answered.
        const bool shed_ok = other.load() == 0 &&
                             shed.load() == counted_shed && shed.load() > 0;
        if (shed_ok) {
          out << "ACCEPTANCE: admission shed excess load PASS\n";
        } else {
          out << "ACCEPTANCE: admission shed excess load FAIL\n";
          ok = false;
        }

        // --- Registry snapshot => BENCH_5.json artifact. ---
        io::JsonObject bench;
        bench["experiment"] = io::Json(std::string("E20"));
        bench["sessions"] = io::Json(kSessions);
        bench["requests"] = io::Json(requests);
        bench["requests_per_second"] = io::Json(req_per_s);
        bench["latency_p50_ns"] = io::Json(p50);
        bench["latency_p99_ns"] = io::Json(p99);
        bench["shed"] = io::Json(counted_shed);
        analysis::stamp_bench(bench);
        service.registry().add_source(
            "bench", [b = io::Json(std::move(bench))] { return b; });
        std::ofstream file("BENCH_5.json");
        file << service.registry().snapshot().dump() << "\n";
        out << "metrics snapshot written to BENCH_5.json\n";
      });
  return ok ? 0 : 1;
}
