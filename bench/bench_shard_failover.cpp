/// Experiment E24 — sharded serving with transparent failover: 64 tenants
/// spread by consistent hashing across 4 backend shards behind one
/// rim::shard::Router, replaying the identical interleaved mutation
/// trajectory on two twin clusters. Halfway through, one twin has a whole
/// backend killed mid-run. Acceptance: every remaining command still
/// succeeds, the final per-tenant interference answers are byte-identical
/// (FNV-1a checksummed) to the unkilled twin's, and zero sessions are
/// lost. It also reports the failover time per moved session and the
/// replicated bytes per acked mutation. The router registry snapshot is
/// written to BENCH_9.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "rim/analysis/experiment.hpp"
#include "rim/io/json.hpp"
#include "rim/io/table.hpp"
#include "rim/shard/hash_ring.hpp"
#include "rim/shard/router.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

namespace {

using namespace rim;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBackends = 4;
constexpr std::size_t kTenants = 64;
constexpr std::size_t kRounds = 12;
constexpr std::size_t kKillAtRound = kRounds / 2;
constexpr std::size_t kShipEvery = 4;  // exercises adopt + journal replay

double ms_since(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start)
                                 .count()) /
         1000.0;
}

/// Loopback transport with a kill switch: once tripped every exchange
/// fails like a SIGKILLed peer (kConnectionLost) — the router's exact
/// view of a dead shard (same device as the shard_router tests). It also
/// counts the frame bytes of replicate_session requests it carries.
class KillableTransport final : public svc::Transport {
 public:
  KillableTransport(svc::RequestHandler& handler,
                    std::shared_ptr<std::atomic<bool>> killed,
                    std::shared_ptr<std::atomic<std::uint64_t>> replicated)
      : inner_(handler),
        killed_(std::move(killed)),
        replicated_(std::move(replicated)) {}

  [[nodiscard]] svc::TransportStatus roundtrip(
      std::string_view frame, std::string& response_frame,
      std::string& error) override {
    if (killed_->load()) {
      error = "backend killed";
      return svc::TransportStatus::kConnectionLost;
    }
    if (frame.substr(svc::kFrameHeaderBytes)
            .starts_with(R"({"cmd":"replicate_session")")) {
      replicated_->fetch_add(frame.size());
    }
    return inner_.roundtrip(frame, response_frame, error);
  }

 private:
  svc::LoopbackTransport inner_;
  std::shared_ptr<std::atomic<bool>> killed_;
  std::shared_ptr<std::atomic<std::uint64_t>> replicated_;
};

/// One twin: kBackends in-process Services fronted by a Router.
struct Cluster {
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::shared_ptr<std::atomic<bool>>> killed;
  std::shared_ptr<std::atomic<std::uint64_t>> replicated_bytes =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::unique_ptr<shard::Router> router;
  std::uint64_t requests = 0;
  std::uint64_t acked_mutations = 0;

  Cluster() {
    shard::RouterConfig config;
    config.replication.ship_every = kShipEvery;
    for (std::size_t i = 0; i < kBackends; ++i) {
      svc::ServiceConfig service_config;
      service_config.limits.max_sessions = kTenants * 2;
      service_config.limits.max_live_sessions = kTenants * 2;
      services.push_back(std::make_unique<svc::Service>(service_config));
      killed.push_back(std::make_shared<std::atomic<bool>>(false));
      svc::Service* service = services.back().get();
      auto killed_flag = killed.back();
      config.backends.push_back(
          {"shard-" + std::to_string(i),
           [service, killed_flag,
            bytes = replicated_bytes]() -> std::unique_ptr<svc::Transport> {
             if (killed_flag->load()) return nullptr;
             return std::make_unique<KillableTransport>(*service, killed_flag,
                                                        bytes);
           },
           nullptr});
    }
    router = std::make_unique<shard::Router>(std::move(config));
  }

  std::string handle(const std::string& payload) {
    ++requests;
    return router->handle(payload);
  }

  /// handle() for a mutating command, counted when acked.
  std::string mutate(const std::string& payload) {
    std::string response = handle(payload);
    if (response.find("\"ok\":true") != std::string::npos) ++acked_mutations;
    return response;
  }
};

std::string num(double value) {
  return io::Json(value).dump();
}

/// Deterministic per-tenant trajectory, identical on both twins. Every
/// session grows a chain: seed two nodes plus an edge, then each round
/// appends a node, links it, and nudges an older node — all through one
/// apply_batch so the batch pipeline is on the failover path too.
std::string seed_payload(std::size_t tenant, std::uint64_t session) {
  const double base = 0.01 * static_cast<double>(tenant);
  return R"({"cmd":"apply_batch","id":10,"session":)" +
         std::to_string(session) + R"(,"batch":[{"kind":"add_node","x":)" +
         num(base) + R"(,"y":0.0},{"kind":"add_node","x":)" +
         num(base + 0.8) + R"(,"y":0.1},{"kind":"add_edge","u":0,"v":1}]})";
}

std::string round_payload(std::size_t tenant, std::uint64_t session,
                          std::size_t round) {
  const double x = 0.01 * static_cast<double>(tenant) +
                   0.7 * static_cast<double>(round + 2);
  const double y = 0.05 * static_cast<double>(round % 5);
  const std::size_t tip = round + 1;  // chain tip before this round
  return R"({"cmd":"apply_batch","id":)" + std::to_string(100 + round) +
         R"(,"session":)" + std::to_string(session) +
         R"(,"batch":[{"kind":"add_node","x":)" + num(x) + R"(,"y":)" +
         num(y) + R"(},{"kind":"add_edge","u":)" + std::to_string(tip) +
         R"(,"v":)" + std::to_string(tip + 1) +
         R"(},{"kind":"move_node","v":)" + std::to_string(round % (tip + 1)) +
         R"(,"x":)" + num(x * 0.5) + R"(,"y":)" + num(y + 0.01) + R"(}]})";
}

std::string final_query(std::uint64_t session) {
  return R"({"cmd":"query_interference","id":999,"session":)" +
         std::to_string(session) + "}";
}

bool is_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

}  // namespace

int main() {
  bool ok = true;
  analysis::run_experiment(
      {"E24", "Shard failover under multi-tenant load",
       "Section 1 (robustness: the serving tier must survive node failure)",
       "64 tenants across 4 shards; killing one shard mid-run loses zero "
       "sessions and every final interference checksum matches the "
       "unkilled twin bit for bit"},
      std::cout, [&ok](std::ostream& out) {
        Cluster clean;
        Cluster killed;

        // Same wire session ids on both twins (allocation is deterministic).
        std::vector<std::uint64_t> sessions(kTenants, 0);
        for (std::size_t t = 0; t < kTenants; ++t) {
          const std::string create = R"({"cmd":"create_session","id":1})";
          const std::string clean_response = clean.handle(create);
          const std::string killed_response = killed.handle(create);
          if (!is_ok(clean_response) || clean_response != killed_response) {
            out << "tenant " << t << " create diverged\n";
            ok = false;
            return;
          }
          sessions[t] = t + 1;
          if (!is_ok(killed.mutate(seed_payload(t, sessions[t]))) ||
              !is_ok(clean.mutate(seed_payload(t, sessions[t])))) {
            out << "tenant " << t << " seed failed\n";
            ok = false;
            return;
          }
        }

        // Interleaved rounds: every tenant advances one batch per round so
        // the kill lands mid-trajectory for all tenants at once.
        // Failover time of a moved session: the killed twin's command
        // whose forward was lost, from that forward through the restore to
        // the re-forwarded command's ack.
        const auto t_run = Clock::now();
        std::uint64_t divergent_commands = 0;
        std::vector<double> failover_ms;
        for (std::size_t round = 0; round < kRounds; ++round) {
          if (round == kKillAtRound) killed.killed[0]->store(true);
          for (std::size_t t = 0; t < kTenants; ++t) {
            const std::string payload = round_payload(t, sessions[t], round);
            const std::string clean_response = clean.mutate(payload);
            const std::uint64_t moved_before =
                killed.router->counters().sessions_moved.value();
            const auto t_command = Clock::now();
            const std::string killed_response = killed.mutate(payload);
            if (killed.router->counters().sessions_moved.value() !=
                moved_before) {
              failover_ms.push_back(ms_since(t_command));
            }
            if (!is_ok(killed_response) ||
                clean_response != killed_response) {
              ++divergent_commands;
            }
          }
        }
        const double run_ms = ms_since(t_run);

        // Final checksums: FNV-1a over the full response bytes.
        std::size_t identical = 0;
        for (std::size_t t = 0; t < kTenants; ++t) {
          const std::string clean_response =
              clean.handle(final_query(sessions[t]));
          const std::string killed_response =
              killed.handle(final_query(sessions[t]));
          if (is_ok(killed_response) &&
              shard::fnv1a_bytes(clean_response) ==
                  shard::fnv1a_bytes(killed_response) &&
              clean_response == killed_response) {
            ++identical;
          }
        }

        const shard::RouterCounters& counters = killed.router->counters();
        const std::uint64_t moved = counters.sessions_moved.value();
        const std::uint64_t lost = counters.lost_sessions.value();
        const std::uint64_t requests = clean.requests + killed.requests;
        const double req_per_s =
            run_ms > 0.0 ? double(requests) * 1000.0 / run_ms : 0.0;

        std::sort(failover_ms.begin(), failover_ms.end());
        const double failover_median =
            failover_ms.empty() ? 0.0 : failover_ms[failover_ms.size() / 2];
        const double failover_max =
            failover_ms.empty() ? 0.0 : failover_ms.back();
        const double bytes_per_mutation =
            killed.acked_mutations == 0
                ? 0.0
                : static_cast<double>(killed.replicated_bytes->load()) /
                      static_cast<double>(killed.acked_mutations);

        io::Table table({"tenants", "shards", "rounds", "wall ms", "req/s",
                         "moved", "lost", "identical"});
        table.row()
            .cell(static_cast<std::uint64_t>(kTenants))
            .cell(static_cast<std::uint64_t>(kBackends))
            .cell(static_cast<std::uint64_t>(kRounds))
            .cell(run_ms, 1)
            .cell(req_per_s, 0)
            .cell(moved)
            .cell(lost)
            .cell(identical);
        table.print(out);
        out << "failover per moved session: median " << failover_median
            << " ms, max " << failover_max << " ms over "
            << failover_ms.size() << " sessions\n"
            << "replicated bytes per acked mutation: " << bytes_per_mutation
            << " (" << killed.replicated_bytes->load()
            << " replicate_session bytes / " << killed.acked_mutations
            << " acked mutating commands, killed twin)\n";

        if (identical == kTenants && divergent_commands == 0) {
          out << "ACCEPTANCE: checksum-identical tenants " << identical << "/"
              << kTenants << " PASS\n";
        } else {
          out << "ACCEPTANCE: checksum-identical tenants " << identical << "/"
              << kTenants << " (" << divergent_commands
              << " divergent commands) FAIL\n";
          ok = false;
        }
        if (lost == 0 && moved > 0) {
          out << "ACCEPTANCE: zero lost sessions, " << moved
              << " moved transparently PASS\n";
        } else {
          out << "ACCEPTANCE: zero lost sessions FAIL (" << lost << " lost, "
              << moved << " moved)\n";
          ok = false;
        }

        // --- Registry snapshot => BENCH_9.json artifact. ---
        io::JsonObject bench;
        bench["experiment"] = io::Json(std::string("E24"));
        bench["tenants"] = io::Json(kTenants);
        bench["shards"] = io::Json(kBackends);
        bench["requests"] = io::Json(requests);
        bench["requests_per_second"] = io::Json(req_per_s);
        bench["sessions_moved"] = io::Json(moved);
        bench["sessions_lost"] = io::Json(lost);
        bench["checksum_identical"] = io::Json(identical);
        bench["failover_ms_median"] = io::Json(failover_median);
        bench["failover_ms_max"] = io::Json(failover_max);
        bench["replicated_bytes_per_mutation"] = io::Json(bytes_per_mutation);
        analysis::stamp_bench(bench);
        killed.router->registry().add_source(
            "bench", [b = io::Json(std::move(bench))] { return b; });
        std::ofstream file("BENCH_9.json");
        file << killed.router->registry().snapshot().dump() << "\n";
        out << "metrics snapshot written to BENCH_9.json\n";
      });
  return ok ? 0 : 1;
}
