#include <atomic>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rim/shard/hash_ring.hpp"
#include "rim/shard/router.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

namespace {

using namespace rim;

/// Loopback transport with a kill switch: when tripped, exchanges fail
/// exactly like a SIGKILLed peer (kConnectionLost), without the backend
/// Service object going away — which is precisely the router's view of a
/// dead shard. `drop_response_once` delivers the request but loses the
/// response, modelling a backend that dies *mid-request* (the torn-command
/// case the exactly-once failover contract is about).
class KillableTransport final : public svc::Transport {
 public:
  KillableTransport(svc::RequestHandler& handler,
                    std::shared_ptr<std::atomic<bool>> killed,
                    std::shared_ptr<std::atomic<int>> drop_responses)
      : inner_(handler),
        killed_(std::move(killed)),
        drop_responses_(std::move(drop_responses)) {}

  [[nodiscard]] svc::TransportStatus roundtrip(
      std::string_view frame, std::string& response_frame,
      std::string& error) override {
    if (killed_->load()) {
      error = "backend killed";
      return svc::TransportStatus::kConnectionLost;
    }
    const svc::TransportStatus status =
        inner_.roundtrip(frame, response_frame, error);
    if (status == svc::TransportStatus::kOk && drop_responses_->load() > 0) {
      drop_responses_->fetch_sub(1);
      response_frame.clear();
      error = "connection reset mid-request";
      return svc::TransportStatus::kConnectionLost;
    }
    return status;
  }

 private:
  svc::LoopbackTransport inner_;
  std::shared_ptr<std::atomic<bool>> killed_;
  std::shared_ptr<std::atomic<int>> drop_responses_;
};

/// N in-process backend Services fronted by one Router over killable
/// loopback transports.
struct Cluster {
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::shared_ptr<std::atomic<bool>>> killed;
  std::vector<std::shared_ptr<std::atomic<int>>> drop_responses;
  std::unique_ptr<shard::Router> router;

  explicit Cluster(std::size_t backends, std::size_t ship_every = 1) {
    shard::RouterConfig config;
    for (std::size_t i = 0; i < backends; ++i) {
      services.push_back(std::make_unique<svc::Service>(svc::ServiceConfig{}));
      killed.push_back(std::make_shared<std::atomic<bool>>(false));
      drop_responses.push_back(std::make_shared<std::atomic<int>>(0));
      svc::Service* service = services.back().get();
      auto killed_flag = killed.back();
      auto drop = drop_responses.back();
      config.backends.push_back(
          {"shard-" + std::to_string(i),
           [service, killed_flag, drop]() -> std::unique_ptr<svc::Transport> {
             if (killed_flag->load()) return nullptr;
             return std::make_unique<KillableTransport>(*service, killed_flag,
                                                        drop);
           },
           nullptr});
    }
    config.replication.ship_every = ship_every;
    router = std::make_unique<shard::Router>(std::move(config));
  }

  /// Index of the backend owning wire session \p sid (the ring is a pure
  /// function of the member names, so tests can predict placement).
  [[nodiscard]] std::size_t owner_index(std::uint64_t sid) const {
    shard::HashRing ring(router->config().vnodes);
    for (std::size_t i = 0; i < services.size(); ++i) {
      ring.add("shard-" + std::to_string(i));
    }
    const std::string owner =
        ring.owner(shard::fnv1a_bytes("session:" + std::to_string(sid)));
    return static_cast<std::size_t>(std::stoul(owner.substr(6)));
  }
};

/// Zero the wall-clock timing counters (`*_ns`) before comparing: they are
/// the one part of a response that is a function of the clock, not of the
/// command history, so no two engine instances can agree on them.
std::string scrub_timings(std::string text) {
  static const std::regex kNs("_ns\":[0-9]+");
  return std::regex_replace(text, kNs, "_ns\":0");
}

TEST(ShardRouter, EveryWireCommandIsByteIdenticalToDirectService) {
  svc::ServiceConfig config;
  svc::Service direct(config);
  Cluster cluster(1);

  // One conversation, replayed verbatim against both surfaces. The two
  // sides allocate the same session ids (both start at 1), so every
  // response — results, error envelopes, echoed ids — must match byte
  // for byte modulo scrubbed timing counters (the ISSUE's
  // routing-transparency contract).
  const std::vector<std::string> conversation = {
      R"({"cmd":"ping","id":7})",
      // Both sides run with allow_shutdown=false: the same refusal.
      R"({"cmd":"shutdown","id":34})",
      R"({"cmd":"create_session","id":8})",
      R"({"cmd":"add_node","id":9,"session":1,"x":0.0,"y":0.0})",
      R"({"cmd":"add_node","id":10,"session":1,"x":1.0,"y":0.25})",
      R"({"cmd":"add_node","id":11,"session":1,"x":0.5,"y":0.9})",
      R"({"cmd":"add_edge","id":12,"session":1,"u":0,"v":1})",
      R"({"cmd":"add_edge","id":13,"session":1,"u":1,"v":2})",
      R"({"cmd":"move","id":14,"session":1,"v":2,"x":0.4,"y":0.7})",
      R"({"cmd":"apply_batch","id":15,"session":1,"batch":[)"
      R"({"kind":"add_node","x":2.0,"y":0.1},{"kind":"add_edge","u":2,"v":3}]})",
      R"({"cmd":"assess","id":16,"session":1,"mutations":[)"
      R"({"kind":"add_node","x":0.9,"y":0.9}]})",
      R"({"cmd":"query_interference","id":17,"session":1})",
      R"({"cmd":"query_interference","id":18,"session":1,"v":1})",
      R"({"cmd":"session_stats","id":19,"session":1})",
      R"({"cmd":"snapshot","id":20,"session":1})",
      R"({"cmd":"remove_edge","id":21,"session":1,"u":0,"v":1})",
      R"({"cmd":"remove_node","id":22,"session":1,"v":3})",
      // Error surfaces must match too.
      R"({"cmd":"remove_node","id":23,"session":1,"v":999})",
      R"({"cmd":"move","id":24,"session":1,"v":0})",
      R"({"cmd":"frobnicate","id":25,"session":1})",
      R"({"cmd":"add_node","id":26,"x":3.0,"y":3.0})",
      R"({"cmd":"add_node","id":27,"session":"one","x":3.0,"y":3.0})",
      R"({"cmd":"add_node","id":28,"session":444,"x":3.0,"y":3.0})",
      R"({"id":29})",
      R"({"cmd":42,"id":5})",
      R"([1,2,3])",
      R"({"cmd":"close_session","id":30})",
      R"({"cmd":"close_session","id":31,"session":444})",
      R"({"cmd":"close_session","id":32,"session":1})",
      R"({"cmd":"query_interference","id":33,"session":1})",
  };
  for (const std::string& payload : conversation) {
    EXPECT_EQ(scrub_timings(direct.handle(payload)),
              scrub_timings(cluster.router->handle(payload)))
        << "diverged on: " << payload;
  }
  // Unparseable payloads too (bad_frame).
  EXPECT_EQ(direct.handle("{nope"), cluster.router->handle("{nope"));

  // The front door counted the conversation identically.
  const svc::FrontendCounters& direct_counters = direct.frontend_counters();
  const svc::FrontendCounters& router_counters =
      cluster.router->frontend_counters();
  EXPECT_EQ(direct_counters.requests.value(), conversation.size() + 1);
  EXPECT_EQ(direct_counters.requests.value(), router_counters.requests.value());
  EXPECT_EQ(direct_counters.ok.value(), router_counters.ok.value());
  EXPECT_EQ(direct_counters.errors.value(), router_counters.errors.value());
  EXPECT_EQ(direct_counters.rejected_bad_frame.value(), 1u);
  EXPECT_EQ(direct_counters.rejected_bad_frame.value(),
            router_counters.rejected_bad_frame.value());
}

TEST(ShardRouter, OverloadedEnvelopeIsByteIdenticalToDirectService) {
  svc::ServiceConfig service_config;
  service_config.limits.max_in_flight = 1;
  svc::Service direct(service_config);
  shard::RouterConfig router_config;
  router_config.max_in_flight = 1;
  shard::Router router(std::move(router_config));

  // Hold the only admission slot on each side: every handle() is shed.
  const svc::RequestHandler::Ticket direct_ticket = direct.try_admit();
  const svc::RequestHandler::Ticket router_ticket = router.try_admit();
  ASSERT_TRUE(direct_ticket);
  ASSERT_TRUE(router_ticket);
  for (const std::string payload :
       {R"({"cmd":"ping","id":41})", R"({"cmd":"create_session","id":42})",
        "{nope"}) {
    const std::string shed = direct.handle(payload);
    EXPECT_NE(shed.find("\"code\":\"overloaded\""), std::string::npos)
        << shed;
    EXPECT_EQ(shed, router.handle(payload)) << "diverged on: " << payload;
  }
  EXPECT_EQ(direct.frontend_counters().rejected_overloaded.value(), 3u);
  EXPECT_EQ(router.frontend_counters().rejected_overloaded.value(), 3u);
}

TEST(ShardRouter, SnapshotRoundtripsThroughRouterByteExact) {
  svc::ServiceConfig config;
  svc::Service direct(config);
  Cluster cluster(1);
  const std::vector<std::string> setup = {
      R"({"cmd":"create_session","id":1})",
      R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})",
      R"({"cmd":"add_node","id":3,"session":1,"x":0.6,"y":0.0})",
      R"({"cmd":"add_edge","id":4,"session":1,"u":0,"v":1})",
  };
  for (const std::string& payload : setup) {
    ASSERT_EQ(direct.handle(payload), cluster.router->handle(payload));
  }
  const std::string snapshot_response =
      cluster.router->handle(R"({"cmd":"snapshot","id":5,"session":1})");
  // Restore the captured snapshot through the router and re-read it: the
  // document must survive the route bit-identically (checksummed).
  io::Json document;
  std::string error;
  ASSERT_TRUE(io::Json::parse(snapshot_response, document, error)) << error;
  io::JsonObject restore;
  restore["cmd"] = io::Json("restore");
  restore["id"] = io::Json(std::uint64_t{6});
  restore["session"] = io::Json(std::uint64_t{1});
  restore["snapshot"] = *document.find("result")->find("snapshot");
  const std::string restore_payload = io::Json(std::move(restore)).dump();
  EXPECT_EQ(direct.handle(restore_payload),
            cluster.router->handle(restore_payload));
  EXPECT_EQ(direct.handle(R"({"cmd":"snapshot","id":7,"session":1})"),
            cluster.router->handle(R"({"cmd":"snapshot","id":7,"session":1})"));
}

TEST(ShardRouter, ReplicationShipsAtCadenceAndAccountsLag) {
  Cluster cluster(2, /*ship_every=*/2);
  ASSERT_NE(cluster.router->handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  const std::size_t owner = cluster.owner_index(1);
  const std::size_t peer = 1 - owner;

  // First mutating command: journaled, below the cadence — nothing ships.
  ASSERT_NE(cluster.router
                ->handle(R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(cluster.router->replicator().counters().shipped.value(), 0u);
  EXPECT_EQ(cluster.services[peer]->replicas().size(), 0u);

  // Second: cadence reached — snapshot ships to the peer shard.
  ASSERT_NE(cluster.router
                ->handle(R"({"cmd":"add_node","id":3,"session":1,"x":1.0,"y":0.0})")
                .find("\"ok\":true"),
            std::string::npos);
  const shard::ReplicatorCounters& counters =
      cluster.router->replicator().counters();
  EXPECT_EQ(counters.shipped.value(), 1u);
  EXPECT_EQ(counters.lag_ns.count(), 1u);
  EXPECT_GT(counters.lag_ns.sum(), 0u);
  EXPECT_EQ(cluster.services[peer]->replicas().size(), 1u);
  EXPECT_EQ(cluster.services[owner]->replicas().size(), 0u);

  // Non-mutating commands never journal or ship.
  ASSERT_NE(cluster.router
                ->handle(R"({"cmd":"query_interference","id":4,"session":1})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(counters.shipped.value(), 1u);

  // Close drops the replica at the peer.
  ASSERT_NE(cluster.router->handle(R"({"cmd":"close_session","id":5,"session":1})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(cluster.services[peer]->replicas().size(), 0u);
}

TEST(ShardRouter, ReplicationCommandsAreRejectedAtTheFrontDoor) {
  Cluster cluster(2);
  for (const char* cmd : {"replicate_session", "adopt_session",
                          "drop_replica"}) {
    const std::string response = cluster.router->handle(
        std::string(R"({"cmd":")") + cmd + R"(","id":1,"origin":1})");
    EXPECT_NE(response.find("\"code\":\"bad_request\""), std::string::npos)
        << cmd;
  }
}

TEST(ShardRouter, HealthProbesWalkTheBackoffScheduleDeterministically) {
  Cluster cluster(2);
  const shard::BackoffPolicy& policy =
      cluster.router->config().health_backoff;
  ASSERT_EQ(policy.max_attempts, 4u);

  // Healthy sweep keeps both backends up.
  cluster.router->health_sweep(1000);
  EXPECT_EQ(cluster.router->backend_state("shard-0"),
            shard::BackendState::kUp);
  EXPECT_EQ(cluster.router->backend_state("shard-1"),
            shard::BackendState::kUp);

  // Kill shard-0 and probe along the injected clock: each due probe fails
  // and pushes the next deadline out by the deterministic schedule until
  // max_attempts declares the backend down.
  cluster.killed[0]->store(true);
  std::uint64_t now = 2000;
  cluster.router->health_sweep(now);  // failure 1 -> suspect
  EXPECT_EQ(cluster.router->backend_state("shard-0"),
            shard::BackendState::kSuspect);
  EXPECT_EQ(cluster.router->backend_state("shard-1"),
            shard::BackendState::kUp);
  for (std::size_t failure = 1; failure < policy.max_attempts; ++failure) {
    const std::uint64_t deadline = now + policy.delay_ns(failure);
    // Probing before the deadline is a no-op: the schedule gates retries.
    cluster.router->health_sweep(deadline - 1);
    EXPECT_EQ(cluster.router->backend_state("shard-0"),
              shard::BackendState::kSuspect)
        << failure;
    cluster.router->health_sweep(deadline);
    now = deadline;
  }
  EXPECT_EQ(cluster.router->backend_state("shard-0"),
            shard::BackendState::kDown);

  // A restarted backend rejoins on its next due probe.
  cluster.killed[0]->store(false);
  cluster.router->health_sweep(now + policy.delay_ns(policy.max_attempts));
  EXPECT_EQ(cluster.router->backend_state("shard-0"),
            shard::BackendState::kUp);
}

TEST(ShardRouter, CountersAndRegistrySurfaceRouting) {
  Cluster cluster(2);
  ASSERT_NE(cluster.router->handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  ASSERT_NE(cluster.router
                ->handle(R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})")
                .find("\"ok\":true"),
            std::string::npos);
  const shard::RouterCounters& counters = cluster.router->counters();
  EXPECT_GE(cluster.router->frontend_counters().requests.value(), 2u);
  EXPECT_GE(counters.routed.value(), 2u);
  EXPECT_EQ(counters.lost_sessions.value(), 0u);
  EXPECT_EQ(cluster.router->session_count(), 1u);

  const std::string metrics =
      cluster.router->handle(R"({"cmd":"metrics","id":3})");
  EXPECT_NE(metrics.find("\"shard.router\""), std::string::npos);
  EXPECT_NE(metrics.find("\"shard.backend.shard-0\""), std::string::npos);
  EXPECT_NE(metrics.find("\"shard.backend.shard-1\""), std::string::npos);

  const std::string status =
      cluster.router->handle(R"({"cmd":"shard_status","id":4})");
  EXPECT_NE(status.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(status.find("\"state\":\"up\""), std::string::npos);
  EXPECT_NE(status.find("\"sessions\":1"), std::string::npos);
}

}  // namespace
