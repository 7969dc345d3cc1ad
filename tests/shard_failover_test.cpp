#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/shard/hash_ring.hpp"
#include "rim/shard/router.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

namespace {

using namespace rim;

/// See shard_router_test.cpp: loopback with a SIGKILL switch plus a
/// deliver-then-drop-response mode for torn-command coverage.
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

struct Cluster {
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::shared_ptr<std::atomic<bool>>> killed;
  std::vector<std::shared_ptr<std::atomic<int>>> drop_responses;
  std::unique_ptr<shard::Router> router;

  explicit Cluster(std::size_t backends, std::size_t ship_every = 1,
                   std::size_t max_journal = 4096,
                   std::uint64_t health_interval_ms = 200) {
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
    config.replication.max_journal = max_journal;
    config.health_interval_ms = health_interval_ms;
    router = std::make_unique<shard::Router>(std::move(config));
  }

  [[nodiscard]] std::size_t owner_index(std::uint64_t sid) const {
    shard::HashRing ring(router->config().vnodes);
    for (std::size_t i = 0; i < services.size(); ++i) {
      ring.add("shard-" + std::to_string(i));
    }
    const std::string owner =
        ring.owner(shard::fnv1a_bytes("session:" + std::to_string(sid)));
    return static_cast<std::size_t>(std::stoul(owner.substr(6)));
  }

  [[nodiscard]] std::string handle(const std::string& payload) {
    return router->handle(payload);
  }
};

/// The deterministic per-session conversation both twins replay. Split at
/// \p kill_after: the killed twin trips the owner's kill switch after that
/// many mutating commands.
std::vector<std::string> session_script() {
  return {
      R"({"cmd":"add_node","id":100,"session":1,"x":0.0,"y":0.0})",
      R"({"cmd":"add_node","id":101,"session":1,"x":1.0,"y":0.1})",
      R"({"cmd":"add_node","id":102,"session":1,"x":0.4,"y":0.8})",
      R"({"cmd":"add_edge","id":103,"session":1,"u":0,"v":1})",
      R"({"cmd":"add_edge","id":104,"session":1,"u":1,"v":2})",
      R"({"cmd":"apply_batch","id":105,"session":1,"batch":[)"
      R"({"kind":"add_node","x":1.8,"y":0.4},{"kind":"add_edge","u":2,"v":3},)"
      R"({"kind":"move_node","v":0,"x":0.1,"y":0.05}]})",
      R"({"cmd":"move","id":106,"session":1,"v":1,"x":1.1,"y":0.2})",
      R"({"cmd":"remove_edge","id":107,"session":1,"u":0,"v":1})",
      R"({"cmd":"add_edge","id":108,"session":1,"u":0,"v":2})",
  };
}

const char* kFinalQuery = R"({"cmd":"query_interference","id":200,"session":1})";
const char* kFinalStats = R"({"cmd":"session_stats","id":201,"session":1})";

/// The state-describing slice of a session_stats response: node and edge
/// counts, up to but excluding the engine's private telemetry ("stats").
/// Telemetry legitimately differs between twins — the adopted engine's
/// counter history records restores where the clean one records snapshot
/// ships — so checksum identity is asserted over topology, not telemetry.
std::string topology_view(const std::string& response) {
  const std::size_t begin = response.find("\"result\":");
  const std::size_t end = response.find(",\"stats\"");
  if (begin == std::string::npos || end == std::string::npos) return response;
  return response.substr(begin, end - begin);
}

TEST(ShardFailover, KilledOwnerRestoresOnPeerChecksumIdentical) {
  // Twin A runs clean; twin B's session owner is SIGKILLed mid-script.
  // After the kill every remaining command must still succeed (transparent
  // failover), and the final interference answers must be byte-identical —
  // the restored state is indistinguishable from never having failed.
  for (const std::size_t kill_after : {2u, 5u, 7u}) {
    Cluster clean(2, /*ship_every=*/2);
    Cluster killed(2, /*ship_every=*/2);
    ASSERT_NE(clean.handle(R"({"cmd":"create_session","id":1})")
                  .find("\"ok\":true"),
              std::string::npos);
    ASSERT_NE(killed.handle(R"({"cmd":"create_session","id":1})")
                  .find("\"ok\":true"),
              std::string::npos);
    const std::size_t owner = killed.owner_index(1);
    const std::vector<std::string> script = session_script();
    for (std::size_t i = 0; i < script.size(); ++i) {
      const std::string clean_response = clean.handle(script[i]);
      ASSERT_NE(clean_response.find("\"ok\":true"), std::string::npos);
      if (i == kill_after) killed.killed[owner]->store(true);
      const std::string killed_response = killed.handle(script[i]);
      // Responses stay identical command-by-command, *through* the kill.
      EXPECT_EQ(clean_response, killed_response)
          << "kill_after=" << kill_after << " diverged at: " << script[i];
    }
    EXPECT_EQ(clean.handle(kFinalQuery), killed.handle(kFinalQuery))
        << "kill_after=" << kill_after;
    const std::string clean_stats = clean.handle(kFinalStats);
    const std::string killed_stats = killed.handle(kFinalStats);
    ASSERT_NE(killed_stats.find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(topology_view(clean_stats), topology_view(killed_stats))
        << "kill_after=" << kill_after;
    EXPECT_EQ(killed.router->counters().lost_sessions.value(), 0u);
    EXPECT_EQ(killed.router->counters().sessions_moved.value(), 1u);
    EXPECT_GE(killed.router->replicator().counters().adoptions.value(), 1u);
    EXPECT_EQ(clean.router->counters().sessions_moved.value(), 0u);
  }
}

TEST(ShardFailover, TornCommandAppliesExactlyOnce) {
  // The owner applies a mutation but dies before answering. The command
  // was never acked, hence never journaled: failover restores acked state
  // on the peer and the router re-forwards the torn command exactly once.
  Cluster clean(2, /*ship_every=*/1);
  Cluster torn(2, /*ship_every=*/1);
  for (Cluster* cluster : {&clean, &torn}) {
    ASSERT_NE(cluster->handle(R"({"cmd":"create_session","id":1})")
                  .find("\"ok\":true"),
              std::string::npos);
    ASSERT_NE(
        cluster->handle(
            R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})")
            .find("\"ok\":true"),
        std::string::npos);
    ASSERT_NE(
        cluster->handle(
            R"({"cmd":"add_node","id":3,"session":1,"x":0.7,"y":0.0})")
            .find("\"ok\":true"),
        std::string::npos);
  }
  const std::size_t owner = torn.owner_index(1);
  torn.drop_responses[owner]->store(1);
  const char* tear = R"({"cmd":"add_edge","id":4,"session":1,"u":0,"v":1})";
  EXPECT_EQ(clean.handle(tear), torn.handle(tear));
  EXPECT_EQ(clean.handle(kFinalQuery), torn.handle(kFinalQuery));
  EXPECT_EQ(torn.router->counters().sessions_moved.value(), 1u);
  EXPECT_EQ(torn.router->counters().lost_sessions.value(), 0u);
}

TEST(ShardFailover, SessionWithNoPeerIsLostWithTypedError) {
  Cluster cluster(1);
  ASSERT_NE(cluster.handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  ASSERT_NE(cluster.handle(
                    R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})")
                .find("\"ok\":true"),
            std::string::npos);
  // Ship a snapshot... nowhere: single backend, so the replica never
  // left. Kill the only backend: the session is unrecoverable and the
  // router must say so with the typed connection-lost code — never hang,
  // never fabricate.
  cluster.killed[0]->store(true);
  const std::string response = cluster.handle(
      R"({"cmd":"add_node","id":3,"session":1,"x":1.0,"y":0.0})");
  EXPECT_NE(response.find("\"code\":\"connection_lost\""), std::string::npos);
  EXPECT_NE(response.find("unrecoverable"), std::string::npos);
  EXPECT_EQ(cluster.router->counters().lost_sessions.value(), 1u);
  // The loss is sticky and idempotent: the session stays lost, the
  // counter does not double-count.
  const std::string again = cluster.handle(
      R"({"cmd":"query_interference","id":4,"session":1})");
  EXPECT_NE(again.find("\"code\":\"connection_lost\""), std::string::npos);
  EXPECT_NE(again.find("was lost in a failover"), std::string::npos);
  EXPECT_EQ(cluster.router->counters().lost_sessions.value(), 1u);
}

TEST(ShardFailover, NeverShippedSessionRebuildsFromFullJournal) {
  // ship_every large enough that nothing ships before the kill: failover
  // must rebuild the session on a fresh backend by replaying the entire
  // journal from create.
  Cluster clean(2, /*ship_every=*/100);
  Cluster killed(2, /*ship_every=*/100);
  for (Cluster* cluster : {&clean, &killed}) {
    ASSERT_NE(cluster->handle(R"({"cmd":"create_session","id":1})")
                  .find("\"ok\":true"),
              std::string::npos);
  }
  const std::vector<std::string> script = session_script();
  for (const std::string& payload : script) {
    ASSERT_EQ(clean.handle(payload), killed.handle(payload));
  }
  const std::size_t owner = killed.owner_index(1);
  killed.killed[owner]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), killed.handle(kFinalQuery));
  const shard::ReplicatorCounters& counters =
      killed.router->replicator().counters();
  EXPECT_EQ(counters.adoptions.value(), 1u);
  EXPECT_EQ(counters.replays.value(), script.size());
  EXPECT_EQ(killed.router->counters().lost_sessions.value(), 0u);
}

TEST(ShardFailover, TornReplicateResponseDoesNotWedgeReplication) {
  // The peer stores a shipped snapshot but the response is torn: the
  // router must not wedge retrying the same "stale" seq forever — the
  // next ship uses a fresh attempt seq and replication converges.
  Cluster clean(2, /*ship_every=*/1);
  Cluster torn(2, /*ship_every=*/1);
  for (Cluster* cluster : {&clean, &torn}) {
    ASSERT_NE(cluster->handle(R"({"cmd":"create_session","id":1})")
                  .find("\"ok\":true"),
              std::string::npos);
  }
  const char* m1 = R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})";
  EXPECT_EQ(clean.handle(m1), torn.handle(m1));
  const std::size_t owner = torn.owner_index(1);
  const std::size_t peer = 1 - owner;
  torn.drop_responses[peer]->store(1);
  const char* m2 = R"({"cmd":"add_node","id":3,"session":1,"x":1.0,"y":0.0})";
  // The client response is unaffected (the mutation was acked by the
  // owner); only the background replicate exchange tears.
  EXPECT_EQ(clean.handle(m2), torn.handle(m2));
  const shard::ReplicatorCounters& counters = torn.router->replicator().counters();
  EXPECT_EQ(counters.ship_failures.value(), 1u);
  EXPECT_EQ(counters.shipped.value(), 1u);
  // ...but the snapshot DID land at the peer.
  EXPECT_EQ(torn.services[peer]->replicas().size(), 1u);

  // The torn exchange marked the peer down; a probe revives it.
  torn.router->health_sweep(obs::now_ns());
  EXPECT_EQ(torn.router->backend_state("shard-" + std::to_string(peer)),
            shard::BackendState::kUp);

  // Next mutation re-ships at a fresh seq: accepted, not "stale".
  const char* m3 = R"({"cmd":"add_node","id":4,"session":1,"x":0.5,"y":0.9})";
  EXPECT_EQ(clean.handle(m3), torn.handle(m3));
  EXPECT_EQ(counters.shipped.value(), 2u);
  EXPECT_EQ(counters.ship_failures.value(), 1u);

  // And the replicated state is the real one: kill the owner, answers
  // stay checksum-identical to the clean twin.
  torn.killed[owner]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), torn.handle(kFinalQuery));
  EXPECT_EQ(torn.router->counters().lost_sessions.value(), 0u);
}

TEST(ShardFailover, TornReplicateThenFailoverAppliesJournalOnce) {
  // A torn-but-landed replicate followed by owner death: the adopted
  // replica already contains the journaled mutation, so the restore must
  // reconcile on the adopted seq and skip the replay — not apply it
  // twice.
  Cluster clean(2, /*ship_every=*/1);
  Cluster torn(2, /*ship_every=*/1);
  for (Cluster* cluster : {&clean, &torn}) {
    ASSERT_NE(cluster->handle(R"({"cmd":"create_session","id":1})")
                  .find("\"ok\":true"),
              std::string::npos);
  }
  const char* m1 = R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})";
  EXPECT_EQ(clean.handle(m1), torn.handle(m1));
  const std::size_t owner = torn.owner_index(1);
  const std::size_t peer = 1 - owner;
  torn.drop_responses[peer]->store(1);
  const char* m2 = R"({"cmd":"add_node","id":3,"session":1,"x":0.7,"y":0.0})";
  EXPECT_EQ(clean.handle(m2), torn.handle(m2));
  torn.router->health_sweep(obs::now_ns());
  torn.killed[owner]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), torn.handle(kFinalQuery));
  const std::string clean_stats = clean.handle(kFinalStats);
  const std::string torn_stats = torn.handle(kFinalStats);
  EXPECT_EQ(topology_view(clean_stats), topology_view(torn_stats));
  // The journaled copy of m2 was covered by the adopted snapshot.
  EXPECT_EQ(torn.router->replicator().counters().replays.value(), 0u);
  EXPECT_EQ(torn.router->counters().lost_sessions.value(), 0u);
  EXPECT_EQ(torn.router->counters().sessions_moved.value(), 1u);
}

TEST(ShardFailover, TruncatedJournalIsAnHonestLoss) {
  // Nothing ever ships (huge cadence) and the journal overruns
  // max_journal: replay would reconstruct partial state, so failover
  // must report the session lost with the typed error — never restore
  // silently wrong state.
  Cluster cluster(2, /*ship_every=*/100, /*max_journal=*/4);
  ASSERT_NE(cluster.handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  for (int i = 0; i < 6; ++i) {
    const std::string payload =
        R"({"cmd":"add_node","id":)" + std::to_string(10 + i) +
        R"(,"session":1,"x":)" + std::to_string(0.1 * i) + R"(,"y":0.2})";
    ASSERT_NE(cluster.handle(payload).find("\"ok\":true"), std::string::npos);
  }
  EXPECT_GE(cluster.router->replicator().counters().journal_truncated.value(),
            1u);
  const std::size_t owner = cluster.owner_index(1);
  cluster.killed[owner]->store(true);
  const std::string response = cluster.handle(kFinalQuery);
  EXPECT_NE(response.find("\"code\":\"connection_lost\""), std::string::npos);
  EXPECT_NE(response.find("truncated"), std::string::npos);
  EXPECT_EQ(cluster.router->counters().lost_sessions.value(), 1u);
}

TEST(ShardFailover, TruncationHealsOnNextSuccessfulShip) {
  // The journal overruns max_journal before the cadence ships, but the
  // eventual ship's snapshot is full state: the truncation is healed and
  // a later failover restores checksum-identical state.
  Cluster clean(2, /*ship_every=*/6, /*max_journal=*/4);
  Cluster killed(2, /*ship_every=*/6, /*max_journal=*/4);
  for (Cluster* cluster : {&clean, &killed}) {
    ASSERT_NE(cluster->handle(R"({"cmd":"create_session","id":1})")
                  .find("\"ok\":true"),
              std::string::npos);
  }
  for (const std::string& payload : session_script()) {
    ASSERT_EQ(clean.handle(payload), killed.handle(payload));
  }
  EXPECT_GE(killed.router->replicator().counters().journal_truncated.value(),
            1u);
  EXPECT_EQ(killed.router->replicator().counters().shipped.value(), 1u);
  const std::size_t owner = killed.owner_index(1);
  killed.killed[owner]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), killed.handle(kFinalQuery));
  EXPECT_EQ(killed.router->counters().lost_sessions.value(), 0u);
  EXPECT_EQ(killed.router->counters().sessions_moved.value(), 1u);
}

/// An apply_batch adding \p count nodes along a line. At 200 nodes it
/// outweighs the 4 KiB an empty base counts as in the compaction rule, so
/// its round ships a snapshot and the single edits after it are appended.
std::string seed_batch(std::size_t count) {
  std::string batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch += std::string(i == 0 ? "" : ",") + R"({"kind":"add_node","x":)" +
             std::to_string(0.3 * static_cast<double>(i)) + R"(,"y":0.5})";
  }
  return R"({"cmd":"apply_batch","id":10,"session":1,"batch":[)" + batch +
         "]}";
}

std::string add_node(std::size_t id, double x, double y) {
  return R"({"cmd":"add_node","id":)" + std::to_string(id) +
         R"(,"session":1,"x":)" + std::to_string(x) + R"(,"y":)" +
         std::to_string(y) + "}";
}

bool is_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// Size of session 1's snapshot document as the router returns it.
std::size_t snapshot_size(Cluster& cluster) {
  io::Json response;
  std::string error;
  EXPECT_TRUE(io::Json::parse(
      cluster.handle(R"({"cmd":"snapshot","id":50,"session":1})"), response,
      error));
  const io::Json* result = response.find("result");
  const io::Json* snapshot =
      result != nullptr ? result->find("snapshot") : nullptr;
  return snapshot != nullptr ? snapshot->dump().size() : 0;
}

TEST(ShardFailover, TornAppendRetriedThenFailoverAppliesEachMutationOnce) {
  // An append lands at the peer but its response is torn. The retry
  // resends it with the next mutation; the peer skips the entry it holds.
  // A failover then promotes a replica with every mutation exactly once.
  Cluster clean(2, /*ship_every=*/1);
  Cluster torn(2, /*ship_every=*/1);
  const std::vector<std::string> before = {
      R"({"cmd":"create_session","id":1})", seed_batch(200),
      add_node(2, 1.0, 1.0)};
  for (const std::string& payload : before) {
    ASSERT_TRUE(is_ok(clean.handle(payload)));
  }
  for (const std::string& payload : before) {
    ASSERT_TRUE(is_ok(torn.handle(payload)));
  }
  const std::size_t owner = torn.owner_index(1);
  const std::size_t peer = 1 - owner;
  const shard::ReplicatorCounters& counters =
      torn.router->replicator().counters();
  EXPECT_EQ(counters.appends.value(), 1u);
  torn.drop_responses[peer]->store(1);
  const std::string m2 = add_node(3, 2.0, 1.0);
  EXPECT_EQ(clean.handle(m2), torn.handle(m2));
  EXPECT_EQ(counters.ship_failures.value(), 1u);
  EXPECT_EQ(torn.services[peer]->replicas().counters().appended.value(), 2u);

  torn.router->health_sweep(obs::now_ns());
  const std::string m3 = add_node(4, 3.0, 1.0);
  EXPECT_EQ(clean.handle(m3), torn.handle(m3));
  EXPECT_EQ(counters.appends.value(), 2u);
  // m2 arrived twice and was stored once.
  EXPECT_EQ(torn.services[peer]->replicas().counters().appended.value(), 3u);

  torn.killed[owner]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), torn.handle(kFinalQuery));
  EXPECT_EQ(topology_view(clean.handle(kFinalStats)),
            topology_view(torn.handle(kFinalStats)));
  EXPECT_EQ(counters.replays.value(), 0u);
  EXPECT_EQ(torn.router->counters().sessions_moved.value(), 1u);
  EXPECT_EQ(torn.router->counters().lost_sessions.value(), 0u);
}

TEST(ShardFailover, RefusedGapAppendBootstrapsASnapshot) {
  // The peer lost the replica it confirmed (a restart, say): the next
  // append would skip mutations, so the peer refuses it with a typed gap
  // error and the router ships a snapshot in the same round.
  Cluster clean(2, /*ship_every=*/1);
  Cluster gap(2, /*ship_every=*/1);
  const std::vector<std::string> script = {
      R"({"cmd":"create_session","id":1})", seed_batch(200),
      add_node(2, 1.0, 1.0), add_node(3, 2.0, 1.0)};
  const std::size_t peer = 1 - gap.owner_index(1);
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (i == 3) {
      EXPECT_TRUE(gap.services[peer]->replicas().drop(1));
    }
    EXPECT_EQ(clean.handle(script[i]), gap.handle(script[i]));
  }
  const shard::ReplicatorCounters& counters =
      gap.router->replicator().counters();
  EXPECT_EQ(counters.shipped.value(), 3u);
  EXPECT_EQ(counters.appends.value(), 1u);
  EXPECT_EQ(counters.ship_failures.value(), 0u);
  const svc::ReplicaStoreCounters& store =
      gap.services[peer]->replicas().counters();
  EXPECT_EQ(store.rejected.value(), 1u);
  EXPECT_EQ(store.stored.value(), 2u);

  gap.killed[gap.owner_index(1)]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), gap.handle(kFinalQuery));
  EXPECT_EQ(gap.router->counters().lost_sessions.value(), 0u);
}

TEST(ShardFailover, PeerChangeBootstrapsTheNewPeer) {
  // The peer dies while the owner lives: the next round picks another
  // peer, which holds nothing, so it gets a snapshot before any append.
  Cluster clean(3, /*ship_every=*/1);
  Cluster moved(3, /*ship_every=*/1);
  const std::size_t owner = moved.owner_index(1);
  std::size_t first_peer = 0;
  std::vector<std::string> script = {R"({"cmd":"create_session","id":1})",
                                     seed_batch(200), add_node(2, 1.0, 1.0)};
  for (std::size_t i = 0; i < 5; ++i) {
    script.push_back(add_node(3 + i, 2.0 + static_cast<double>(i), 1.5));
  }
  const shard::ReplicatorCounters& counters =
      moved.router->replicator().counters();
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (i == 3) {
      while (first_peer == owner ||
             moved.services[first_peer]->replicas().size() == 0) {
        ++first_peer;
      }
      EXPECT_EQ(counters.appends.value(), 1u);
      moved.killed[first_peer]->store(true);
    }
    EXPECT_EQ(clean.handle(script[i]), moved.handle(script[i]));
  }
  const std::size_t new_peer = 3 - owner - first_peer;
  const svc::ReplicaStoreCounters& store =
      moved.services[new_peer]->replicas().counters();
  // Mutation 3's round failed on the dead peer; mutation 4's bootstrapped
  // the new one with a snapshot (no append it would refuse as a gap) and
  // 5..7 were appended to it.
  EXPECT_EQ(counters.ship_failures.value(), 1u);
  EXPECT_EQ(store.rejected.value(), 0u);
  EXPECT_EQ(store.stored.value(), 1u);
  EXPECT_EQ(store.appended.value(), 3u);
  EXPECT_EQ(counters.appends.value(), 4u);

  moved.killed[owner]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), moved.handle(kFinalQuery));
  EXPECT_EQ(topology_view(clean.handle(kFinalStats)),
            topology_view(moved.handle(kFinalStats)));
  EXPECT_EQ(moved.router->counters().lost_sessions.value(), 0u);
}

TEST(ShardFailover, RestoreLargerThanTheSnapshotCompactsAtOnce) {
  // A restore payload bigger than the last snapshot would put the log
  // over the size rule by itself, so its round ships a snapshot instead.
  svc::Service donor{svc::ServiceConfig{}};
  ASSERT_TRUE(is_ok(donor.handle(R"({"cmd":"create_session","id":1})")));
  ASSERT_TRUE(is_ok(donor.handle(seed_batch(600))));
  io::Json donor_snapshot;
  std::string error;
  ASSERT_TRUE(io::Json::parse(
      donor.handle(R"({"cmd":"snapshot","id":2,"session":1})"),
      donor_snapshot, error));
  io::JsonObject restore;
  restore["cmd"] = io::Json("restore");
  restore["id"] = io::Json(std::uint64_t{20});
  restore["session"] = io::Json(std::uint64_t{1});
  restore["snapshot"] = *donor_snapshot.find("result")->find("snapshot");
  const std::string restore_payload = io::Json(std::move(restore)).dump();

  Cluster cluster(2, /*ship_every=*/1);
  for (const std::string& payload :
       {std::string(R"({"cmd":"create_session","id":1})"), seed_batch(200),
        add_node(2, 1.0, 1.0)}) {
    ASSERT_TRUE(is_ok(cluster.handle(payload)));
  }
  const std::size_t peer = 1 - cluster.owner_index(1);
  const shard::ReplicatorCounters& counters =
      cluster.router->replicator().counters();
  ASSERT_EQ(counters.appends.value(), 1u);
  ASSERT_TRUE(is_ok(cluster.handle(restore_payload)));
  EXPECT_EQ(counters.appends.value(), 1u);
  EXPECT_EQ(counters.shipped.value(), 3u);
  svc::ReplicaStore::Replica replica;
  ASSERT_TRUE(cluster.services[peer]->replicas().take(1, replica));
  EXPECT_TRUE(replica.log.empty());
  EXPECT_EQ(replica.seq, 3u);
  EXPECT_EQ(replica.snapshot.node_count(), 600u);
}

TEST(ShardFailover, ReplicaStaysWithinTwiceTheSnapshotOver1000Mutations) {
  // The compaction rule bounds the peer: base plus log never reaches
  // twice the session's snapshot, however long the session runs.
  Cluster clean(2, /*ship_every=*/1);
  Cluster cluster(2, /*ship_every=*/1);
  for (const std::string& payload :
       {std::string(R"({"cmd":"create_session","id":1})"), seed_batch(200)}) {
    ASSERT_TRUE(is_ok(clean.handle(payload)));
    ASSERT_TRUE(is_ok(cluster.handle(payload)));
  }
  const std::size_t owner = cluster.owner_index(1);
  const svc::ReplicaStore& store = cluster.services[1 - owner]->replicas();
  std::size_t nodes = 200;
  for (std::size_t i = 0; i < 1000; ++i) {
    const double x = 0.3 * static_cast<double>(i % 97);
    const double y = 0.2 * static_cast<double>(i % 13);
    std::string payload;
    if (i % 3 == 0) {
      payload = add_node(100 + i, x, y);
      ++nodes;
    } else if (i % 3 == 1) {
      payload = R"({"cmd":"move","id":7,"session":1,"v":)" +
                std::to_string(i % nodes) + R"(,"x":)" + std::to_string(y) +
                R"(,"y":)" + std::to_string(x) + "}";
    } else {
      payload = R"({"cmd":"add_edge","id":8,"session":1,"u":)" +
                std::to_string(i % nodes) + R"(,"v":)" +
                std::to_string((i * 7 + 1) % nodes) + "}";
    }
    ASSERT_EQ(clean.handle(payload), cluster.handle(payload)) << payload;
    ASSERT_LE(store.bytes(), 2 * snapshot_size(cluster)) << "mutation " << i;
  }
  const shard::ReplicatorCounters& counters =
      cluster.router->replicator().counters();
  EXPECT_GT(counters.appends.value(), 900u);
  EXPECT_GT(counters.shipped.value() - counters.appends.value(), 2u)
      << "the log never compacted";
  cluster.killed[owner]->store(true);
  EXPECT_EQ(clean.handle(kFinalQuery), cluster.handle(kFinalQuery));
  EXPECT_EQ(cluster.router->counters().lost_sessions.value(), 0u);
}

TEST(ShardFailover, HealthMonitorRestartsAfterStop) {
  // start → stop → start must yield a live monitor again (stop() leaves
  // its stop flag set; a restarted thread that exits immediately would
  // freeze every backend in its last observed state forever).
  Cluster cluster(2, /*ship_every=*/1, /*max_journal=*/4096,
                  /*health_interval_ms=*/5);
  cluster.router->start_health_monitor();
  cluster.router->stop();
  cluster.router->start_health_monitor();
  cluster.killed[0]->store(true);
  bool observed_failure = false;
  for (int i = 0; i < 1000 && !observed_failure; ++i) {
    observed_failure = cluster.router->backend_state("shard-0") !=
                       shard::BackendState::kUp;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(observed_failure) << "restarted monitor never probed";
  cluster.killed[0]->store(false);
  bool rejoined = false;
  for (int i = 0; i < 2500 && !rejoined; ++i) {
    rejoined = cluster.router->backend_state("shard-0") ==
               shard::BackendState::kUp;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(rejoined) << "restarted monitor never revived the backend";
  cluster.router->stop();
}

TEST(ShardFailover, CloseOfOrphanedSessionStillCloses) {
  Cluster cluster(2);
  ASSERT_NE(cluster.handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  ASSERT_NE(cluster.handle(
                    R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})")
                .find("\"ok\":true"),
            std::string::npos);
  const std::size_t owner = cluster.owner_index(1);
  cluster.killed[owner]->store(true);
  // Closing a session whose owner is dead discards the routing entry and
  // answers exactly what a direct service would.
  const std::string response =
      cluster.handle(R"({"cmd":"close_session","id":3,"session":1})");
  EXPECT_NE(response.find("\"closed\":true"), std::string::npos);
  EXPECT_EQ(cluster.router->session_count(), 0u);
  const std::string gone =
      cluster.handle(R"({"cmd":"query_interference","id":4,"session":1})");
  EXPECT_NE(gone.find("no session 1"), std::string::npos);
}

}  // namespace
