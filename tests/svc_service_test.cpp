#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "rim/core/assessor.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/sim/rng.hpp"
#include "rim/sim/workload.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/replica_store.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

#include "svc_test_util.hpp"

// Loopback tests for the scenario service. The central property: every
// response is byte-identical to the payload built directly from the
// corresponding core::Scenario call on a twin engine — the wire layer adds
// framing and an envelope, never drift. Plus the admission-control story
// (shed, never queue) and LRU spill/restore.

namespace rim::svc {
namespace {

using core::Mutation;

/// Expected wire bytes for a result document (the envelope builder is
/// pinned byte-for-byte in svc_protocol_test.cpp).
std::string expect_ok(std::uint64_t id, io::JsonObject result) {
  return make_ok(id, io::Json(std::move(result)));
}

/// A small deterministic topology driven through both the wire and the
/// twin: a triangle plus a pendant node.
const std::vector<Mutation> kSeedBatch = {
    Mutation::add_node({0.0, 0.0}),  Mutation::add_node({1.0, 0.0}),
    Mutation::add_node({0.5, 0.8}),  Mutation::add_node({2.25, 0.5}),
    Mutation::add_edge(0, 1),        Mutation::add_edge(1, 2),
    Mutation::add_edge(0, 2),        Mutation::add_edge(1, 3),
};

class SvcLoopback : public ::testing::Test {
 protected:
  SvcLoopback()
      : service_(ServiceConfig{}), transport_(service_), client_(transport_) {}

  /// Create a wire session and seed both it and the twin with kSeedBatch.
  std::uint64_t seeded_session() {
    std::uint64_t session = 0;
    EXPECT_TRUE(ok(client_.try_create_session(), session));
    core::BatchResult wire_result;
    EXPECT_TRUE(ok(client_.try_apply_batch(session, kSeedBatch), wire_result));
    (void)twin_.apply_batch(kSeedBatch, nullptr);
    return session;
  }

  Service service_;
  LoopbackTransport transport_;
  Client client_;
  core::Scenario twin_;
};

TEST_F(SvcLoopback, PingMatchesExpectedBytes) {
  ASSERT_TRUE(ok(client_.try_ping()));
  io::JsonObject result;
  result["pong"] = io::Json(true);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));
}

TEST_F(SvcLoopback, AddNodeByteIdenticalToScenario) {
  const std::uint64_t session = seeded_session();
  NodeId wire_node = kInvalidNode;
  ASSERT_TRUE(ok(client_.try_add_node(session, 3.5, -1.25), wire_node));
  const NodeId direct = twin_.add_node({3.5, -1.25});
  EXPECT_EQ(wire_node, direct);
  io::JsonObject result;
  result["node"] = io::Json(direct);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));
}

TEST_F(SvcLoopback, RemoveNodeByteIdenticalToScenario) {
  const std::uint64_t session = seeded_session();
  NodeId renamed = kInvalidNode;
  ASSERT_TRUE(ok(client_.try_remove_node(session, 1), renamed));
  const NodeId direct = twin_.remove_node(1);
  EXPECT_EQ(renamed, direct);
  io::JsonObject result;
  result["renamed"] =
      direct == kInvalidNode ? io::Json(nullptr) : io::Json(direct);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));
  // Removing the (new) last node is the no-rename case: null on the wire.
  const NodeId last = static_cast<NodeId>(twin_.node_count() - 1);
  ASSERT_TRUE(ok(client_.try_remove_node(session, last), renamed));
  EXPECT_EQ(renamed, twin_.remove_node(last));
  EXPECT_EQ(renamed, kInvalidNode);
  io::JsonObject null_result;
  null_result["renamed"] = io::Json(nullptr);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(null_result)));
}

TEST_F(SvcLoopback, EdgeCommandsByteIdenticalToScenario) {
  const std::uint64_t session = seeded_session();
  bool added = false;
  ASSERT_TRUE(ok(client_.try_add_edge(session, 2, 3), added));
  EXPECT_EQ(added, twin_.add_edge(2, 3));
  io::JsonObject add_result;
  add_result["added"] = io::Json(added);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(add_result)));
  // Duplicate edge: both report false, byte-identically.
  ASSERT_TRUE(ok(client_.try_add_edge(session, 2, 3), added));
  EXPECT_EQ(added, twin_.add_edge(2, 3));
  EXPECT_FALSE(added);

  bool removed = false;
  ASSERT_TRUE(ok(client_.try_remove_edge(session, 0, 2), removed));
  EXPECT_EQ(removed, twin_.remove_edge(0, 2));
  io::JsonObject remove_result;
  remove_result["removed"] = io::Json(removed);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(remove_result)));
}

TEST_F(SvcLoopback, MoveAndQueryByteIdenticalToScenario) {
  const std::uint64_t session = seeded_session();
  ASSERT_TRUE(ok(client_.try_move_node(session, 3, 1.75, 0.25)));
  twin_.move_node(3, {1.75, 0.25});

  io::Json wire;
  ASSERT_TRUE(ok(client_.try_query_interference(session), wire));
  io::JsonObject result;
  io::JsonArray per_node;
  for (const std::uint32_t value : twin_.interference()) {
    per_node.emplace_back(value);
  }
  result["max"] = io::Json(twin_.max_interference());
  result["per_node"] = io::Json(std::move(per_node));
  result["total"] = io::Json(twin_.total_interference());
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));

  for (NodeId v = 0; v < twin_.node_count(); ++v) {
    std::uint32_t value = 0;
    ASSERT_TRUE(ok(client_.try_query_interference_of(session, v), value));
    EXPECT_EQ(value, twin_.interference_of(v));
    io::JsonObject single;
    single["node"] = io::Json(v);
    single["value"] = io::Json(twin_.interference_of(v));
    EXPECT_EQ(client_.last_response_payload(),
              expect_ok(client_.last_request_id(), std::move(single)));
  }
}

TEST_F(SvcLoopback, ApplyBatchByteIdenticalToScenario) {
  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client_.try_create_session(), session));
  core::BatchResult wire_result;
  ASSERT_TRUE(ok(client_.try_apply_batch(session, kSeedBatch), wire_result));
  const core::BatchResult direct = twin_.apply_batch(kSeedBatch, nullptr);
  io::JsonObject result;
  result["abort_index"] = io::Json(direct.abort_index);
  result["aborted"] = io::Json(direct.aborted);
  result["applied"] = io::Json(direct.applied);
  result["deferred"] = io::Json(direct.deferred);
  result["disk_tasks"] = io::Json(direct.disk_tasks);
  result["recounts"] = io::Json(direct.recounts);
  result["waves"] = io::Json(direct.waves);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));
  EXPECT_EQ(wire_result.applied, direct.applied);
}

TEST_F(SvcLoopback, ApplyBatchDeterministicAcrossSessions) {
  // The same batch against two fresh sessions produces identical response
  // bytes (modulo the echoed request id — so pin the id explicitly), and
  // identical snapshots afterwards.
  sim::Rng rng(7);
  sim::WorkloadConfig workload;
  workload.batch_size = 48;
  std::vector<Mutation> batch = kSeedBatch;
  for (const Mutation& m : sim::make_churn_batch(rng, 4, workload)) {
    batch.push_back(m);
  }

  std::string payloads[2];
  std::string snapshots[2];
  for (int round = 0; round < 2; ++round) {
    std::uint64_t session = 0;
    ASSERT_TRUE(ok(client_.try_create_session(), session));
    io::JsonObject params;
    params["session"] = io::Json(session);
    io::JsonArray mutations;
    for (const Mutation& m : batch) mutations.push_back(mutation_to_json(m));
    params["batch"] = io::Json(std::move(mutations));
    params["cmd"] = io::Json(cmd::kApplyBatch);
    params["id"] = io::Json(99);
    const std::string frame =
        encode_frame(io::Json(std::move(params)).dump());
    std::string response_frame;
    std::string error;
    ASSERT_EQ(transport_.roundtrip(frame, response_frame, error),
              TransportStatus::kOk)
        << error;
    std::size_t consumed = 0;
    ASSERT_EQ(try_decode_frame(response_frame, kDefaultMaxFrameBytes,
                               consumed, payloads[round]),
              FrameStatus::kFrame);
    io::Json snapshot_doc;
    ASSERT_TRUE(ok(client_.try_snapshot(session), snapshot_doc));
    snapshots[round] = snapshot_doc.dump();
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

TEST_F(SvcLoopback, AssessByteIdenticalToScenario) {
  const std::uint64_t session = seeded_session();
  const std::vector<Mutation> probe = {
      Mutation::add_node({0.9, 0.1}),
      Mutation::add_edge(1, 4),
  };
  io::Json wire;
  ASSERT_TRUE(ok(client_.try_assess(session, probe), wire));
  const core::Assessment direct =
      core::Assessor{}.assess(twin_, std::span<const Mutation>(probe));
  io::JsonObject result;
  io::JsonArray affected;
  for (const NodeId v : direct.affected_ids) affected.emplace_back(v);
  result["affected_ids"] = io::Json(std::move(affected));
  io::JsonArray deltas;
  for (const std::int64_t d : direct.delta_per_node) {
    deltas.emplace_back(static_cast<long long>(d));
  }
  result["delta_per_node"] = io::Json(std::move(deltas));
  result["max_after"] = io::Json(direct.max_after);
  result["max_before"] = io::Json(direct.max_before);
  result["newcomer_interference"] = io::Json(direct.newcomer_interference);
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));
  // Assessment is a pure probe: session state must be unchanged.
  io::Json stats;
  ASSERT_TRUE(ok(client_.try_session_stats(session), stats));
  EXPECT_EQ(stats.find("nodes")->as_number(), double(twin_.node_count()));
}

TEST_F(SvcLoopback, SnapshotByteIdenticalToScenario) {
  const std::uint64_t session = seeded_session();
  io::Json wire_doc;
  ASSERT_TRUE(ok(client_.try_snapshot(session), wire_doc));
  io::JsonObject result;
  result["snapshot"] = twin_.snapshot().to_json();
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));
}

TEST_F(SvcLoopback, SnapshotRestoreRoundTripsThroughWire) {
  const std::uint64_t session = seeded_session();
  io::Json at_snapshot;
  ASSERT_TRUE(ok(client_.try_snapshot(session), at_snapshot));

  // Diverge, then restore over the wire.
  core::BatchResult ignored;
  const std::vector<Mutation> divergence = {
      Mutation::add_node({5.0, 5.0}), Mutation::add_edge(3, 4),
      Mutation::remove_edge(0, 1),    Mutation::move_node(2, {9.0, 9.0}),
  };
  ASSERT_TRUE(ok(client_.try_apply_batch(session, divergence), ignored));
  ASSERT_TRUE(ok(client_.try_restore(session, at_snapshot)));
  // Re-snapshotting reproduces the very document it was restored from.
  io::Json again;
  ASSERT_TRUE(ok(client_.try_snapshot(session), again));
  EXPECT_EQ(again.dump(), at_snapshot.dump());

  // The restored session answers like the twin it was snapshotted from.
  io::Json wire;
  ASSERT_TRUE(ok(client_.try_query_interference(session), wire));
  io::JsonObject result;
  io::JsonArray per_node;
  for (const std::uint32_t value : twin_.interference()) {
    per_node.emplace_back(value);
  }
  result["max"] = io::Json(twin_.max_interference());
  result["per_node"] = io::Json(std::move(per_node));
  result["total"] = io::Json(twin_.total_interference());
  EXPECT_EQ(client_.last_response_payload(),
            expect_ok(client_.last_request_id(), std::move(result)));

  io::Json stats;
  ASSERT_TRUE(ok(client_.try_session_stats(session), stats));
  EXPECT_EQ(stats.find("nodes")->as_number(), double(twin_.node_count()));
  EXPECT_EQ(stats.find("edges")->as_number(), double(twin_.edge_count()));

}

TEST_F(SvcLoopback, RestoreRejectsGarbageAndKeepsState) {
  const std::uint64_t session = seeded_session();
  io::JsonObject garbage;
  garbage["not"] = io::Json("a snapshot");
  EXPECT_FALSE(ok(client_.try_restore(session, io::Json(std::move(garbage)))));
  EXPECT_EQ(client_.error_code(), code::kRestoreFailed);
  io::Json stats;
  ASSERT_TRUE(ok(client_.try_session_stats(session), stats));
  EXPECT_EQ(stats.find("nodes")->as_number(), double(twin_.node_count()));
}

TEST_F(SvcLoopback, RestoreRejectsNonFiniteGeometryAndKeepsState) {
  const std::uint64_t session = seeded_session();
  io::Json at_snapshot;
  ASSERT_TRUE(ok(client_.try_snapshot(session), at_snapshot));
  core::Snapshot tampered;
  std::string error;
  ASSERT_TRUE(core::Snapshot::from_json(at_snapshot, tampered, error)) << error;
  ASSERT_GT(tampered.points.size(), 1u);
  // A well-formed document with a valid checksum over a NaN coordinate.
  tampered.points[1].x = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ok(client_.try_restore(session, tampered.to_json())));
  EXPECT_EQ(client_.error_code(), code::kRestoreFailed);
  io::Json again;
  ASSERT_TRUE(ok(client_.try_snapshot(session), again));
  EXPECT_EQ(again.dump(), at_snapshot.dump());
}

TEST_F(SvcLoopback, ErrorResponsesCarryWireCodes) {
  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client_.try_create_session(), session));

  io::Json result;
  EXPECT_FALSE(ok(client_.try_call("warp_core", {}), result));
  EXPECT_EQ(client_.error_code(), code::kUnknownCommand);

  NodeId node = kInvalidNode;
  EXPECT_FALSE(ok(client_.try_add_node(777, 0.0, 0.0), node));
  EXPECT_EQ(client_.error_code(), code::kNoSession);

  NodeId renamed = kInvalidNode;
  EXPECT_FALSE(ok(client_.try_remove_node(session, 99), renamed));
  EXPECT_EQ(client_.error_code(), code::kBadRequest);

  io::JsonObject no_session;
  no_session["x"] = io::Json(0.0);
  no_session["y"] = io::Json(0.0);
  EXPECT_FALSE(ok(client_.try_call(cmd::kAddNode, std::move(no_session)), result));
  EXPECT_EQ(client_.error_code(), code::kBadRequest);

  EXPECT_FALSE(ok(client_.try_shutdown()));
  EXPECT_EQ(client_.error_code(), code::kShutdownDisabled);

  // Fault fields against a service with fault injection off.
  io::JsonObject fault_params;
  fault_params["session"] = io::Json(session);
  fault_params["batch"] = io::Json(io::JsonArray{});
  io::JsonObject fault;
  fault["kind"] = io::Json("crash_mid_batch");
  fault["index"] = io::Json(0);
  fault_params["fault"] = io::Json(std::move(fault));
  EXPECT_FALSE(ok(client_.try_call(cmd::kApplyBatch, std::move(fault_params)), result));
  EXPECT_EQ(client_.error_code(), code::kFaultDisabled);
}

TEST_F(SvcLoopback, UnparseablePayloadIsBadFrame) {
  const std::string frame = encode_frame("this is not json");
  std::string response_frame;
  std::string error;
  ASSERT_EQ(transport_.roundtrip(frame, response_frame, error),
            TransportStatus::kOk)
      << error;
  std::size_t consumed = 0;
  std::string payload;
  ASSERT_EQ(try_decode_frame(response_frame, kDefaultMaxFrameBytes, consumed,
                             payload),
            FrameStatus::kFrame);
  EXPECT_NE(payload.find("\"code\":\"bad_frame\""), std::string::npos)
      << payload;
  EXPECT_EQ(service_.frontend_counters().rejected_bad_frame.value(), 1u);
}

TEST(SvcAdmission, OversizedFrameIsShedAsBadFrame) {
  ServiceConfig config;
  config.limits.max_frame_bytes = 128;
  Service service(config);
  LoopbackTransport transport(service);
  const std::string frame = encode_frame(std::string(256, ' '));
  std::string response_frame;
  std::string error;
  ASSERT_EQ(transport.roundtrip(frame, response_frame, error),
            TransportStatus::kOk)
      << error;
  EXPECT_NE(response_frame.find("\"code\":\"bad_frame\""), std::string::npos);
}

TEST(SvcAdmission, InFlightCapShedsWithOverloaded) {
  ServiceConfig config;
  config.limits.max_in_flight = 0;  // every request is excess load
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);
  EXPECT_FALSE(ok(client.try_ping()));
  EXPECT_EQ(client.error_code(), code::kOverloaded);
  // The id still echoes so the client can correlate the rejection.
  EXPECT_NE(client.last_response_payload().find("\"id\":1"),
            std::string::npos);
  EXPECT_EQ(service.frontend_counters().rejected_overloaded.value(), 1u);
  EXPECT_EQ(service.frontend_counters().requests.value(), 1u);
}

TEST(SvcAdmission, SessionCapShedsWithOverloaded) {
  ServiceConfig config;
  config.limits.max_sessions = 2;
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);
  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  ASSERT_TRUE(ok(client.try_create_session(), session));
  EXPECT_FALSE(ok(client.try_create_session(), session));
  EXPECT_EQ(client.error_code(), code::kOverloaded);
  // Closing one admits the next create.
  ASSERT_TRUE(ok(client.try_close_session(1)));
  EXPECT_TRUE(ok(client.try_create_session(), session));
}

TEST(SvcAdmission, LiveCapWithoutSpillDirShedsAtCreate) {
  ServiceConfig config;
  config.limits.max_live_sessions = 1;
  config.limits.spill_dir.clear();
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);
  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  EXPECT_FALSE(ok(client.try_create_session(), session));
  EXPECT_EQ(client.error_code(), code::kOverloaded);
}

TEST(SvcEviction, LruSpillAndTransparentRestore) {
  ServiceConfig config;
  config.limits.max_live_sessions = 1;
  config.limits.spill_dir = ::testing::TempDir();
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);

  std::uint64_t first = 0;
  std::uint64_t second = 0;
  ASSERT_TRUE(ok(client.try_create_session(), first));
  core::BatchResult ignored;
  ASSERT_TRUE(ok(client.try_apply_batch(first, kSeedBatch), ignored));
  io::Json before_spill;
  ASSERT_TRUE(ok(client.try_query_interference(first), before_spill));

  // Creating the second session evicts the idle first one to disk.
  ASSERT_TRUE(ok(client.try_create_session(), second));
  EXPECT_EQ(service.sessions().counters().evictions.value(), 1u);
  EXPECT_EQ(service.sessions().live_count(), 1u);
  EXPECT_EQ(service.sessions().session_count(), 2u);
  {
    std::ifstream spill(service.sessions().spill_path(first),
                        std::ios::binary);
    EXPECT_TRUE(spill.good()) << "spill file missing";
  }

  // Touching the first session restores it transparently — and evicts
  // the second. Its answers are byte-identical to before the spill.
  io::Json after_restore;
  ASSERT_TRUE(ok(client.try_query_interference(first), after_restore));
  EXPECT_EQ(client.last_response_payload(),
            make_ok(client.last_request_id(), before_spill));
  EXPECT_EQ(service.sessions().counters().spill_restores.value(), 1u);
  EXPECT_EQ(service.sessions().counters().evictions.value(), 2u);

  // Closing the spilled second session removes its spill file.
  ASSERT_TRUE(ok(client.try_close_session(second)));
  std::ifstream gone(service.sessions().spill_path(second), std::ios::binary);
  EXPECT_FALSE(gone.good());
}

TEST(SvcReplica, DuplicateReplicatePutIsIdempotent) {
  // A shard router whose replicate response was torn retries its ship:
  // the exact duplicate must answer success (the replica is already
  // durable), while a *different* snapshot at the same seq stays a
  // rejected stale write.
  Service service{ServiceConfig{}};
  ASSERT_NE(service.handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  ASSERT_NE(service
                .handle(
                    R"({"cmd":"add_node","id":2,"session":1,"x":0.0,"y":0.0})")
                .find("\"ok\":true"),
            std::string::npos);
  std::string error;
  const auto snapshot_of = [&](std::uint64_t id, io::Json& document) {
    const std::string response = service.handle(
        R"({"cmd":"snapshot","id":)" + std::to_string(id) + R"(,"session":1})");
    EXPECT_TRUE(io::Json::parse(response, document, error)) << error;
    const io::Json* result = document.find("result");
    return result != nullptr ? result->find("snapshot") : nullptr;
  };
  const auto replicate = [&](std::uint64_t seq, const io::Json& snapshot) {
    io::JsonObject request;
    request["cmd"] = io::Json("replicate_session");
    request["id"] = io::Json(std::uint64_t{9});
    request["origin"] = io::Json(std::uint64_t{77});
    request["seq"] = io::Json(seq);
    request["snapshot"] = snapshot;
    return service.handle(io::Json(std::move(request)).dump());
  };
  io::Json first_doc;
  const io::Json* first = snapshot_of(3, first_doc);
  ASSERT_NE(first, nullptr);
  EXPECT_NE(replicate(1, *first).find("\"ok\":true"), std::string::npos);
  EXPECT_NE(replicate(1, *first).find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(service.replicas().size(), 1u);
  EXPECT_EQ(service.replicas().counters().rejected.value(), 0u);

  ASSERT_NE(service
                .handle(
                    R"({"cmd":"add_node","id":4,"session":1,"x":1.0,"y":0.5})")
                .find("\"ok\":true"),
            std::string::npos);
  io::Json second_doc;
  const io::Json* second = snapshot_of(5, second_doc);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(replicate(1, *second).find("stale replica seq"),
            std::string::npos);
  EXPECT_EQ(service.replicas().counters().rejected.value(), 1u);
  EXPECT_NE(replicate(2, *second).find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(service.replicas().size(), 1u);
}

TEST(SvcReplica, ReplicateChecksumIsPayloadChecksum) {
  // The peer answers with, and stores, the checksum its decode verified;
  // it must be the snapshot's payload_checksum().
  Service service{ServiceConfig{}};
  ASSERT_NE(service.handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(service
                  .handle(R"({"cmd":"add_node","id":2,"session":1,"x":)" +
                          std::to_string(0.3 * i) + R"(,"y":0.25})")
                  .find("\"ok\":true"),
              std::string::npos);
  }
  io::Json snapshot_response;
  std::string error;
  ASSERT_TRUE(io::Json::parse(
      service.handle(R"({"cmd":"snapshot","id":3,"session":1})"),
      snapshot_response, error))
      << error;
  const io::Json* doc = snapshot_response.find("result")->find("snapshot");
  ASSERT_NE(doc, nullptr);
  core::Snapshot snapshot;
  ASSERT_TRUE(core::Snapshot::from_json(*doc, snapshot, error)) << error;

  io::JsonObject request;
  request["cmd"] = io::Json("replicate_session");
  request["id"] = io::Json(std::uint64_t{4});
  request["origin"] = io::Json(std::uint64_t{42});
  request["seq"] = io::Json(std::uint64_t{1});
  request["snapshot"] = *doc;
  const std::string response =
      service.handle(io::Json(std::move(request)).dump());
  io::Json replicated;
  ASSERT_TRUE(io::Json::parse(response, replicated, error)) << error;
  const io::Json* result = replicated.find("result");
  ASSERT_NE(result, nullptr) << replicated.dump();
  ASSERT_NE(result->find("checksum"), nullptr);
  ASSERT_NE(result->find("checksum")->as_string(), nullptr);
  EXPECT_EQ(*result->find("checksum")->as_string(),
            core::u64_to_hex(snapshot.payload_checksum()));
  ReplicaStore::Replica replica;
  ASSERT_TRUE(service.replicas().take(42, replica));
  EXPECT_EQ(replica.checksum, snapshot.payload_checksum());
  EXPECT_EQ(replica.snapshot.to_bytes(), snapshot.to_bytes());
}

TEST(SvcReplica, ReplicaChecksumsOnTheWireAreExact) {
  // A 64-bit FNV-1a checksum is almost always above 2^53, where a JSON
  // number (a double) would round it. The replicate and adopt answers
  // carry it as 16 hex digits that parse back to the exact value.
  Service service{ServiceConfig{}};
  ASSERT_NE(service.handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  ASSERT_NE(service
                .handle(
                    R"({"cmd":"add_node","id":2,"session":1,"x":0.5,"y":0.5})")
                .find("\"ok\":true"),
            std::string::npos);
  io::Json snapshot_response;
  std::string error;
  ASSERT_TRUE(io::Json::parse(
      service.handle(R"({"cmd":"snapshot","id":3,"session":1})"),
      snapshot_response, error))
      << error;
  const io::Json* doc = snapshot_response.find("result")->find("snapshot");
  ASSERT_NE(doc, nullptr);
  core::Snapshot snapshot;
  ASSERT_TRUE(core::Snapshot::from_json(*doc, snapshot, error)) << error;
  const std::uint64_t expected = snapshot.payload_checksum();
  // This state's checksum does not survive a trip through a double.
  ASSERT_NE(static_cast<std::uint64_t>(static_cast<double>(expected)),
            expected);

  const auto answered_checksum = [&](const std::string& request) {
    io::Json response;
    EXPECT_TRUE(io::Json::parse(service.handle(request), response, error));
    const io::Json* result = response.find("result");
    const io::Json* field =
        result != nullptr ? result->find("checksum") : nullptr;
    const std::string* hex =
        field != nullptr ? field->as_string() : nullptr;
    EXPECT_TRUE(hex != nullptr && hex->size() == 16) << response.dump();
    return hex != nullptr ? std::stoull(*hex, nullptr, 16) : 0;
  };
  io::JsonObject replicate;
  replicate["cmd"] = io::Json("replicate_session");
  replicate["id"] = io::Json(std::uint64_t{4});
  replicate["origin"] = io::Json(std::uint64_t{5});
  replicate["seq"] = io::Json(std::uint64_t{1});
  replicate["snapshot"] = *doc;
  EXPECT_EQ(answered_checksum(io::Json(std::move(replicate)).dump()),
            expected);
  ASSERT_NE(service
                .handle(R"({"cmd":"replicate_session","entries":[)"
                        R"({"cmd":"add_node","x":1.0,"y":0.5}],"id":5,)"
                        R"("origin":5,"seq":2})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(answered_checksum(
                R"({"cmd":"adopt_session","id":6,"origin":5})"),
            expected);
}

TEST(SvcReplica, StoreExactDuplicatePutIsIdempotent) {
  core::Scenario scenario{core::EvalOptions{}};
  (void)scenario.add_node({0.0, 0.0});
  (void)scenario.add_node({1.0, 0.0});
  (void)scenario.add_edge(0, 1);
  const core::Snapshot first = scenario.snapshot();
  (void)scenario.add_node({0.5, 0.5});
  const core::Snapshot second = scenario.snapshot();

  ReplicaStore store(4);
  std::string error;
  ASSERT_TRUE(store.put(7, 3, first, first.payload_checksum(), error))
      << error;
  EXPECT_TRUE(store.put(7, 3, first, first.payload_checksum(), error))
      << error;
  EXPECT_EQ(store.counters().stored.value(), 1u);
  EXPECT_EQ(store.counters().rejected.value(), 0u);
  // Same seq, different state: a stale write, not a duplicate.
  EXPECT_FALSE(store.put(7, 3, second, second.payload_checksum(), error));
  EXPECT_NE(error.find("stale replica seq 3"), std::string::npos) << error;
  EXPECT_EQ(store.counters().rejected.value(), 1u);

  ReplicaStore::Replica replica;
  ASSERT_TRUE(store.take(7, replica));
  EXPECT_EQ(replica.seq, 3u);
  EXPECT_EQ(replica.checksum, first.payload_checksum());
  EXPECT_EQ(replica.snapshot.to_bytes(), first.to_bytes());
}

}  // namespace
}  // namespace rim::svc
