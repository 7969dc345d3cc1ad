#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/sim/fault.hpp"
#include "rim/sim/rng.hpp"
#include "rim/sim/workload.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

#include "svc_test_util.hpp"

// Fault injection over the wire: a batch is killed mid-application inside
// a session (sim::FaultInjector via apply_batch_with_faults) and recovered
// by snapshot-restore-replay — the session's end state must be
// bit-identical to a never-faulted twin. Reuses the same fault kinds the
// robustness suite (fault_test.cpp) exercises engine-side.

namespace rim::svc {
namespace {

using core::Mutation;

ServiceConfig fault_config() {
  ServiceConfig config;
  config.enable_fault_injection = true;
  return config;
}

std::vector<Mutation> seed_batch() {
  return {
      Mutation::add_node({0.0, 0.0}), Mutation::add_node({1.0, 0.0}),
      Mutation::add_node({0.5, 0.8}), Mutation::add_node({2.25, 0.5}),
      Mutation::add_edge(0, 1),       Mutation::add_edge(1, 2),
      Mutation::add_edge(0, 2),       Mutation::add_edge(1, 3),
  };
}

/// Send apply_batch with a fault field; returns the parsed result document.
bool apply_batch_with_wire_fault(Client& client, std::uint64_t session,
                                 const std::vector<Mutation>& batch,
                                 const char* kind, std::size_t index,
                                 bool recover, io::Json& result) {
  io::JsonObject params;
  params["session"] = io::Json(session);
  io::JsonArray mutations;
  for (const Mutation& m : batch) mutations.push_back(mutation_to_json(m));
  params["batch"] = io::Json(std::move(mutations));
  io::JsonObject fault;
  fault["kind"] = io::Json(kind);
  fault["index"] = io::Json(index);
  params["fault"] = io::Json(std::move(fault));
  params["recover"] = io::Json(recover);
  return ok(client.try_call(cmd::kApplyBatch, std::move(params)), result);
}

TEST(SvcFault, CrashMidBatchRecoversToFaultFreeState) {
  Service service(fault_config());
  LoopbackTransport transport(service);
  Client client(transport);

  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  core::BatchResult seeded;
  ASSERT_TRUE(ok(client.try_apply_batch(session, seed_batch()), seeded));

  core::Scenario twin;
  (void)twin.apply_batch(seed_batch(), nullptr);

  sim::Rng rng(11);
  sim::WorkloadConfig workload;
  workload.batch_size = 32;
  for (std::size_t round = 0; round < 4; ++round) {
    const std::vector<Mutation> batch =
        sim::make_churn_batch(rng, twin.node_count(), workload);
    io::Json result;
    ASSERT_TRUE(apply_batch_with_wire_fault(
        client, session, batch, "crash_mid_batch",
        round % batch.size(), /*recover=*/true, result))
        << client.error();
    EXPECT_TRUE(result.find("fault_fired")->as_bool(false)) << round;
    EXPECT_TRUE(result.find("restored")->as_bool(false)) << round;

    (void)twin.apply_batch(batch, nullptr);

    // End state bit-identical to the never-faulted twin. Refresh both
    // interference caches first so the snapshots capture the same state.
    io::Json refresh;
    ASSERT_TRUE(ok(client.try_query_interference(session), refresh));
    (void)twin.interference();
    io::Json wire_doc;
    ASSERT_TRUE(ok(client.try_snapshot(session), wire_doc));
    EXPECT_EQ(wire_doc.dump(), twin.snapshot().to_json().dump())
        << "round " << round;
  }
}

TEST(SvcFault, PoisonFaultsRecoverToo) {
  Service service(fault_config());
  LoopbackTransport transport(service);
  Client client(transport);

  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  core::BatchResult seeded;
  ASSERT_TRUE(ok(client.try_apply_batch(session, seed_batch()), seeded));
  core::Scenario twin;
  (void)twin.apply_batch(seed_batch(), nullptr);

  sim::Rng rng(29);
  sim::WorkloadConfig workload;
  workload.batch_size = 24;
  for (const char* kind : {"poison_disk_task", "poison_recount"}) {
    const std::vector<Mutation> batch =
        sim::make_churn_batch(rng, twin.node_count(), workload);
    io::Json result;
    ASSERT_TRUE(apply_batch_with_wire_fault(client, session, batch, kind, 1,
                                            /*recover=*/true, result))
        << client.error();
    (void)twin.apply_batch(batch, nullptr);
    io::Json refresh;
    ASSERT_TRUE(ok(client.try_query_interference(session), refresh));
    (void)twin.interference();
    io::Json wire_doc;
    ASSERT_TRUE(ok(client.try_snapshot(session), wire_doc));
    EXPECT_EQ(wire_doc.dump(), twin.snapshot().to_json().dump()) << kind;
  }
}

TEST(SvcFault, UnrecoveredCrashReportsAbort) {
  Service service(fault_config());
  LoopbackTransport transport(service);
  Client client(transport);

  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  core::BatchResult seeded;
  ASSERT_TRUE(ok(client.try_apply_batch(session, seed_batch()), seeded));

  const std::vector<Mutation> batch = {
      Mutation::add_node({3.0, 3.0}),
      Mutation::add_edge(3, 4),
      Mutation::add_edge(2, 4),
  };
  io::Json result;
  ASSERT_TRUE(apply_batch_with_wire_fault(client, session, batch,
                                          "crash_mid_batch", 1,
                                          /*recover=*/false, result))
      << client.error();
  EXPECT_TRUE(result.find("fault_fired")->as_bool(false));
  EXPECT_FALSE(result.find("restored")->as_bool(true));
  EXPECT_TRUE(result.find("aborted")->as_bool(false));
  EXPECT_EQ(result.find("abort_index")->as_number(), 1.0);
}

TEST(SvcFault, TraceFaultsRewriteTheBatch) {
  Service service(fault_config());
  LoopbackTransport transport(service);
  Client client(transport);

  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  core::BatchResult seeded;
  ASSERT_TRUE(ok(client.try_apply_batch(session, seed_batch()), seeded));

  // Dropping mutation 0 of a one-element batch applies nothing.
  const std::vector<Mutation> batch = {Mutation::add_node({4.0, 4.0})};
  io::Json result;
  ASSERT_TRUE(apply_batch_with_wire_fault(client, session, batch,
                                          "drop_mutation", 0,
                                          /*recover=*/true, result))
      << client.error();
  EXPECT_TRUE(result.find("fault_fired")->as_bool(false));
  EXPECT_FALSE(result.find("restored")->as_bool(true));
  EXPECT_EQ(result.find("applied")->as_number(1.0), 0.0);
  io::Json stats;
  ASSERT_TRUE(ok(client.try_session_stats(session), stats));
  EXPECT_EQ(stats.find("nodes")->as_number(), 4.0);
}

TEST(SvcFault, BadFaultFieldsAreBadRequests) {
  Service service(fault_config());
  LoopbackTransport transport(service);
  Client client(transport);
  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));

  io::JsonObject params;
  params["session"] = io::Json(session);
  params["batch"] = io::Json(io::JsonArray{});
  io::JsonObject fault;
  fault["kind"] = io::Json("segfault");  // no such fault kind
  fault["index"] = io::Json(0);
  params["fault"] = io::Json(std::move(fault));
  io::Json result;
  EXPECT_FALSE(ok(client.try_call(cmd::kApplyBatch, std::move(params)), result));
  EXPECT_EQ(client.error_code(), code::kBadRequest);
}

}  // namespace
}  // namespace rim::svc
