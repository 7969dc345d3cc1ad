#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

#include "svc_test_util.hpp"

// The `metrics` command serves the service's obs::Registry snapshot:
// global counters under "svc" (requests, rejects, latency percentiles)
// and one "svc.session.<id>" source per live session.

namespace rim::svc {
namespace {

using core::Mutation;

const io::Json* path(const io::Json& root,
                     const std::vector<std::string>& keys) {
  const io::Json* node = &root;
  for (const std::string& key : keys) {
    node = node->find(key);
    if (node == nullptr) return nullptr;
  }
  return node;
}

double number_at(const io::Json& root, const std::vector<std::string>& keys) {
  const io::Json* node = path(root, keys);
  return node != nullptr ? node->as_number(-1.0) : -1.0;
}

TEST(SvcMetrics, RegistrySnapshotCarriesGlobalAndPerSessionCounters) {
  ServiceConfig config;
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);

  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  const std::vector<Mutation> batch = {
      Mutation::add_node({0.0, 0.0}), Mutation::add_node({1.0, 0.0}),
      Mutation::add_edge(0, 1)};
  core::BatchResult result;
  ASSERT_TRUE(ok(client.try_apply_batch(session, batch), result));
  io::Json interference;
  ASSERT_TRUE(ok(client.try_query_interference(session), interference));
  // One deliberate per-session error.
  NodeId renamed = kInvalidNode;
  EXPECT_FALSE(ok(client.try_remove_node(session, 1234), renamed));

  io::Json metrics;
  ASSERT_TRUE(ok(client.try_metrics(), metrics));

  // Global counters: create + batch + query + failed remove + this
  // metrics request itself (counted on entry; its ok/latency land only
  // after the snapshot is produced).
  EXPECT_EQ(number_at(metrics, {"svc", "counters", "requests"}), 5.0);
  EXPECT_EQ(number_at(metrics, {"svc", "counters", "ok"}), 3.0);
  EXPECT_EQ(number_at(metrics, {"svc", "counters", "errors"}), 1.0);
  EXPECT_EQ(number_at(metrics, {"svc", "counters", "rejected_overloaded"}),
            0.0);
  EXPECT_EQ(number_at(metrics, {"svc", "sessions", "count"}), 1.0);
  EXPECT_EQ(number_at(metrics, {"svc", "sessions", "live"}), 1.0);
  EXPECT_EQ(number_at(metrics, {"svc", "limits", "max_in_flight"}),
            double(config.limits.max_in_flight));
  EXPECT_EQ(number_at(metrics, {"svc", "manager", "created"}), 1.0);
  EXPECT_EQ(number_at(metrics, {"svc", "manager", "evictions"}), 0.0);

  // Latency histogram: the 4 finished requests are recorded before this
  // snapshot is produced, with sane percentile ordering.
  const double latency_count =
      number_at(metrics, {"svc", "counters", "latency_ns", "count"});
  EXPECT_GE(latency_count, 4.0);
  EXPECT_GE(number_at(metrics, {"svc", "counters", "latency_ns", "p99"}),
            number_at(metrics, {"svc", "counters", "latency_ns", "p50"}));
  EXPECT_GT(number_at(metrics, {"svc", "counters", "handle_ns"}), 0.0);

  // Per-session source: 3 session-addressed commands, 1 error, the
  // batch's 3 mutations, and a populated latency histogram.
  const std::string source = "svc.session." + std::to_string(session);
  EXPECT_EQ(number_at(metrics, {source, "requests"}), 3.0);
  EXPECT_EQ(number_at(metrics, {source, "errors"}), 1.0);
  EXPECT_EQ(number_at(metrics, {source, "mutations"}), 3.0);
  EXPECT_EQ(number_at(metrics, {source, "spills"}), 0.0);
  EXPECT_EQ(number_at(metrics, {source, "latency_ns", "count"}), 3.0);
  EXPECT_GE(number_at(metrics, {source, "latency_ns", "p99"}),
            number_at(metrics, {source, "latency_ns", "p50"}));
}

TEST(SvcMetrics, RejectionsAndEvictionsAreCounted) {
  ServiceConfig config;
  config.limits.max_live_sessions = 1;
  config.limits.spill_dir = ::testing::TempDir();
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);

  std::uint64_t first = 0;
  std::uint64_t second = 0;
  ASSERT_TRUE(ok(client.try_create_session(), first));
  ASSERT_TRUE(ok(client.try_create_session(), second));  // evicts `first`
  io::Json touch;
  ASSERT_TRUE(ok(client.try_query_interference(first), touch));  // restores it

  // One shed request via a zero-capacity twin of the admission gate:
  // drain capacity by reconfiguring is impossible post-hoc, so spend the
  // budget with in-flight tickets instead.
  std::vector<Service::Ticket> hoard;
  for (std::size_t i = 0; i < config.limits.max_in_flight; ++i) {
    Service::Ticket ticket = service.try_admit();
    ASSERT_TRUE(static_cast<bool>(ticket));
    hoard.push_back(std::move(ticket));
  }
  EXPECT_FALSE(ok(client.try_ping()));
  EXPECT_EQ(client.error_code(), code::kOverloaded);
  hoard.clear();

  io::Json metrics;
  ASSERT_TRUE(ok(client.try_metrics(), metrics));
  EXPECT_EQ(number_at(metrics, {"svc", "counters", "rejected_overloaded"}),
            1.0);
  EXPECT_EQ(number_at(metrics, {"svc", "manager", "evictions"}), 2.0);
  EXPECT_EQ(number_at(metrics, {"svc", "manager", "spill_restores"}), 1.0);
  const std::string source = "svc.session." + std::to_string(first);
  EXPECT_EQ(number_at(metrics, {source, "spills"}), 1.0);
  EXPECT_EQ(number_at(metrics, {source, "spill_restores"}), 1.0);
}

TEST(SvcMetrics, ClosedSessionsLeaveTheRegistry) {
  Service service{ServiceConfig{}};
  LoopbackTransport transport(service);
  Client client(transport);
  std::uint64_t session = 0;
  ASSERT_TRUE(ok(client.try_create_session(), session));
  io::Json metrics;
  ASSERT_TRUE(ok(client.try_metrics(), metrics));
  const std::string source = "svc.session." + std::to_string(session);
  EXPECT_NE(path(metrics, {source}), nullptr);
  ASSERT_TRUE(ok(client.try_close_session(session)));
  ASSERT_TRUE(ok(client.try_metrics(), metrics));
  EXPECT_EQ(path(metrics, {source}), nullptr);
}

}  // namespace
}  // namespace rim::svc
