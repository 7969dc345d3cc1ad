#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/tcp.hpp"
#include "rim/svc/transport.hpp"

#include "svc_test_util.hpp"

// TCP transport tests: an ephemeral-port server must answer byte-for-byte
// what loopback answers, serve concurrent client connections correctly,
// and shut down cleanly (joining every thread; ASan/TSan legs verify).

namespace rim::svc {
namespace {

using core::Mutation;

std::vector<Mutation> seed_batch() {
  return {
      Mutation::add_node({0.0, 0.0}), Mutation::add_node({1.0, 0.0}),
      Mutation::add_node({0.5, 0.8}), Mutation::add_edge(0, 1),
      Mutation::add_edge(1, 2),
  };
}

TEST(SvcTcp, ResponsesMatchLoopbackByteForByte) {
  ServiceConfig config;
  Service tcp_service(config);
  Service loopback_service(config);

  TcpServer server(tcp_service, {.port = 0, .dispatch_threads = 2});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ASSERT_NE(server.port(), 0);

  TcpClientTransport tcp_transport;
  ASSERT_TRUE(tcp_transport.connect_to("127.0.0.1", server.port(), error))
      << error;
  LoopbackTransport loopback_transport(loopback_service);

  Client tcp_client(tcp_transport);
  Client loopback_client(loopback_transport);

  // Drive both through the same command sequence; every response payload
  // must be byte-identical.
  const auto compare = [&](const char* what) {
    EXPECT_EQ(tcp_client.last_response_payload(),
              loopback_client.last_response_payload())
        << what;
  };

  ASSERT_TRUE(ok(tcp_client.try_ping()));
  ASSERT_TRUE(ok(loopback_client.try_ping()));
  compare("ping");

  std::uint64_t tcp_session = 0;
  std::uint64_t loopback_session = 0;
  ASSERT_TRUE(ok(tcp_client.try_create_session(), tcp_session));
  ASSERT_TRUE(ok(loopback_client.try_create_session(), loopback_session));
  compare("create_session");

  core::BatchResult tcp_result;
  core::BatchResult loopback_result;
  ASSERT_TRUE(ok(tcp_client.try_apply_batch(tcp_session, seed_batch()), tcp_result));
  ASSERT_TRUE(ok(loopback_client.try_apply_batch(loopback_session, seed_batch()), loopback_result));
  compare("apply_batch");

  io::Json tcp_doc;
  io::Json loopback_doc;
  ASSERT_TRUE(ok(tcp_client.try_query_interference(tcp_session), tcp_doc));
  ASSERT_TRUE(
      ok(loopback_client.try_query_interference(loopback_session), loopback_doc));
  compare("query_interference");

  ASSERT_TRUE(ok(tcp_client.try_snapshot(tcp_session), tcp_doc));
  ASSERT_TRUE(ok(loopback_client.try_snapshot(loopback_session), loopback_doc));
  compare("snapshot");

  NodeId renamed = kInvalidNode;
  EXPECT_FALSE(ok(tcp_client.try_remove_node(tcp_session, 99), renamed));
  EXPECT_FALSE(ok(loopback_client.try_remove_node(loopback_session, 99), renamed));
  compare("error responses");

  server.stop();
}

TEST(SvcTcp, ConcurrentClientsKeepSessionsIsolated) {
  ServiceConfig config;
  config.limits.max_in_flight = 64;
  Service service(config);
  TcpServer server(service, {.port = 0, .dispatch_threads = 4});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  constexpr std::size_t kClients = 8;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([c, &failures, &server] {
      TcpClientTransport transport;
      std::string connect_error;
      if (!transport.connect_to("127.0.0.1", server.port(), connect_error)) {
        failures[c] = "connect: " + connect_error;
        return;
      }
      Client client(transport);
      std::uint64_t session = 0;
      if (!ok(client.try_create_session(), session)) {
        failures[c] = "create: " + client.error();
        return;
      }
      // Each client grows its own chain; interference stays isolated.
      NodeId previous = kInvalidNode;
      const std::size_t nodes = 4 + c;
      for (std::size_t i = 0; i < nodes; ++i) {
        NodeId node = kInvalidNode;
        if (!ok(client.try_add_node(session, double(i), double(c)), node)) {
          failures[c] = "add_node: " + client.error();
          return;
        }
        bool added = false;
        if (previous != kInvalidNode &&
            !ok(client.try_add_edge(session, previous, node), added)) {
          failures[c] = "add_edge: " + client.error();
          return;
        }
        previous = node;
      }
      io::Json stats;
      if (!ok(client.try_session_stats(session), stats)) {
        failures[c] = "stats: " + client.error();
        return;
      }
      if (stats.find("nodes")->as_number() != double(nodes)) {
        failures[c] = "expected " + std::to_string(nodes) + " nodes, got " +
                      std::to_string(stats.find("nodes")->as_number());
        return;
      }
      if (!ok(client.try_close_session(session))) {
        failures[c] = "close: " + client.error();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  EXPECT_EQ(service.sessions().session_count(), 0u);
  server.stop();
}

TEST(SvcTcp, OversizedFrameAnswersBadFrameAndDrops) {
  ServiceConfig config;
  config.limits.max_frame_bytes = 64;
  Service service(config);
  TcpServer server(service, {.port = 0, .dispatch_threads = 1});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  TcpClientTransport transport;
  ASSERT_TRUE(transport.connect_to("127.0.0.1", server.port(), error))
      << error;
  std::string response_frame;
  ASSERT_EQ(transport.roundtrip(encode_frame(std::string(128, ' ')),
                                response_frame, error),
            TransportStatus::kOk)
      << error;
  std::size_t consumed = 0;
  std::string payload;
  ASSERT_EQ(try_decode_frame(response_frame, kDefaultMaxFrameBytes, consumed,
                             payload),
            FrameStatus::kFrame);
  EXPECT_NE(payload.find("\"code\":\"bad_frame\""), std::string::npos);
  // The connection is dropped afterwards: the next exchange reports the
  // lost peer as exactly that (the router's failover trigger).
  EXPECT_EQ(transport.roundtrip(encode_frame("{}"), response_frame, error),
            TransportStatus::kConnectionLost);
  server.stop();
}

TEST(SvcTcp, StopWithConnectedClientsIsClean) {
  Service service{ServiceConfig{}};
  auto server = std::make_unique<TcpServer>(
      service, TcpServerConfig{.port = 0, .dispatch_threads = 2});
  std::string error;
  ASSERT_TRUE(server->start(error)) << error;

  TcpClientTransport transport;
  ASSERT_TRUE(transport.connect_to("127.0.0.1", server->port(), error))
      << error;
  Client client(transport);
  ASSERT_TRUE(ok(client.try_ping()));

  // Destruction implies stop(); a stopped server leaves the client with a
  // closed socket, not a hang — surfaced as the typed connection-lost
  // code (the shard router's failover trigger), not a generic transport
  // failure.
  server.reset();
  EXPECT_FALSE(ok(client.try_ping()));
  EXPECT_EQ(client.error_code(), "connection_lost");
}

TEST(SvcTcp, PortZeroPicksDistinctEphemeralPorts) {
  Service service{ServiceConfig{}};
  TcpServer first(service, {.port = 0, .dispatch_threads = 1});
  TcpServer second(service, {.port = 0, .dispatch_threads = 1});
  std::string error;
  ASSERT_TRUE(first.start(error)) << error;
  ASSERT_TRUE(second.start(error)) << error;
  EXPECT_NE(first.port(), 0);
  EXPECT_NE(second.port(), 0);
  EXPECT_NE(first.port(), second.port());
  first.stop();
  second.stop();
}

}  // namespace
}  // namespace rim::svc
