#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
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
// what loopback answers (pipelined frames too, in order), serve concurrent
// client connections correctly, shed rather than queue behind a slow
// request, and shut down cleanly, still answering the request in hand
// (joining every thread; ASan/TSan legs verify).

namespace rim::svc {
namespace {

using core::Mutation;

/// Forwards to \p inner, except that the first request it handles waits
/// inside handle_admitted() until release(): a stand-in for a slow
/// apply_batch on one connection.
class HoldFirstHandler final : public RequestHandler {
 public:
  explicit HoldFirstHandler(RequestHandler& inner) : inner_(inner) {}

  [[nodiscard]] Ticket try_admit() override { return inner_.try_admit(); }
  [[nodiscard]] std::string handle_admitted(std::string_view payload) override {
    if (!held_one_.exchange(true)) {
      entered_.set_value();
      released_.wait();
    }
    return inner_.handle_admitted(payload);
  }
  [[nodiscard]] std::string overloaded_response(
      std::string_view payload) override {
    return inner_.overloaded_response(payload);
  }
  [[nodiscard]] std::size_t max_frame_bytes() const override {
    return inner_.max_frame_bytes();
  }

  /// Block until the first request is inside handle_admitted().
  void wait_held() { held_.wait(); }
  /// Let the held request finish.
  void release() { release_.set_value(); }

 protected:
  // Tickets come from inner_.try_admit() and release there.
  void release_admission() override {}

 private:
  RequestHandler& inner_;
  std::atomic<bool> held_one_{false};
  std::promise<void> entered_;
  std::future<void> held_ = entered_.get_future();
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

/// Answers every request with \p bytes filler bytes; admits everything.
class FillerHandler final : public RequestHandler {
 public:
  explicit FillerHandler(std::size_t bytes) : bytes_(bytes) {}

  [[nodiscard]] Ticket try_admit() override { return Ticket(this); }
  [[nodiscard]] std::string handle_admitted(std::string_view) override {
    return std::string(bytes_, 'x');
  }
  [[nodiscard]] std::string overloaded_response(std::string_view) override {
    return {};
  }
  [[nodiscard]] std::size_t max_frame_bytes() const override {
    return kDefaultMaxFrameBytes;
  }

 protected:
  void release_admission() override {}

 private:
  std::size_t bytes_;
};

/// A raw loopback socket, for what TcpClientTransport deliberately does
/// not offer: several request frames in one send(). -1 on failure.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read until \p count whole frames have arrived (or the peer closes);
/// returns their payloads in arrival order.
std::vector<std::string> read_payloads(int fd, std::size_t count) {
  std::vector<std::string> payloads;
  std::string buffer;
  std::string chunk(4096, '\0');
  while (payloads.size() < count) {
    std::size_t consumed = 0;
    std::string payload;
    if (try_decode_frame(buffer, kDefaultMaxFrameBytes, consumed, payload) ==
        FrameStatus::kFrame) {
      payloads.push_back(std::move(payload));
      buffer.erase(0, consumed);
      continue;
    }
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n <= 0) break;
    buffer.append(chunk.data(), static_cast<std::size_t>(n));
  }
  return payloads;
}

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

  TcpServer server(tcp_service, {.port = 0});
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
  TcpServer server(service, {.port = 0});
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
  TcpServer server(service, {.port = 0});
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
      service, TcpServerConfig{.port = 0});
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

TEST(SvcTcp, PipelinedFramesAreAnsweredInOrderLikeLoopback) {
  Service tcp_service{ServiceConfig{}};
  Service loopback_service{ServiceConfig{}};
  TcpServer server(tcp_service, {.port = 0});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const std::vector<std::string> requests = {
      R"({"cmd":"create_session","id":1})",
      R"({"cmd":"add_node","id":2,"session":1,"x":0,"y":0})",
      R"({"cmd":"add_node","id":3,"session":1,"x":1,"y":0})",
      R"({"cmd":"add_edge","id":4,"session":1,"u":0,"v":1})",
      R"({"cmd":"query_interference","id":5,"session":1})",
      R"({"cmd":"no_such_command","id":6})",
      R"({"cmd":"ping","id":7})",
  };
  std::string frames;
  for (const std::string& request : requests) frames += encode_frame(request);
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frames.size()));
  const std::vector<std::string> responses =
      read_payloads(fd, requests.size());
  ::close(fd);
  ASSERT_EQ(responses.size(), requests.size());

  LoopbackTransport loopback(loopback_service);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::string expected;
    ASSERT_EQ(loopback.roundtrip(encode_frame(requests[i]), expected, error),
              TransportStatus::kOk)
        << error;
    EXPECT_EQ(encode_frame(responses[i]), expected) << requests[i];
  }
  EXPECT_NE(responses[4].find("\"ok\":true"), std::string::npos);
  server.stop();
}

TEST(SvcTcp, HeldRequestShedsOtherConnectionsInsteadOfQueueing) {
  ServiceConfig config;
  config.limits.max_in_flight = 1;
  Service service(config);
  HoldFirstHandler handler(service);
  TcpServer server(handler, {.port = 0});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  // Connection A takes the only in-flight slot and is held in the handler.
  bool a_answered = false;
  std::thread a([&server, &a_answered] {
    TcpClientTransport transport;
    std::string connect_error;
    if (!transport.connect_to("127.0.0.1", server.port(), connect_error)) {
      return;
    }
    Client client(transport);
    a_answered = ok(client.try_ping());
  });
  handler.wait_held();

  // Connection B is refused at once, not parked behind A (the deadline
  // turns a queued request into a failure instead of a hang).
  TcpClientTransport b_transport;
  b_transport.exchange_deadline_ms = 5000;
  ASSERT_TRUE(b_transport.connect_to("127.0.0.1", server.port(), error))
      << error;
  Client b(b_transport);
  EXPECT_FALSE(ok(b.try_ping()));
  EXPECT_EQ(b.error_code(), code::kOverloaded);
  EXPECT_EQ(service.frontend_counters().rejected_overloaded.value(), 1u);

  handler.release();
  a.join();
  EXPECT_TRUE(a_answered);
  // The slot is free again, so B is served.
  EXPECT_TRUE(ok(b.try_ping()));
  server.stop();
}

TEST(SvcTcp, StopDeliversTheResponseOfARequestBeingHandled) {
  Service service{ServiceConfig{}};
  HoldFirstHandler handler(service);
  TcpServer server(handler, {.port = 0});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  TcpClientTransport transport;
  transport.exchange_deadline_ms = 5000;
  ASSERT_TRUE(transport.connect_to("127.0.0.1", server.port(), error))
      << error;
  Client client(transport);
  bool answered = false;
  std::thread request([&client, &answered] {
    answered = ok(client.try_ping());
  });
  handler.wait_held();

  // stop() blocks on the held reader; give it time to shut the listener
  // and every read side before the handler lets the request finish.
  std::thread stopper([&server] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  handler.release();
  stopper.join();
  request.join();

  EXPECT_TRUE(answered);
  // The response arrived ahead of the FIN: the next exchange finds the
  // connection closed.
  EXPECT_FALSE(ok(client.try_ping()));
  EXPECT_EQ(client.error_code(), "connection_lost");
}

TEST(SvcTcp, OversizedResponseClosesTheClientConnection) {
  // Larger than the client's 64 KiB receive chunk, so most of the frame
  // is still unread when the cap trips.
  FillerHandler handler(std::size_t{200} << 10);
  TcpServer server(handler, {.port = 0});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  TcpClientTransport transport;
  transport.max_response_frame_bytes = 1024;
  ASSERT_TRUE(transport.connect_to("127.0.0.1", server.port(), error))
      << error;
  std::string response_frame;
  EXPECT_EQ(transport.roundtrip(encode_frame("{}"), response_frame, error),
            TransportStatus::kError);
  EXPECT_FALSE(transport.connected());
  // The unread rest of that frame must not be taken for the next
  // response's header.
  EXPECT_EQ(transport.roundtrip(encode_frame("{}"), response_frame, error),
            TransportStatus::kConnectionLost);
  server.stop();
}

TEST(SvcTcp, PortZeroPicksDistinctEphemeralPorts) {
  Service service{ServiceConfig{}};
  TcpServer first(service, {.port = 0});
  TcpServer second(service, {.port = 0});
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
