#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"
#include "rim/svc/transport.hpp"

/// \file tcp.hpp
/// POSIX TCP transport for the scenario service.
///
/// TcpServer binds a loopback listener and runs one accept thread plus one
/// reader thread per connection. A reader serves its connection inline:
/// it frame-checks the bytes it has read, hands RequestHandler::handle() a
/// view of each payload in its own buffer, and writes the response from
/// the same thread. handle() claims an admission ticket first and answers
/// a refusal "overloaded" at once, so a saturated service sheds instead of
/// queueing (shed-not-queue, service.hpp). Frames pipelined on one connection are
/// answered in order, one response per request frame. A slow request
/// stalls only its own connection: every other connection has its own
/// reader. An oversized frame gets a "bad_frame" response and the
/// connection is dropped — the stream offset is unrecoverable past a
/// corrupt header.
///
/// The server speaks to any RequestHandler (handler.hpp): a svc::Service
/// backend or a shard::Router front tier — the wire protocol is identical
/// either way.
///
/// stop() is idempotent and clean: stop accepting, shut the read side of
/// every connection so each reader finishes the request it is handling,
/// writes that response and exits, join every reader, close. TcpServer's
/// destructor calls it.

namespace rim::svc {

struct TcpServerConfig {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
};

class TcpServer {
 public:
  TcpServer(RequestHandler& handler, TcpServerConfig config);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + start the accept thread. False with \p error on
  /// socket failure (e.g. port in use).
  [[nodiscard]] bool start(std::string& error);

  /// The bound port (resolves an ephemeral request after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stop accepting, answer the requests being handled, close every
  /// connection, join every thread. Safe to call twice. Must not be called
  /// from inside the handler (a reader cannot join itself).
  void stop();

 private:
  struct Connection {
    explicit Connection(int socket_fd) : fd(socket_fd) {}
    /// Set once at accept time, before the reader thread exists; const-ness
    /// is what makes the cross-thread reads (reader, stop()) race-free
    /// without a lock. Only the reader sends on the socket.
    const int fd;
    std::thread reader;
    std::atomic<bool> done{false};  ///< reader thread has exited
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  /// Join and drop connections whose readers have exited.
  void reap_connections() RIM_EXCLUDES(connections_mutex_);

  RequestHandler& handler_;
  const TcpServerConfig config_;

  /// Written by start(), read by the accept thread and by stop() (which
  /// shuts the socket down from another thread to unblock ::accept), so
  /// both are atomic rather than lock-protected.
  std::atomic<int> listen_fd_{-1};
  std::atomic<std::uint16_t> port_{0};
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  common::Mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      RIM_GUARDED_BY(connections_mutex_);
};

/// Client side: one blocking socket, one request/response exchange at a
/// time (roundtrip() is internally serialized so a shared client is safe,
/// but pipelining is intentionally not offered — the protocol is strictly
/// request/response per frame).
class TcpClientTransport final : public Transport {
 public:
  TcpClientTransport() = default;
  ~TcpClientTransport() override;

  TcpClientTransport(const TcpClientTransport&) = delete;
  TcpClientTransport& operator=(const TcpClientTransport&) = delete;

  /// Connect to \p host:\p port (numeric IPv4 or a resolvable name).
  /// Applies exchange_deadline_ms to the socket when set.
  [[nodiscard]] bool connect_to(const std::string& host, std::uint16_t port,
                                std::string& error);

  [[nodiscard]] bool connected() const RIM_EXCLUDES(io_mutex_);
  void disconnect() RIM_EXCLUDES(io_mutex_);

  /// One exchange. kConnectionLost covers every "the peer is gone" shape:
  /// not connected, send/recv reset, EOF mid-frame, and a blown
  /// exchange_deadline_ms (an unresponsive backend is indistinguishable
  /// from a dead one to the caller's failover logic). An oversized
  /// response and any other recv error are kError, and they close the
  /// socket too: the rest of the frame is still unread, so the stream
  /// offset is lost and the next exchange reports kConnectionLost.
  [[nodiscard]] TransportStatus roundtrip(std::string_view frame,
                                          std::string& response_frame,
                                          std::string& error) override;

  /// Response payload frames larger than this are treated as a transport
  /// error (default matches the server-side frame cap).
  // RIM_LINT_ALLOW(project-annotation-coverage): pre-connection
  // configuration knob — set before the client is shared, constant during
  // exchanges (the documented request/response-per-frame contract).
  std::size_t max_response_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-exchange socket deadline in milliseconds (SO_RCVTIMEO/SO_SNDTIMEO,
  /// applied at connect time); 0 blocks forever. The shard router's health
  /// pings set this so a wedged backend is detected, not waited on.
  // RIM_LINT_ALLOW(project-annotation-coverage): pre-connection
  // configuration knob — set before connect_to(), constant afterwards.
  std::uint32_t exchange_deadline_ms = 0;

 private:
  mutable common::Mutex io_mutex_;
  int fd_ RIM_GUARDED_BY(io_mutex_) = -1;
  /// recv() target, reused by every exchange.
  std::string recv_chunk_ RIM_GUARDED_BY(io_mutex_);

  /// Close the socket; the next exchange reports kConnectionLost.
  void close_locked() RIM_REQUIRES(io_mutex_);
};

}  // namespace rim::svc
