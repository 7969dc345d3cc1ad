#include "rim/svc/tcp.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rim::svc {

namespace {

/// Write the whole buffer, riding out partial sends and EINTR. False when
/// the peer is gone (callers treat that as a dropped connection, not an
/// error — the protocol has no delivery guarantee past the socket).
bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Frame and send one response. A vanished peer is not an error here: the
/// reader sees the drop on its next recv().
void send_response(int fd, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  (void)send_all(fd, frame.data(), frame.size());
}

}  // namespace

TcpServer::TcpServer(RequestHandler& handler, TcpServerConfig config)
    : handler_(handler), config_(config) {}

TcpServer::~TcpServer() { stop(); }

bool TcpServer::start(std::string& error) {
  if (started_.exchange(true)) {
    error = "server already started";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    started_.store(false);
    return false;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    error = std::string("bind/listen on port ") +
            std::to_string(config_.port) + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    started_.store(false);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    error = std::string("getsockname: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    started_.store(false);
    return false;
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void TcpServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) return;
  // 1. Stop accepting: unblock and join the accept thread.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Shut only the read side: an idle reader's recv() returns 0, and a
  // reader inside the handler still writes that response before it sees
  // stopping_ and exits. Then join every reader and close.
  common::MutexLock lock(connections_mutex_);
  for (auto& conn : connections_) ::shutdown(conn->fd, SHUT_RD);
  for (auto& conn : connections_) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
  }
  connections_.clear();
}

void TcpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop()) or unrecoverable
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto conn = std::make_unique<Connection>(fd);
    Connection& ref = *conn;
    {
      common::MutexLock lock(connections_mutex_);
      connections_.push_back(std::move(conn));
    }
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
    reap_connections();
  }
}

void TcpServer::reader_loop(Connection& conn) {
  std::string buffer;
  std::string chunk(std::size_t{1} << 16, '\0');
  const std::size_t max_frame = handler_.max_frame_bytes();
  bool drop = false;
  while (!drop && !stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(conn.fd, chunk.data(), chunk.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk.data(), static_cast<std::size_t>(n));
    // Answer every whole frame read so far, in order; the unanswered
    // tail stays at the front of the buffer for the next recv().
    std::string_view unread = buffer;
    std::size_t size = 0;
    while (true) {
      const FrameStatus status = frame_size(unread, max_frame, size);
      // After stop(), start no further request.
      if (status == FrameStatus::kNeedMore ||
          stopping_.load(std::memory_order_acquire)) {
        break;
      }
      if (status == FrameStatus::kTooLarge) {
        // The stream offset is unrecoverable past an oversized header:
        // answer once, then drop the connection.
        send_response(conn.fd,
                      make_error(0, code::kBadFrame,
                                 "frame exceeds max_frame_bytes (" +
                                     std::to_string(max_frame) + ")"));
        drop = true;
        break;
      }
      // handle() claims the admission slot first and answers a refusal
      // "overloaded" at once (shed-not-queue).
      send_response(conn.fd, handler_.handle(unread.substr(
                                 kFrameHeaderBytes, size - kFrameHeaderBytes)));
      unread.remove_prefix(size);
    }
    buffer.erase(0, buffer.size() - unread.size());
  }
  // The connection is dead (EOF, protocol drop or stop()) but its
  // descriptor is only closed by reap/stop, which may be far off. Send FIN
  // now so a peer blocked in recv() observes the drop instead of hanging.
  ::shutdown(conn.fd, SHUT_RDWR);
  conn.done.store(true, std::memory_order_release);
}

void TcpServer::reap_connections() {
  common::MutexLock lock(connections_mutex_);
  auto it = connections_.begin();
  while (it != connections_.end()) {
    Connection& conn = **it;
    if (conn.done.load(std::memory_order_acquire)) {
      if (conn.reader.joinable()) conn.reader.join();
      ::close(conn.fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

TcpClientTransport::~TcpClientTransport() { disconnect(); }

bool TcpClientTransport::connected() const {
  common::MutexLock lock(io_mutex_);
  return fd_ >= 0;
}

void TcpClientTransport::disconnect() {
  common::MutexLock lock(io_mutex_);
  close_locked();
}

void TcpClientTransport::close_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpClientTransport::connect_to(const std::string& host,
                                    std::uint16_t port, std::string& error) {
  common::MutexLock lock(io_mutex_);
  close_locked();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                               &results);
  if (rc != 0) {
    error = std::string("getaddrinfo(") + host + "): " + ::gai_strerror(rc);
    return false;
  }
  int fd = -1;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    error = "connect to " + host + ":" + port_str + " failed: " +
            std::strerror(errno);
    return false;
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  if (exchange_deadline_ms > 0) {
    timeval deadline{};
    deadline.tv_sec = exchange_deadline_ms / 1000;
    deadline.tv_usec =
        static_cast<suseconds_t>((exchange_deadline_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));
  }
  fd_ = fd;
  return true;
}

TransportStatus TcpClientTransport::roundtrip(std::string_view frame,
                                              std::string& response_frame,
                                              std::string& error) {
  common::MutexLock lock(io_mutex_);
  if (fd_ < 0) {
    error = "not connected";
    return TransportStatus::kConnectionLost;
  }
  if (!send_all(fd_, frame.data(), frame.size())) {
    error = std::string("send: ") + std::strerror(errno);
    // A failed send is a vanished peer (EPIPE/ECONNRESET) or a blown
    // SO_SNDTIMEO deadline — either way the connection is unusable.
    close_locked();
    return TransportStatus::kConnectionLost;
  }
  // Allocated once per transport; later calls reuse it without zeroing.
  if (recv_chunk_.empty()) recv_chunk_.resize(std::size_t{1} << 16);
  response_frame.clear();
  while (true) {
    std::size_t consumed = 0;
    const FrameStatus status =
        frame_size(response_frame, max_response_frame_bytes, consumed);
    if (status == FrameStatus::kFrame) {
      response_frame.resize(consumed);
      return TransportStatus::kOk;
    }
    if (status == FrameStatus::kTooLarge) {
      error = "response frame exceeds max_response_frame_bytes (" +
              std::to_string(max_response_frame_bytes) + ")";
      // The rest of the frame is still unread; the stream cannot be
      // resynchronised, exactly as on the server side.
      close_locked();
      return TransportStatus::kError;
    }
    const ssize_t n = ::recv(fd_, recv_chunk_.data(), recv_chunk_.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      // EOF with a request in flight: the peer died mid-exchange. This is
      // the torn-read case the shard router keys failover on — it must
      // not be conflated with a decode error.
      error = "connection closed by server";
      close_locked();
      return TransportStatus::kConnectionLost;
    }
    if (n < 0) {
      // A deadline or reset is a lost peer; any other error still leaves
      // the stream mid-frame, so the connection goes either way.
      const bool lost = errno == EAGAIN || errno == EWOULDBLOCK ||
                        errno == ECONNRESET || errno == ETIMEDOUT;
      error = std::string("recv: ") + std::strerror(errno);
      close_locked();
      return lost ? TransportStatus::kConnectionLost : TransportStatus::kError;
    }
    response_frame.append(recv_chunk_.data(), static_cast<std::size_t>(n));
  }
}

}  // namespace rim::svc
