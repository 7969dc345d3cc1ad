#pragma once

#include <cstddef>
#include <string>
#include <string_view>

/// \file handler.hpp
/// The transport-facing request surface of the serving layer.
///
/// Transports (LoopbackTransport, TcpServer) need exactly four operations
/// from whatever answers the wire protocol:
///
///  - try_admit(): claim one in-flight slot *before* handling a request
///    (the shed-not-queue contract, DESIGN.md §9). The returned Ticket
///    releases the slot on destruction.
///  - handle_admitted(): dispatch a payload whose slot the caller holds.
///  - overloaded_response(): the "overloaded" envelope for a refused
///    payload (echoes its id when it parses).
///  - max_frame_bytes(): the admission cap transports enforce per frame.
///
/// handle() composes admit + dispatch; both transports serve through it,
/// on the thread that read the frame.
///
/// svc::Frontend (frontend.hpp) is the library's one front door behind
/// this interface: svc::Service and shard::Router both derive from it and
/// add only their command tables, which is why a client cannot tell them
/// apart. The interface stays a separate seam so a decorator (a timing
/// wrapper, a test double) can stand in front of any handler.

namespace rim::svc {

class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  /// One in-flight admission slot. Move-only RAII: releases on
  /// destruction. Falsy when admission was refused.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(RequestHandler* handler) : handler_(handler) {}
    Ticket(Ticket&& other) noexcept : handler_(other.handler_) {
      other.handler_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        release();
        handler_ = other.handler_;
        other.handler_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { release(); }

    explicit operator bool() const { return handler_ != nullptr; }
    void release() {
      if (handler_ != nullptr) {
        handler_->release_admission();
        handler_ = nullptr;
      }
    }

   private:
    RequestHandler* handler_ = nullptr;
  };

  /// Claim an in-flight slot; falsy at the handler's in-flight cap.
  [[nodiscard]] virtual Ticket try_admit() = 0;

  /// Dispatch a payload whose admission ticket the caller already holds.
  [[nodiscard]] virtual std::string handle_admitted(
      std::string_view payload) = 0;

  /// The "overloaded" response for \p payload. Also counts the rejection.
  [[nodiscard]] virtual std::string overloaded_response(
      std::string_view payload) = 0;

  /// Per-frame payload cap transports enforce before dispatching.
  [[nodiscard]] virtual std::size_t max_frame_bytes() const = 0;

  /// Admit + dispatch in one call. Sheds with an "overloaded" response
  /// when try_admit() fails.
  [[nodiscard]] std::string handle(std::string_view payload) {
    Ticket ticket = try_admit();
    if (!ticket) return overloaded_response(payload);
    return handle_admitted(payload);
  }

 protected:
  /// Return one in-flight slot (Ticket destruction path).
  virtual void release_admission() = 0;
};

}  // namespace rim::svc
