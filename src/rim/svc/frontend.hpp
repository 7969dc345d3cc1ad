#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/obs/registry.hpp"
#include "rim/svc/handler.hpp"

/// \file frontend.hpp
/// The one front door of the serving tier (DESIGN.md §9, §14).
///
/// svc::Service and shard::Router answer the same wire protocol and must
/// be indistinguishable to a client, so everything a request meets before
/// it reaches a command table lives here once:
///
///  - admission: the in-flight gauge behind try_admit()/Ticket, the
///    "overloaded" envelope, and the per-frame cap;
///  - the envelope prologue: parse, `id`, `cmd`, with the shared
///    ok/error/bad_frame accounting;
///  - the commands every front end answers itself: `ping`, `metrics` (the
///    obs::Registry snapshot) and `shutdown`;
///  - the shutdown flag behind wait_shutdown()/request_shutdown().
///
/// A derived front end supplies only dispatch_command() — its command
/// table — and registers its own metrics source, writing its extra
/// counters into the same "counters" object via counters_json().

namespace rim::svc {

/// Counters every front end keeps (lock-free obs primitives).
struct FrontendCounters {
  obs::Counter requests;            ///< payloads handled (ok + error)
  obs::Counter ok;                  ///< answered ok=true
  obs::Counter errors;              ///< answered ok=false (any code)
  obs::Counter rejected_overloaded; ///< shed by the in-flight gate (or a
                                    ///< session cap)
  obs::Counter rejected_bad_frame;  ///< unparseable payloads
  obs::Counter handle_ns;           ///< total time inside handle paths
  obs::Histogram latency_ns;        ///< per-request handling latency

  /// Add every counter to \p object under its field name.
  void write_json(io::JsonObject& object) const;
};

class Frontend : public RequestHandler {
 public:
  /// How often wait_shutdown() re-checks the shutdown flag.
  static constexpr std::chrono::milliseconds kShutdownPollInterval{20};

  Frontend(std::size_t max_in_flight, std::size_t max_frame_bytes,
           bool allow_shutdown);
  ~Frontend() override = default;

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Claim an in-flight slot; falsy at max_in_flight. Transports call
  /// this *before* enqueueing dispatch work so excess load is shed at
  /// the door, not parked in a queue.
  [[nodiscard]] Ticket try_admit() final;

  /// Parse the envelope, answer ping/metrics/shutdown, hand every other
  /// command to dispatch_command(), and count the outcome.
  [[nodiscard]] std::string handle_admitted(std::string_view payload) final;

  /// The "overloaded" response for \p payload (echoes its id when it
  /// parses). Also counts the rejection.
  [[nodiscard]] std::string overloaded_response(
      std::string_view payload) final;

  [[nodiscard]] std::size_t max_frame_bytes() const final {
    return max_frame_bytes_;
  }

  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const FrontendCounters& frontend_counters() const {
    return frontend_counters_;
  }

  /// True once a "shutdown" command was accepted or request_shutdown()
  /// was called.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Block until shutdown_requested(), re-checking the flag every
  /// kShutdownPollInterval (rim_cli serve/router's main loop).
  void wait_shutdown() const;

  /// Trip the shutdown flag. Async-signal-safe: it is one store to a
  /// lock-free atomic, so SIGINT/SIGTERM handlers may call it.
  void request_shutdown() noexcept {
    shutdown_.store(true, std::memory_order_release);
  }

 protected:
  void release_admission() final {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Admission slots currently held (the metrics "in_flight" gauge).
  [[nodiscard]] std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// The derived front end's command table: answer \p command (anything
  /// but ping/metrics/shutdown) for request \p id. Unknown names answer
  /// code "unknown_command".
  [[nodiscard]] virtual std::string dispatch_command(
      std::uint64_t id, const std::string& command,
      const io::Json& request) = 0;

  /// The metrics "counters" object: the shared counters plus \p extra's
  /// (any struct with `void write_json(io::JsonObject&) const`).
  template <typename Extra>
  [[nodiscard]] io::Json counters_json(const Extra& extra) const {
    io::JsonObject object;
    frontend_counters_.write_json(object);
    extra.write_json(object);
    return io::Json(std::move(object));
  }

  FrontendCounters frontend_counters_;

 private:
  [[nodiscard]] std::string dispatch(std::string_view payload);

  const std::size_t max_in_flight_;
  const std::size_t max_frame_bytes_;
  const bool allow_shutdown_;
  obs::Registry registry_;
  std::atomic<std::size_t> in_flight_{0};

  static_assert(std::atomic<bool>::is_always_lock_free,
                "request_shutdown() must stay async-signal-safe");
  std::atomic<bool> shutdown_{false};
};

}  // namespace rim::svc
