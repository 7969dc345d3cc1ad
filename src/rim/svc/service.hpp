#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/obs/registry.hpp"
#include "rim/svc/handler.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/replica_store.hpp"
#include "rim/svc/session.hpp"

/// \file service.hpp
/// The request-serving layer over core::Scenario (DESIGN.md §9).
///
/// Service::handle() maps one request payload (a deframed protocol.hpp
/// JSON document) onto the Scenario surface of the addressed session and
/// returns exactly one response payload. It is transport-agnostic and
/// thread-safe: LoopbackTransport calls it inline on the caller's thread,
/// TcpServer calls it from dispatch-pool workers — concurrently for
/// different connections.
///
/// **Admission control sheds, never queues.** Every request first claims
/// an in-flight ticket (a relaxed-atomic gauge). At `max_in_flight` the
/// claim fails and the caller answers code "overloaded" immediately —
/// transports check `try_admit()` *before* enqueueing work, so an
/// overloaded service's dispatch queue cannot grow without bound. The
/// same applies to `max_sessions` (SessionManager) and oversized frames
/// (transports answer "bad_frame" and drop the connection).
///
/// **Per-tenant fairness.** The in-flight gate alone is first-come-
/// first-served: a hog tenant can starve everyone behind it. With
/// `SvcLimits::tenant_rate_per_s` set, every session carries a
/// svc::TokenBucket and each session command spends one token — a tenant
/// over its rate is shed with the same "overloaded" envelope (counted in
/// `rejected_tenant` and the session's `rate_limited`) while other
/// tenants' buckets, and therefore their throughput, are unaffected.
///
/// **Threading.** Lock order is service-internal and strictly
/// manager → session (session.hpp); handlers hold exactly one session
/// mutex while touching its Scenario. Batches run inline on the handler
/// thread (`apply_batch(batch, nullptr)`): concurrent sessions already
/// occupy the transport's dispatch workers, and a handler on a
/// dispatch-pool worker must not wait_idle() on a pool it shares (the §8
/// contract sim::WorkloadDriver documents). A deferred batch still gets
/// parallelism from the next query's full evaluation, which Strategy::kAuto
/// runs on the shared pool for large sessions.
///
/// Every counter here is an obs primitive; `metrics` serves the service's
/// obs::Registry snapshot ("svc" plus one "svc.session.<id>" source per
/// session, all lock-free producers).

namespace rim::svc {

struct ServiceConfig {
  SvcLimits limits;
  /// EvalOptions for every session's Scenario.
  core::EvalOptions eval{};
  /// Accept "fault"/"recover" fields on apply_batch (test/chaos tooling;
  /// production services keep this off and answer "fault_disabled").
  bool enable_fault_injection = false;
  /// Accept the "shutdown" command (rim_cli serve turns this on so the
  /// CI smoke test can stop the server cleanly over the wire).
  bool allow_shutdown = false;
};

/// Global service counters (lock-free; the "svc" registry source).
struct ServiceCounters {
  obs::Counter requests;            ///< payloads handled (ok + error)
  obs::Counter ok;                  ///< answered ok=true
  obs::Counter errors;              ///< answered ok=false (any code)
  obs::Counter rejected_overloaded; ///< shed by the global in-flight gate
  obs::Counter rejected_tenant;     ///< shed by a per-tenant token bucket
  obs::Counter rejected_bad_frame;  ///< unparseable payloads
  obs::Counter handle_ns;           ///< total time inside handle paths
  obs::Histogram latency_ns;        ///< per-request handling latency

  [[nodiscard]] io::Json to_json() const;
};

class Service final : public RequestHandler {
 public:
  explicit Service(ServiceConfig config);
  ~Service() override;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// The admission slot type (handler.hpp; the name predates the
  /// RequestHandler split and is kept for existing callers).
  using Ticket = RequestHandler::Ticket;

  /// Claim an in-flight slot; falsy at max_in_flight. Transports call
  /// this *before* enqueueing dispatch work so excess load is shed at
  /// the door, not parked in a queue.
  [[nodiscard]] Ticket try_admit() override;

  /// Dispatch a payload whose admission ticket the caller already holds.
  [[nodiscard]] std::string handle_admitted(std::string_view payload) override;

  /// The "overloaded" response for \p payload (echoes its id when it
  /// parses). Also counts the rejection.
  [[nodiscard]] std::string overloaded_response(
      std::string_view payload) override;

  [[nodiscard]] std::size_t max_frame_bytes() const override {
    return config_.limits.max_frame_bytes;
  }

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] SessionManager& sessions() { return sessions_; }
  [[nodiscard]] ReplicaStore& replicas() { return replicas_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const ServiceCounters& counters() const { return counters_; }

  /// True once a "shutdown" command was accepted.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Block until shutdown_requested() (rim_cli serve's main loop).
  void wait_shutdown() RIM_EXCLUDES(shutdown_mutex_);

  /// Trip the shutdown flag locally (tests; signal handlers).
  void request_shutdown() RIM_EXCLUDES(shutdown_mutex_);

 protected:
  void release_admission() override {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::string dispatch(std::string_view payload);
  [[nodiscard]] std::string dispatch_command(std::uint64_t id,
                                             const std::string& command,
                                             const io::Json& request);
  /// Commands addressing one session: checkout, run, checkin.
  [[nodiscard]] std::string dispatch_session_command(
      std::uint64_t id, const std::string& command, const io::Json& request);
  /// Shard replication commands (replicate_session/adopt_session/
  /// drop_replica — protocol.hpp, DESIGN.md §14).
  [[nodiscard]] std::string dispatch_replica_command(
      std::uint64_t id, const std::string& command, const io::Json& request);

  ServiceConfig config_;
  SessionManager sessions_;
  ReplicaStore replicas_;
  obs::Registry registry_;
  ServiceCounters counters_;

  std::atomic<std::size_t> in_flight_{0};

  std::atomic<bool> shutdown_{false};
  common::Mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
};

}  // namespace rim::svc
