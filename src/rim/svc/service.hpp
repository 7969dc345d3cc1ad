#pragma once

#include <cstdint>
#include <string>

#include "rim/obs/metrics.hpp"
#include "rim/svc/frontend.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/replica_store.hpp"
#include "rim/svc/session.hpp"

/// \file service.hpp
/// The request-serving layer over core::Scenario (DESIGN.md §9).
///
/// Service is a svc::Frontend (frontend.hpp: admission, the envelope
/// prologue, ping/metrics/shutdown) whose command table maps one request
/// onto the Scenario surface of the addressed session and returns exactly
/// one response payload. It is transport-agnostic and
/// thread-safe: LoopbackTransport calls it inline on the caller's thread,
/// TcpServer inline on each connection's reader thread — concurrently for
/// different connections.
///
/// **Admission control sheds, never queues.** Every request first claims
/// an in-flight ticket (Frontend's relaxed-atomic gauge). At
/// `max_in_flight` the claim fails and the caller answers code
/// "overloaded" immediately — transports check `try_admit()` *before*
/// handling a request, so an overloaded service never parks work. The
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
/// thread (`apply_batch(batch, nullptr)`): concurrent requests already
/// occupy one transport thread each (a TcpServer reader per connection),
/// and a handler must not wait_idle() on a pool it may be running on (the
/// §8 contract sim::WorkloadDriver documents). A deferred batch still gets
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

/// Counters only a Service keeps (the shared front-end counters live in
/// Frontend; both land in the "svc" source's "counters" object).
struct ServiceCounters {
  obs::Counter rejected_tenant;  ///< shed by a per-tenant token bucket

  void write_json(io::JsonObject& object) const;
};

class Service final : public Frontend {
 public:
  explicit Service(ServiceConfig config);
  ~Service() override;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] SessionManager& sessions() { return sessions_; }
  [[nodiscard]] ReplicaStore& replicas() { return replicas_; }
  [[nodiscard]] const ServiceCounters& counters() const { return counters_; }

 private:
  [[nodiscard]] std::string dispatch_command(std::uint64_t id,
                                             const std::string& command,
                                             const io::Json& request) override;
  /// Commands addressing one session: checkout, run, checkin.
  [[nodiscard]] std::string dispatch_session_command(
      std::uint64_t id, const std::string& command, const io::Json& request);
  /// Shard replication commands (replicate_session/adopt_session/
  /// drop_replica — protocol.hpp, DESIGN.md §14).
  [[nodiscard]] std::string dispatch_replica_command(
      std::uint64_t id, const std::string& command, const io::Json& request);
  /// Create a session and register its "svc.session.<id>" metrics source.
  /// False with \p refusal set to the error envelope when the manager
  /// refuses (an "overloaded" refusal is also counted).
  [[nodiscard]] bool open_session(std::uint64_t id, std::uint64_t& session_id,
                                  std::string& refusal);

  ServiceConfig config_;
  SessionManager sessions_;
  ReplicaStore replicas_;
  ServiceCounters counters_;
};

}  // namespace rim::svc
