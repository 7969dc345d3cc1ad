#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"
#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/shard/hash_ring.hpp"
#include "rim/shard/replicator.hpp"
#include "rim/shard/retry.hpp"
#include "rim/svc/frontend.hpp"
#include "rim/svc/transport.hpp"

/// \file router.hpp
/// The shard router: a consistent-hash front tier over N backend
/// svc::Service processes (DESIGN.md §14).
///
/// The Router is a svc::Frontend — the same front door as svc::Service
/// (admission, envelope prologue, ping/metrics/shutdown) — so it serves
/// the existing length-prefixed JSON wire protocol *unchanged* through the
/// existing transports (svc::TcpServer, svc::LoopbackTransport) and
/// clients speak to it exactly as they would to a single Service.
/// Downstream it speaks the same protocol to each backend over an injected
/// Transport (TCP for real deployments, loopback for tests/benches).
///
/// **Routing.** Session ids are router-assigned and consistent-hashed
/// onto the backend ring (hash_ring.hpp). Session commands are forwarded
/// with only the "session" field rewritten to the backend-local id and
/// the response passed through verbatim, so a router-mediated exchange is
/// byte-identical to a direct one (tests/shard_router_test.cpp pins this
/// command by command). ping/metrics/shutdown (Frontend) and
/// shard_status are answered by the router itself.
///
/// **Replication & failover.** Each acked mutating command gets the
/// session's next seq and joins its journal, which the Replicator
/// appends to the session's peer shard at the configured cadence
/// (replicator.hpp). A backend that fails a health probe enters kSuspect
/// and is retried on the deterministic backoff schedule (retry.hpp); a
/// connection lost mid-forward, or an exhausted probe budget, moves it to
/// kDown (terminal until a probe succeeds again). Sessions owned by a
/// dead backend fail over lazily on next touch: the peer takes the
/// unconfirmed journal and adopts the session up to the acked seq, the
/// router re-forwards the interrupted command — never journaled, since
/// only *acked* commands are, so it applies exactly once — and then
/// replicates to a new peer.
///
/// **Lock order** (machine-checked by rim_lint --project, §13):
///   Router::table_mutex_ → SessionEntry::entry_mutex →
///   Router::ring_mutex_ → Backend::conn_mutex
/// The table lock covers only id→entry bookkeeping; per-session work
/// serializes on the entry mutex (journal order is the replay contract);
/// the ring lock covers placement reads; each backend connection
/// serializes its exchanges last. Helper functions each take exactly one
/// of these so no code path nests them out of order.

namespace rim::shard {

enum class BackendState : std::uint8_t {
  kUp,       ///< serving
  kSuspect,  ///< failed a probe; retrying on the backoff schedule
  kDown,     ///< declared dead; sessions fail over (terminal until a
             ///< reconnect probe succeeds)
};

/// Wire name of a backend state ("up"/"suspect"/"down").
[[nodiscard]] const char* backend_state_name(BackendState state);

/// One backend endpoint: a ring member name plus a factory producing a
/// connected transport to it (nullptr when connecting fails).
struct BackendEndpoint {
  std::string name;
  std::function<std::unique_ptr<svc::Transport>()> connect;
  /// Optional dedicated health-probe connection factory, typically built
  /// with a short socket deadline so a wedged backend is detected rather
  /// than waited on. Forwards must NOT share that deadline — a
  /// legitimately slow bulk command (a million-node apply_batch) is not
  /// ill health. When absent, probes share `connect`.
  std::function<std::unique_ptr<svc::Transport>()> probe_connect;
};

struct RouterConfig {
  std::vector<BackendEndpoint> backends;
  /// Virtual ring points per backend (hash_ring.hpp).
  std::size_t vnodes = 64;
  /// Router-level in-flight admission cap (shed-not-queue, §9).
  std::size_t max_in_flight = 256;
  /// Per-frame payload cap enforced by the router's transports.
  std::size_t max_frame_bytes = svc::kDefaultMaxFrameBytes;
  /// Replication cadence + journal bound (replicator.hpp).
  ReplicationPolicy replication{};
  /// Health probe retry schedule (retry.hpp); max_attempts consecutive
  /// probe failures move a backend kSuspect → kDown.
  BackoffPolicy health_backoff{};
  /// Monitor thread probe cadence.
  std::uint64_t health_interval_ms = 200;
  /// Accept the "shutdown" command (rim_cli router turns this on).
  bool allow_shutdown = false;
};

/// Counters only a Router keeps (lock-free; the shared front-end counters
/// live in svc::Frontend, and both land in the "shard.router" source's
/// "counters" object).
struct RouterCounters {
  obs::Counter routed;              ///< exchanges forwarded to backends
  obs::Counter forward_failures;    ///< forwards failed after failover
  obs::Counter failovers;           ///< backend transitions to kDown
  obs::Counter sessions_moved;      ///< sessions migrated to a new owner
  obs::Counter lost_sessions;       ///< sessions no backend could restore

  void write_json(io::JsonObject& object) const;
};

/// One backend's runtime: connection, probe schedule, failover state.
struct Backend {
  Backend(std::string backend_name,
          std::function<std::unique_ptr<svc::Transport>()> transport_factory,
          std::function<std::unique_ptr<svc::Transport>()>
              probe_transport_factory,
          const BackoffPolicy& policy)
      : name(std::move(backend_name)),
        factory(std::move(transport_factory)),
        probe_factory(std::move(probe_transport_factory)),
        backoff(policy) {}

  const std::string name;
  const std::function<std::unique_ptr<svc::Transport>()> factory;
  /// Health-probe connection factory (empty = probes share `factory`
  /// and the forward connection).
  const std::function<std::unique_ptr<svc::Transport>()> probe_factory;
  /// Failover state machine; atomic so routing reads it without the
  /// connection lock (transitions: kUp↔kSuspect via probes, →kDown via
  /// exhausted probes or a lost forward, kDown→kUp via a probe success).
  std::atomic<BackendState> state{BackendState::kUp};
  obs::Counter routed;  ///< exchanges attempted against this backend
  obs::Counter failed;  ///< of those, failed (lost or errored)

  /// DESIGN §14 lock order: acquired last, after any table/entry/ring
  /// lock — one backend exchange at a time.
  common::Mutex conn_mutex RIM_ACQUIRED_AFTER(Router::ring_mutex_);
  std::unique_ptr<svc::Transport> transport RIM_GUARDED_BY(conn_mutex);
  /// Dedicated probe connection (only when probe_factory is set).
  std::unique_ptr<svc::Transport> probe_transport RIM_GUARDED_BY(conn_mutex);
  Backoff backoff RIM_GUARDED_BY(conn_mutex);
};

/// One routed session: placement + replication state. Commands for a
/// session serialize on entry_mutex — journal append order is the
/// failover replay order, so it must match the ack order exactly.
struct SessionEntry {
  explicit SessionEntry(std::uint64_t session_id) : id(session_id) {}

  const std::uint64_t id;  ///< router-assigned (wire-visible) session id
  /// DESIGN §14 lock order: after the table lock, before ring/connection.
  common::Mutex entry_mutex RIM_ACQUIRED_AFTER(Router::table_mutex_)
      RIM_ACQUIRED_BEFORE(Router::ring_mutex_);
  std::string owner RIM_GUARDED_BY(entry_mutex);  ///< owning backend name
  std::uint64_t backend_session RIM_GUARDED_BY(entry_mutex) = 0;
  bool lost RIM_GUARDED_BY(entry_mutex) = false;
  ReplicaState repl RIM_GUARDED_BY(entry_mutex);
};

class Router final : public svc::Frontend {
 public:
  explicit Router(RouterConfig config);
  ~Router() override;

  /// Start the background health monitor (idempotent). Tests drive
  /// health_sweep() directly with synthetic time instead.
  void start_health_monitor();

  /// Stop the health monitor and join its thread (idempotent; the
  /// destructor calls it).
  void stop();

  /// One synchronous probe pass over all backends at \p now_ns.
  void health_sweep(std::uint64_t now_ns);

  [[nodiscard]] const RouterConfig& config() const { return config_; }
  [[nodiscard]] const RouterCounters& counters() const { return counters_; }
  [[nodiscard]] const Replicator& replicator() const { return replicator_; }

  [[nodiscard]] std::size_t session_count() const RIM_EXCLUDES(table_mutex_);

  /// State of backend \p name (kDown when unknown).
  [[nodiscard]] BackendState backend_state(const std::string& name) const;

 private:
  [[nodiscard]] std::string dispatch_command(std::uint64_t id,
                                             const std::string& command,
                                             const io::Json& request) override;
  [[nodiscard]] std::string create_session(std::uint64_t id);
  [[nodiscard]] std::string close_session(std::uint64_t id,
                                          const io::Json& request);
  [[nodiscard]] std::string route_session_command(std::uint64_t id,
                                                  const std::string& command,
                                                  const io::Json& request);
  /// Forward one session command; retries across failovers. Requires the
  /// entry mutex (journal order is the replay contract).
  [[nodiscard]] std::string forward_locked(SessionEntry& entry,
                                           std::uint64_t id,
                                           const std::string& command,
                                           const io::Json& request)
      RIM_REQUIRES(entry.entry_mutex);
  /// Move \p entry off its dead owner: restore at the replica peer (or
  /// any live backend when the peer is gone), then ship to a new peer.
  [[nodiscard]] bool failover_locked(SessionEntry& entry, std::string& error)
      RIM_REQUIRES(entry.entry_mutex);
  /// One replication round to \p entry's ring-designated peer.
  void replicate_locked(SessionEntry& entry) RIM_REQUIRES(entry.entry_mutex);
  [[nodiscard]] std::string shard_status(std::uint64_t id);

  // --- single-lock helpers (each takes exactly one lock; see file
  // comment for why no caller nests them out of order) ----------------
  [[nodiscard]] std::shared_ptr<SessionEntry> find_entry(std::uint64_t sid)
      const RIM_EXCLUDES(table_mutex_);
  [[nodiscard]] std::shared_ptr<SessionEntry> allocate_entry()
      RIM_EXCLUDES(table_mutex_);
  void erase_entry(std::uint64_t sid) RIM_EXCLUDES(table_mutex_);
  [[nodiscard]] std::string pick_owner(std::uint64_t sid) const
      RIM_EXCLUDES(ring_mutex_);
  /// First live ring member distinct from \p exclude for \p sid's key.
  [[nodiscard]] std::string pick_peer_for(std::uint64_t sid,
                                          const std::string& exclude) const
      RIM_EXCLUDES(ring_mutex_);
  /// One framed exchange on \p backend's connection (lazy reconnect). A
  /// lost connection resets the transport and declares the backend down.
  [[nodiscard]] svc::TransportStatus exchange_with(Backend& backend,
                                                   const std::string& payload,
                                                   std::string& response)
      RIM_EXCLUDES(backend.conn_mutex);
  /// Probe \p backend once at \p now_ns (ping + state transition).
  void probe_backend(Backend& backend, std::uint64_t now_ns)
      RIM_EXCLUDES(backend.conn_mutex);

  [[nodiscard]] Backend* backend_by_name(const std::string& name) const;
  [[nodiscard]] std::set<std::string> down_backends() const;
  void mark_backend_down(Backend& backend);
  [[nodiscard]] static std::uint64_t ring_key(std::uint64_t sid);
  void mark_lost_locked(SessionEntry& entry)
      RIM_REQUIRES(entry.entry_mutex);

  const RouterConfig config_;
  /// Fixed at construction; Backend instances own all mutable state.
  const std::vector<std::unique_ptr<Backend>> backends_;
  Replicator replicator_;
  RouterCounters counters_;
  /// Name-addressed exchange closure handed to the Replicator.
  const Exchange exchange_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> health_running_{false};

  mutable common::Mutex table_mutex_;
  /// std::map: shard_status iterates it into deterministic output.
  std::map<std::uint64_t, std::shared_ptr<SessionEntry>> sessions_
      RIM_GUARDED_BY(table_mutex_);
  std::uint64_t next_session_id_ RIM_GUARDED_BY(table_mutex_) = 1;

  mutable common::Mutex ring_mutex_ RIM_ACQUIRED_AFTER(Router::table_mutex_);
  HashRing ring_ RIM_GUARDED_BY(ring_mutex_);

  /// Monitor-thread parking only; never held with any other lock.
  common::Mutex health_mutex_;
  std::condition_variable health_cv_;
  std::thread health_thread_;
};

}  // namespace rim::shard
