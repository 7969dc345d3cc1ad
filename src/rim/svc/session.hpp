#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"
#include "rim/core/scenario.hpp"
#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/token_bucket.hpp"

/// \file session.hpp
/// Multi-tenant session ownership for the scenario service.
///
/// A Session is one tenant's core::Scenario plus a per-session
/// common::Mutex guarding it (handlers lock exactly one session at a time)
/// and a block of lock-free obs counters (safe to read from the metrics
/// registry while the session is being mutated).
///
/// The SessionManager owns the id→session table and enforces the
/// admission-control and memory story (DESIGN.md §9):
///
///  - `max_sessions` caps the total population (live + spilled); creating
///    beyond it is *shed* with code "overloaded", never queued.
///  - `max_live_sessions` caps resident engines. Touching a session beyond
///    the cap evicts the least-recently-used idle session: its
///    core::Snapshot is spilled to disk (binary encoding, checksummed) and
///    the engine is destroyed; the next touch restores it transparently.
///    With an empty `spill_dir`, eviction is disabled and the live cap is
///    enforced at admission instead (create rejects once live == cap).
///  - Busy sessions (a handler holds a checkout) are never evicted; the
///    checkout pin also keeps a concurrently-closed session alive until
///    its in-flight request finishes.
///
/// Lock order is strictly manager → session: the manager lock is held only
/// for table bookkeeping and spill/restore I/O, and handlers acquire the
/// session lock only after releasing the manager (checkout returns a
/// pinned shared_ptr). Eviction locks an *idle* victim's session mutex
/// while holding the manager lock, which cannot contend: idle means no
/// checkout exists, and every locker goes through checkout first.

namespace rim::svc {

/// The admission-control knobs (wire-visible behavior: every limit sheds
/// with an explicit "overloaded"/"bad_frame" response instead of queueing).
struct SvcLimits {
  std::size_t max_sessions = 64;
  std::size_t max_live_sessions = 16;
  /// Requests admitted but not yet answered, across all transports.
  std::size_t max_in_flight = 64;
  /// One frame's payload cap (protocol.hpp).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Directory for LRU snapshot spills; empty disables eviction.
  std::string spill_dir;
  /// Per-tenant fair admission (token_bucket.hpp): each session's bucket
  /// refills at this rate and session commands beyond it are shed with
  /// "overloaded". Non-positive disables per-tenant limiting (the global
  /// in-flight gate still applies).
  double tenant_rate_per_s = 0.0;
  /// Bucket capacity: how many commands a tenant may burst above its
  /// steady rate before being shed (clamped to >= 1).
  double tenant_burst = 16.0;
};

/// Per-session observability (all lock-free; registered as a metrics
/// source that may be snapshotted while the session is mutating).
struct SessionCounters {
  obs::Counter requests;       ///< commands dispatched to this session
  obs::Counter errors;         ///< of those, answered with ok=false
  obs::Counter mutations;      ///< mutations applied (single + batched)
  obs::Counter spills;         ///< times this session was evicted to disk
  obs::Counter spill_restores; ///< times it was restored from disk
  obs::Counter rate_limited;   ///< commands shed by this tenant's bucket
  obs::Counter handle_ns;      ///< total time inside this session's commands
  obs::Histogram latency_ns;   ///< per-command handling latency

  [[nodiscard]] io::Json to_json() const;
};

struct Session {
  Session(std::uint64_t session_id, const core::EvalOptions& options,
          const SvcLimits& limits)
      : id(session_id),
        bucket(limits.tenant_rate_per_s, limits.tenant_burst),
        scenario(options) {}

  const std::uint64_t id;
  SessionCounters counters;
  /// Fair-admission bucket; internally synchronized, checked before the
  /// session mutex is taken so shed commands never touch the Scenario.
  TokenBucket bucket;
  /// DESIGN §9 lock order: the manager's registry mutex, when needed, is
  /// always taken before a session's — spill/unspill walk the registry and
  /// then lock the chosen session, never the reverse.
  common::Mutex mutex RIM_ACQUIRED_AFTER(SessionManager::mutex_);
  core::Scenario scenario RIM_GUARDED_BY(mutex);
};

/// Manager-level counters (lock-free reads for the registry producer).
struct SessionManagerCounters {
  obs::Counter created;
  obs::Counter closed;
  obs::Counter evictions;       ///< LRU spills performed
  obs::Counter spill_restores;  ///< transparent restores from disk
  obs::Counter spill_failures;  ///< spill/restore I/O or validation errors

  [[nodiscard]] io::Json to_json() const;
};

class SessionManager {
 public:
  /// \p eval configures every new session's Scenario.
  explicit SessionManager(SvcLimits limits, core::EvalOptions eval = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Best-effort cleanup of this manager's spill files.
  ~SessionManager();

  /// Create a session. Returns true with the new id and the session
  /// object (for metrics registration), or false with a protocol error
  /// code (code::kOverloaded when at max_sessions, or at the live cap
  /// with eviction disabled) and a human-readable message.
  [[nodiscard]] bool create(std::uint64_t& id,
                            std::shared_ptr<Session>& session,
                            const char*& error_code, std::string& error)
      RIM_EXCLUDES(mutex_);

  /// Close (destroy) a session and delete its spill file. False with
  /// code::kNoSession when the id is unknown. An in-flight checkout keeps
  /// the object alive until released; the table entry goes away now.
  [[nodiscard]] bool close(std::uint64_t id, const char*& error_code,
                           std::string& error) RIM_EXCLUDES(mutex_);

  /// Pin session \p id for one request: restores it from spill when
  /// necessary (evicting another session first if that would exceed the
  /// live cap), marks it busy, and returns it. Returns nullptr with a
  /// protocol error code on unknown id or restore failure. Callers MUST
  /// pair with checkin() after releasing the session mutex.
  [[nodiscard]] std::shared_ptr<Session> checkout(std::uint64_t id,
                                                  const char*& error_code,
                                                  std::string& error)
      RIM_EXCLUDES(mutex_);

  /// Release a checkout pin (the session becomes evictable again).
  void checkin(const std::shared_ptr<Session>& session) RIM_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t session_count() const RIM_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t live_count() const RIM_EXCLUDES(mutex_);

  [[nodiscard]] const SvcLimits& limits() const { return limits_; }
  [[nodiscard]] const SessionManagerCounters& counters() const {
    return counters_;
  }

  /// Manager counters as JSON (lock-free; safe as a registry producer).
  [[nodiscard]] io::Json counters_json() const;

  /// The spill file path for session \p id (for tests).
  [[nodiscard]] std::string spill_path(std::uint64_t id) const;

 private:
  struct Entry {
    std::shared_ptr<Session> session;
    bool spilled = false;        ///< engine state lives in the spill file
    std::size_t busy = 0;        ///< open checkouts (never evict while > 0)
    std::uint64_t last_used = 0; ///< LRU tick of the most recent checkout
  };

  /// Evict idle live sessions until live_headroom holds; called with the
  /// manager lock held. Returns false when no idle victim exists or a
  /// spill fails (the caller proceeds over-cap rather than losing state).
  bool evict_lru_locked() RIM_REQUIRES(mutex_);

  [[nodiscard]] bool spill_locked(std::uint64_t id, Entry& entry)
      RIM_REQUIRES(mutex_);
  [[nodiscard]] bool unspill_locked(std::uint64_t id, Entry& entry,
                                    std::string& error) RIM_REQUIRES(mutex_);
  [[nodiscard]] std::size_t live_count_locked() const RIM_REQUIRES(mutex_);

  const SvcLimits limits_;
  const core::EvalOptions eval_;
  SessionManagerCounters counters_;

  mutable common::Mutex mutex_;
  /// std::map: eviction and metrics iterate it in deterministic order.
  std::map<std::uint64_t, Entry> sessions_ RIM_GUARDED_BY(mutex_);
  std::uint64_t next_id_ RIM_GUARDED_BY(mutex_) = 1;
  std::uint64_t lru_tick_ RIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace rim::svc
