#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"

/// \file replica_store.hpp
/// Peer-side storage for replicated session snapshots (DESIGN.md §14).
///
/// The shard router promotes the PR 5 spill-to-disk path to spill-to-peer:
/// after each mutating command batch it ships the origin session's
/// versioned, checksummed core::Snapshot to a designated peer backend via
/// the replicate_session command. The peer parks the *validated* snapshot
/// here, keyed by the router's session id (the "origin" — backend-local
/// session ids differ per process, so the router id is the one stable
/// name). On failover, adopt_session promotes the replica into a live
/// session; on session close, drop_replica discards it.
///
/// Monotonicity: each replica carries the router's ship sequence number,
/// and a put() with a stale seq is rejected — a delayed duplicate ship can
/// never roll a replica backwards. A put() that exactly matches the
/// stored replica (same seq, same checksum) answers success instead: a
/// router retrying a ship whose response was torn must converge, not
/// wedge on its own earlier delivery.
///
/// Snapshots are validated (magic, version, checksum) by the
/// replicate_session handler *before* they land here, so everything in the
/// store is restorable modulo engine-option mismatches surfaced at adopt.

namespace rim::svc {

/// Lock-free counters (registered under the "svc" registry source).
struct ReplicaStoreCounters {
  obs::Counter stored;    ///< replicas accepted (new or newer-seq overwrite)
  obs::Counter rejected;  ///< puts refused (stale seq or at capacity)
  obs::Counter adopted;   ///< replicas promoted into live sessions
  obs::Counter dropped;   ///< replicas discarded via drop_replica/close

  [[nodiscard]] io::Json to_json() const;
};

class ReplicaStore {
 public:
  struct Replica {
    std::uint64_t seq = 0;           ///< router ship sequence number
    std::uint64_t checksum = 0;      ///< snapshot payload checksum
    core::Snapshot snapshot;
  };

  explicit ReplicaStore(std::size_t max_replicas = 1024)
      : max_replicas_(max_replicas) {}

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  /// Store \p snapshot as the replica of \p origin at ship sequence
  /// \p seq. \p checksum must be snapshot.payload_checksum(); callers
  /// pass the one their decode verified instead of re-encoding.
  /// Idempotent: a duplicate of the stored replica (same seq and
  /// checksum) is success. False (with \p error) when seq is otherwise
  /// not newer than the stored one, or the store is at capacity with
  /// \p origin absent.
  [[nodiscard]] bool put(std::uint64_t origin, std::uint64_t seq,
                         core::Snapshot snapshot, std::uint64_t checksum,
                         std::string& error)
      RIM_EXCLUDES(store_mutex_);

  /// Remove and return the replica of \p origin (the adopt path: a
  /// promoted replica must not be adoptable twice). False when absent.
  [[nodiscard]] bool take(std::uint64_t origin, Replica& out)
      RIM_EXCLUDES(store_mutex_);

  /// Discard the replica of \p origin. True when one existed.
  bool drop(std::uint64_t origin) RIM_EXCLUDES(store_mutex_);

  [[nodiscard]] std::size_t size() const RIM_EXCLUDES(store_mutex_);

  /// Ascending origin ids of all stored replicas (shard_status, tests).
  [[nodiscard]] std::vector<std::uint64_t> origins() const
      RIM_EXCLUDES(store_mutex_);

  [[nodiscard]] const ReplicaStoreCounters& counters() const {
    return counters_;
  }

 private:
  const std::size_t max_replicas_;
  ReplicaStoreCounters counters_;

  mutable common::Mutex store_mutex_;
  /// std::map: origins() iterates it into deterministic output.
  std::map<std::uint64_t, Replica> replicas_ RIM_GUARDED_BY(store_mutex_);
};

}  // namespace rim::svc
