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
/// Peer-side storage for replicated sessions (DESIGN.md §14.2).
///
/// A replica is a base snapshot plus the ordered log of acked mutating
/// requests the shard router appended after it, keyed by the router's
/// session id (the "origin": backend-local ids differ per process). Seq s
/// means the state after the origin's acked mutations 1..s; a replica
/// first named by an append starts from the empty base at seq 0. Replicas
/// are stored text plus a decoded snapshot, never a live engine:
/// adopt_session restores the base and replays the log.
///
/// Writes converge under resends: append() skips entries the replica
/// holds and refuses a gap, and put() refuses a snapshot older than the
/// replica. Snapshots are validated (magic, version, checksum) by the
/// replicate_session handler *before* they land here.

namespace rim::svc {

/// Lock-free counters (registered under the "svc" registry source).
struct ReplicaStoreCounters {
  obs::Counter stored;    ///< snapshots accepted (new or newer-seq overwrite)
  obs::Counter appended;  ///< log entries accepted (skipped resends excluded)
  obs::Counter rejected;  ///< writes refused (stale, gap or at capacity)
  obs::Counter adopted;   ///< replicas promoted into live sessions
  obs::Counter dropped;   ///< replicas discarded via drop_replica/close

  [[nodiscard]] io::Json to_json() const;
};

class ReplicaStore {
 public:
  struct Replica {
    std::uint64_t seq = 0;       ///< base seq + log.size()
    std::uint64_t checksum = 0;  ///< base snapshot payload checksum
    bool has_snapshot = false;   ///< false: the base is the empty session
    core::Snapshot snapshot;
    std::vector<std::string> log;  ///< acked requests after the base
    std::size_t bytes = 0;         ///< base array bytes + log text bytes
  };

  explicit ReplicaStore(std::size_t max_replicas = 1024)
      : max_replicas_(max_replicas) {}

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  /// Replace \p origin's replica with \p snapshot at \p seq and an empty
  /// log. \p checksum is the payload checksum the caller's decode
  /// verified. A resend (a log-free replica's seq and checksum) is
  /// success. False (with \p error) when seq is below the replica's,
  /// equals a log-free one's with another checksum, or the store is full.
  [[nodiscard]] bool put(std::uint64_t origin, std::uint64_t seq,
                         core::Snapshot snapshot, std::uint64_t checksum,
                         std::string& error) RIM_EXCLUDES(store_mutex_);

  struct AppendResult {
    bool gap = false;          ///< refused: \p seq was past held seq + 1
    std::uint64_t seq = 0;     ///< the replica's seq afterwards
    std::size_t appended = 0;  ///< entries that were new
    std::string error;         ///< empty on success
  };

  /// Append \p entries, the acked requests with seqs \p seq, seq+1, ...,
  /// to \p origin's log, creating an empty-base replica when absent.
  /// Entries at or below the replica's seq are skipped as resends.
  [[nodiscard]] AppendResult append(std::uint64_t origin, std::uint64_t seq,
                                    std::vector<std::string> entries)
      RIM_EXCLUDES(store_mutex_);

  /// Remove and return the replica of \p origin (the adopt path: a
  /// promoted replica must not be adoptable twice). False when absent.
  [[nodiscard]] bool take(std::uint64_t origin, Replica& out)
      RIM_EXCLUDES(store_mutex_);

  /// Discard the replica of \p origin. True when one existed.
  bool drop(std::uint64_t origin) RIM_EXCLUDES(store_mutex_);

  [[nodiscard]] std::size_t size() const RIM_EXCLUDES(store_mutex_);

  /// Replica::bytes summed over every stored replica.
  [[nodiscard]] std::size_t bytes() const RIM_EXCLUDES(store_mutex_);

  [[nodiscard]] const ReplicaStoreCounters& counters() const {
    return counters_;
  }

 private:
  /// Capacity check for a write that would add \p origin.
  [[nodiscard]] bool has_room_locked(std::uint64_t origin, std::string& error)
      RIM_REQUIRES(store_mutex_);

  const std::size_t max_replicas_;
  ReplicaStoreCounters counters_;

  mutable common::Mutex store_mutex_;
  std::map<std::uint64_t, Replica> replicas_ RIM_GUARDED_BY(store_mutex_);
};

}  // namespace rim::svc
