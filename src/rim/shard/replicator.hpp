#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/svc/transport.hpp"

/// \file replicator.hpp
/// Log replication of routed sessions to a peer shard (DESIGN.md §14.2).
///
/// Every acked mutating request gets the session's next seq (the count of
/// acked mutations) and joins its journal. Every `ship_every` acked
/// mutations a round appends the journal to the session's peer, which
/// keeps a base snapshot plus that log (svc::ReplicaStore); its
/// confirmation empties the journal. The owner's snapshot replaces the
/// append when the peer cannot take it (a new or changed peer, a
/// truncated journal, a refused gap) or to compact the log.
///
/// **Exactly-once failover.** A peer at seq s holds the state after acked
/// mutations 1..s: it skips appended entries it holds and refuses gaps,
/// and a command torn by a lost connection was never acked, so has no
/// seq. restore() appends the unconfirmed journal, adopt_session replays
/// the peer's log there, and the adopted seq must equal the acked one;
/// the router then re-forwards the torn command once.
///
/// The Replicator is transport-agnostic: every backend exchange goes
/// through an injected Exchange callable (the router wires it to its
/// per-backend connections; tests wire fakes). All per-session state
/// lives in ReplicaState, which the *caller* guards (the router holds the
/// session entry mutex across every call here).

namespace rim::shard {

/// One request/response exchange with a named backend. The payload is a
/// deframed protocol.hpp JSON document; implementations frame it, ship
/// it, and deframe the response.
using Exchange = std::function<svc::TransportStatus(
    const std::string& backend, const std::string& payload,
    std::string& response_payload)>;

struct ReplicationPolicy {
  /// Replicate after this many acked mutating commands (1 = after every
  /// mutating command; the replication cadence).
  std::size_t ship_every = 1;
  /// Journal entries beyond this are shed (the journal only grows while
  /// replication fails); see ReplicaState::truncated.
  std::size_t max_journal = 4096;
};

/// Lock-free counters + replication lag histogram (registered under the
/// router's "shard.router" registry source).
struct ReplicatorCounters {
  obs::Counter shipped;             ///< replication rounds a peer acked
  obs::Counter appends;             ///< of those, acked as log appends
  obs::Counter ship_failures;       ///< replication rounds failed
  obs::Counter journal_truncated;   ///< mutations dropped past max_journal
  obs::Counter replays;  ///< journal entries a peer first got at failover
  obs::Counter adoptions;           ///< replicas promoted on a peer
  obs::Counter adoption_failures;   ///< restore() runs that failed
  obs::Histogram lag_ns;            ///< mutation-ack → peer-confirmed lag

  [[nodiscard]] io::Json to_json() const;
};

/// Per-session replication state. Guarded by the owning session entry's
/// mutex (router.hpp); the Replicator never locks.
struct ReplicaState {
  /// Acked mutating requests `peer` has not confirmed, in ack order: the
  /// last one has seq acked_seq, the first acked_seq - journal.size() + 1.
  std::vector<std::string> journal;
  std::uint64_t acked_seq = 0;          ///< acked mutations so far
  std::uint64_t peer_seq = 0;           ///< seq `peer` confirmed holding
  std::size_t snapshot_bytes = 0;       ///< last snapshot sent to `peer`
  std::size_t log_bytes = 0;            ///< appended to `peer` since
  std::uint64_t oldest_unshipped_ns = 0;///< ack time of journal.front()
  std::string peer;                     ///< backend holding the replica
  /// The journal shed acked entries past max_journal: only a snapshot
  /// brings a peer up to date, and failover reports the session lost.
  /// Cleared by the next successful snapshot.
  bool truncated = false;
};

class Replicator {
 public:
  explicit Replicator(ReplicationPolicy policy) : policy_(policy) {}

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Record one acked mutating request \p payload at \p now_ns. Returns
  /// true when the cadence says a replication round is due.
  bool record_mutation(ReplicaState& state, std::string payload,
                       std::uint64_t now_ns);

  /// One replication round to \p peer: append the journal, or ship the
  /// snapshot of \p owner's session \p owner_session. On success the peer
  /// holds acked_seq and the journal empties; on failure it is kept.
  bool ship(std::uint64_t origin, const std::string& owner,
            std::uint64_t owner_session, const std::string& peer,
            const Exchange& exchange, ReplicaState& state,
            std::uint64_t now_ns);

  /// Failover onto \p target (normally the peer): append the journal,
  /// then adopt_session. On success \p backend_session is the promoted
  /// session and the state has no peer; false with \p error when the
  /// target cannot reach acked_seq — the session is lost.
  bool restore(std::uint64_t origin, const std::string& target,
               const Exchange& exchange, ReplicaState& state,
               std::uint64_t& backend_session, std::string& error);

  /// Best-effort drop_replica at the state's peer (session close).
  void drop(std::uint64_t origin, const Exchange& exchange,
            const ReplicaState& state);

  [[nodiscard]] const ReplicatorCounters& counters() const {
    return counters_;
  }

 private:
  const ReplicationPolicy policy_;
  ReplicatorCounters counters_;
};

}  // namespace rim::shard
