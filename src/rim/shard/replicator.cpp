#include "rim/shard/replicator.hpp"

#include <utility>

#include "rim/svc/protocol.hpp"

namespace rim::shard {

namespace {

/// What a peer's empty base counts as in the compaction rule, having no
/// snapshot to measure: appending a new session's first few KiB is
/// cheaper than a snapshot round trip.
constexpr std::size_t kEmptyBaseBytes = std::size_t{4} << 10;

/// Run one exchange and parse the response envelope. True iff the
/// exchange succeeded and the response is ok:true; \p result then holds
/// the "result" document (null Json when absent).
bool call_ok(const Exchange& exchange, const std::string& backend,
             const std::string& payload, io::Json& result,
             std::string& error) {
  std::string response;
  const svc::TransportStatus status = exchange(backend, payload, response);
  if (status != svc::TransportStatus::kOk) {
    error = status == svc::TransportStatus::kConnectionLost
                ? "connection to " + backend + " lost"
                : "exchange with " + backend + " failed";
    return false;
  }
  io::Json document;
  if (!io::Json::parse(response, document, error)) return false;
  const io::Json* ok = document.find("ok");
  if (ok == nullptr || !ok->as_bool(false)) {
    const io::Json* message = document.find("error");
    const std::string* text =
        message != nullptr ? message->as_string() : nullptr;
    error = backend + " answered: " +
            (text != nullptr ? *text : std::string("unknown error"));
    return false;
  }
  io::Json* result_field = document.find("result");
  result = result_field != nullptr ? std::move(*result_field) : io::Json();
  return true;
}

/// A replicate_session append of \p entries, the requests with seqs \p seq,
/// seq+1, .... Entries are spliced in verbatim: they are serialised
/// documents, and carried as strings every quote would be escaped.
std::string append_request(std::uint64_t origin, std::uint64_t seq,
                           const std::vector<std::string>& entries) {
  std::string out = std::string(R"({"cmd":")") +
                    svc::cmd::kReplicateSession + R"(","entries":[)";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) out += ',';
    out += entries[i];
  }
  out += R"(],"id":0,"origin":)" + std::to_string(origin) + R"(,"seq":)" +
         std::to_string(seq) + "}";
  return out;
}

/// {"cmd": command, "id": 0, key: value}.
std::string request(const char* command, const char* key,
                    std::uint64_t value) {
  io::JsonObject object;
  object["cmd"] = io::Json(command);
  object["id"] = io::Json(std::uint64_t{0});
  object[key] = io::Json(value);
  return io::Json(std::move(object)).dump();
}

}  // namespace

io::Json ReplicatorCounters::to_json() const {
  io::JsonObject object;
  object["adoption_failures"] = adoption_failures.to_json();
  object["adoptions"] = adoptions.to_json();
  object["appends"] = appends.to_json();
  object["journal_truncated"] = journal_truncated.to_json();
  object["lag_ns"] = lag_ns.to_json();
  object["replays"] = replays.to_json();
  object["ship_failures"] = ship_failures.to_json();
  object["shipped"] = shipped.to_json();
  return io::Json(std::move(object));
}

bool Replicator::record_mutation(ReplicaState& state, std::string payload,
                                 std::uint64_t now_ns) {
  if (state.journal.size() >= policy_.max_journal) {
    // The journal only grows while replication keeps failing; shedding
    // the oldest entry keeps memory bounded at the cost of the peer's
    // catch-up path. The truncated flag makes that loss honest: failover
    // refuses a journal with a hole (the router reports the session
    // lost), and the next successful snapshot heals it.
    state.journal.erase(state.journal.begin());
    state.truncated = true;
    ++counters_.journal_truncated;
  }
  if (state.journal.empty()) state.oldest_unshipped_ns = now_ns;
  state.journal.push_back(std::move(payload));
  ++state.acked_seq;
  return state.acked_seq - state.peer_seq >= policy_.ship_every;
}

bool Replicator::ship(std::uint64_t origin, const std::string& owner,
                      std::uint64_t owner_session, const std::string& peer,
                      const Exchange& exchange, ReplicaState& state,
                      std::uint64_t now_ns) {
  if (state.peer != peer) {
    // Another backend holds nothing this state counted on.
    drop(origin, exchange, state);
    state.peer = peer;
    state.peer_seq = 0;
    state.snapshot_bytes = 0;
    state.log_bytes = 0;
  }
  std::size_t tail_bytes = 0;
  for (const std::string& entry : state.journal) tail_bytes += entry.size();
  std::string error;
  io::Json result;
  // An append must start right after the peer's seq, and gives way to a
  // compacting snapshot once the log would reach the last snapshot's size.
  // A refused append (a gap: the peer lost what it confirmed) or a failed
  // one falls through to a snapshot too.
  const bool appended =
      state.acked_seq - state.journal.size() == state.peer_seq &&
      state.log_bytes + tail_bytes <
          (state.snapshot_bytes != 0 ? state.snapshot_bytes
                                     : kEmptyBaseBytes) &&
      call_ok(exchange, peer,
              append_request(origin, state.peer_seq + 1, state.journal),
              result, error);
  if (appended) {
    state.log_bytes += tail_bytes;
    ++counters_.appends;
  }
  if (!appended) {
    io::Json snapshot_result;
    io::Json* snapshot_doc = nullptr;
    if (call_ok(exchange, owner,
                request(svc::cmd::kSnapshot, "session", owner_session),
                snapshot_result, error)) {
      snapshot_doc = snapshot_result.find("snapshot");
    }
    if (snapshot_doc == nullptr) {
      ++counters_.ship_failures;
      return false;
    }
    // The entry mutex is held, so the snapshot is the state after exactly
    // acked_seq mutations.
    io::JsonObject replicate_request;
    replicate_request["cmd"] = io::Json(svc::cmd::kReplicateSession);
    replicate_request["id"] = io::Json(std::uint64_t{0});
    replicate_request["origin"] = io::Json(origin);
    replicate_request["seq"] = io::Json(state.acked_seq);
    replicate_request["snapshot"] = std::move(*snapshot_doc);
    const std::string payload = io::Json(std::move(replicate_request)).dump();
    if (!call_ok(exchange, peer, payload, result, error)) {
      ++counters_.ship_failures;
      return false;
    }
    state.snapshot_bytes = payload.size();
    state.log_bytes = 0;
    state.truncated = false;
  }
  state.peer_seq = state.acked_seq;
  state.journal.clear();
  if (state.oldest_unshipped_ns != 0 &&
      now_ns >= state.oldest_unshipped_ns) {
    counters_.lag_ns.record(now_ns - state.oldest_unshipped_ns);
  }
  state.oldest_unshipped_ns = 0;
  ++counters_.shipped;
  return true;
}

bool Replicator::restore(std::uint64_t origin, const std::string& target,
                         const Exchange& exchange, ReplicaState& state,
                         std::uint64_t& backend_session, std::string& error) {
  // The journal is the tail the peer has not confirmed; a torn append may
  // have delivered part of it, which the peer skips. A target that holds
  // less than the journal's start refuses the gap.
  io::Json appended;
  io::Json adopted;
  if (!call_ok(exchange, target,
               append_request(origin,
                              state.acked_seq - state.journal.size() + 1,
                              state.journal),
               appended, error) ||
      !call_ok(exchange, target,
               request(svc::cmd::kAdoptSession, "origin", origin), adopted,
               error)) {
    ++counters_.adoption_failures;
    return false;
  }
  // Exactly-once: the promoted session holds every acked mutation and
  // nothing more.
  const std::uint64_t seq = svc::u64_field(adopted, "seq", "").value_or(0);
  if (seq != state.acked_seq) {
    ++counters_.adoption_failures;
    error = target + " adopted seq " + std::to_string(seq) + " but " +
            std::to_string(state.acked_seq) + " mutations were acked";
    return false;
  }
  backend_session = svc::u64_field(adopted, "session", "").value_or(0);
  counters_.replays += svc::u64_field(appended, "appended", "").value_or(0);
  // The adopt consumed the replica; the caller ships to a new peer.
  state = ReplicaState{};
  state.acked_seq = seq;
  ++counters_.adoptions;
  return true;
}

void Replicator::drop(std::uint64_t origin, const Exchange& exchange,
                      const ReplicaState& state) {
  if (state.peer.empty()) return;
  std::string response;
  (void)exchange(state.peer, request(svc::cmd::kDropReplica, "origin", origin),
                 response);
}

}  // namespace rim::shard
