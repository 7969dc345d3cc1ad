#include "rim/shard/replicator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "rim/svc/protocol.hpp"

namespace rim::shard {

namespace {

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

/// Rewrite the "session" field of a journaled request payload to the
/// replayed session id. False when the payload no longer parses (it was
/// acked by a backend, so this indicates memory corruption, not input).
bool rewrite_session(const std::string& payload, std::uint64_t session,
                     std::string& out, std::string& error) {
  io::Json request;
  if (!io::Json::parse(payload, request, error)) return false;
  io::JsonObject object = *request.as_object();
  object["session"] = io::Json(session);
  out = io::Json(std::move(object)).dump();
  return true;
}

}  // namespace

io::Json ReplicatorCounters::to_json() const {
  io::JsonObject object;
  object["adoption_failures"] = adoption_failures.to_json();
  object["adoptions"] = adoptions.to_json();
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
    // The journal only grows while ships keep failing; shedding the
    // oldest entry keeps memory bounded at the cost of giving up
    // replayability. The truncated flag makes that loss honest: failover
    // refuses to replay a journal with a hole (the router reports the
    // session lost), and the next successful ship heals it.
    state.journal.erase(state.journal.begin());
    state.truncated = true;
    ++counters_.journal_truncated;
  }
  if (state.journal.empty()) state.oldest_unshipped_ns = now_ns;
  state.journal.push_back(JournalEntry{std::move(payload), 0});
  ++state.muts_since_ship;
  return state.muts_since_ship >= policy_.ship_every;
}

bool Replicator::ship(std::uint64_t origin, const std::string& owner,
                      std::uint64_t owner_session, const std::string& peer,
                      const Exchange& exchange, ReplicaState& state,
                      std::uint64_t now_ns) {
  std::string error;
  io::JsonObject snapshot_request;
  snapshot_request["cmd"] = io::Json(svc::cmd::kSnapshot);
  snapshot_request["id"] = io::Json(std::uint64_t{0});
  snapshot_request["session"] = io::Json(owner_session);
  io::Json snapshot_result;
  if (!call_ok(exchange, owner, io::Json(std::move(snapshot_request)).dump(),
               snapshot_result, error)) {
    ++counters_.ship_failures;
    return false;
  }
  io::Json* snapshot_doc = snapshot_result.find("snapshot");
  if (snapshot_doc == nullptr) {
    ++counters_.ship_failures;
    return false;
  }
  // A torn replicate may have stored an earlier attempt at the peer, so
  // this seq must be above every attempt ever sent — resending a
  // possibly-landed seq would be rejected as stale forever.
  const std::uint64_t seq =
      std::max(state.shipped_seq, state.ship_attempt_seq) + 1;
  state.ship_attempt_seq = seq;
  // The snapshot is full owner state: every journaled mutation so far is
  // covered by it. Tag untagged entries so a failover that adopts this
  // snapshot (even via a torn-but-landed replicate) skips them.
  for (JournalEntry& entry : state.journal) {
    if (entry.ship_seq == 0) entry.ship_seq = seq;
  }
  io::JsonObject replicate_request;
  replicate_request["cmd"] = io::Json(svc::cmd::kReplicateSession);
  replicate_request["id"] = io::Json(std::uint64_t{0});
  replicate_request["origin"] = io::Json(origin);
  replicate_request["seq"] = io::Json(seq);
  replicate_request["snapshot"] = std::move(*snapshot_doc);
  io::Json replicate_result;
  if (!call_ok(exchange, peer,
               io::Json(std::move(replicate_request)).dump(),
               replicate_result, error)) {
    ++counters_.ship_failures;
    return false;
  }
  state.shipped_seq = seq;
  state.journal.clear();
  state.muts_since_ship = 0;
  state.peer = peer;
  state.has_replica = true;
  state.truncated = false;
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
  io::Json result;
  const bool adopted = state.has_replica;
  if (state.has_replica) {
    io::JsonObject adopt_request;
    adopt_request["cmd"] = io::Json(svc::cmd::kAdoptSession);
    adopt_request["id"] = io::Json(std::uint64_t{0});
    adopt_request["origin"] = io::Json(origin);
    if (!call_ok(exchange, target, io::Json(std::move(adopt_request)).dump(),
                 result, error)) {
      ++counters_.adoption_failures;
      return false;
    }
  } else {
    // Nothing was ever shipped: the journal holds the session's entire
    // mutation history, so a fresh session + full replay reconstructs it.
    io::JsonObject create_request;
    create_request["cmd"] = io::Json(svc::cmd::kCreateSession);
    create_request["id"] = io::Json(std::uint64_t{0});
    if (!call_ok(exchange, target, io::Json(std::move(create_request)).dump(),
                 result, error)) {
      ++counters_.adoption_failures;
      return false;
    }
  }
  const io::Json* session_field = result.find("session");
  std::uint64_t session = 0;
  if (session_field == nullptr ||
      !svc::json_to_u64(*session_field,
                        std::numeric_limits<std::uint64_t>::max(), session)) {
    ++counters_.adoption_failures;
    error = target + " returned no session id";
    return false;
  }
  // The adopted replica may be newer than the last *acked* ship (a torn
  // replicate that landed): its seq says exactly which journal entries
  // its snapshot already contains, and replaying those would apply them
  // twice.
  std::uint64_t adopted_seq = 0;
  if (adopted) {
    const io::Json* seq_field = result.find("seq");
    if (seq_field != nullptr) {
      (void)svc::json_to_u64(*seq_field,
                             std::numeric_limits<std::uint64_t>::max(),
                             adopted_seq);
    }
  }
  for (const JournalEntry& entry : state.journal) {
    if (adopted && entry.ship_seq != 0 && entry.ship_seq <= adopted_seq) {
      continue;  // already inside the adopted snapshot
    }
    std::string replay_payload;
    if (!rewrite_session(entry.payload, session, replay_payload, error)) {
      ++counters_.adoption_failures;
      return false;
    }
    io::Json replay_result;
    if (!call_ok(exchange, target, replay_payload, replay_result, error)) {
      ++counters_.adoption_failures;
      return false;
    }
    ++counters_.replays;
  }
  backend_session = session;
  // The replica (if any) was consumed by the adopt; the caller ships a
  // fresh snapshot to a new peer to restore redundancy.
  state.peer.clear();
  state.has_replica = false;
  state.ship_attempt_seq = std::max(state.ship_attempt_seq, adopted_seq);
  ++counters_.adoptions;
  return true;
}

}  // namespace rim::shard
