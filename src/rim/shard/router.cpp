#include "rim/shard/router.hpp"

#include <chrono>
#include <limits>
#include <utility>

#include "rim/svc/protocol.hpp"

namespace rim::shard {

namespace {

std::vector<std::unique_ptr<Backend>> make_backends(
    const RouterConfig& config) {
  std::vector<std::unique_ptr<Backend>> backends;
  backends.reserve(config.backends.size());
  for (const BackendEndpoint& endpoint : config.backends) {
    backends.push_back(std::make_unique<Backend>(
        endpoint.name, endpoint.connect, endpoint.probe_connect,
        config.health_backoff));
  }
  return backends;
}

std::string backend_source_name(const std::string& backend) {
  return "shard.backend." + backend;
}

/// True iff \p response parses as an envelope with ok:true. The
/// journaling predicate (which mutations enter the failover replay
/// script) must parse the envelope rather than substring-match it, or
/// the replay contract would silently rot with serializer layout.
bool response_is_ok(const std::string& response) {
  io::Json document;
  std::string error;
  if (!io::Json::parse(response, document, error)) return false;
  const io::Json* ok = document.find("ok");
  return ok != nullptr && ok->as_bool(false);
}

}  // namespace

const char* backend_state_name(BackendState state) {
  switch (state) {
    case BackendState::kUp:
      return "up";
    case BackendState::kSuspect:
      return "suspect";
    case BackendState::kDown:
      return "down";
  }
  return "down";
}

void RouterCounters::write_json(io::JsonObject& object) const {
  object["failovers"] = failovers.to_json();
  object["forward_failures"] = forward_failures.to_json();
  object["lost_sessions"] = lost_sessions.to_json();
  object["routed"] = routed.to_json();
  object["sessions_moved"] = sessions_moved.to_json();
}

Router::Router(RouterConfig config)
    : Frontend(config.max_in_flight, config.max_frame_bytes,
               config.allow_shutdown),
      config_(std::move(config)),
      backends_(make_backends(config_)),
      replicator_(config_.replication),
      exchange_([this](const std::string& backend, const std::string& payload,
                       std::string& response) {
        Backend* target = backend_by_name(backend);
        if (target == nullptr) return svc::TransportStatus::kConnectionLost;
        return exchange_with(*target, payload, response);
      }) {
  {
    common::MutexLock lock(ring_mutex_);
    ring_ = HashRing(config_.vnodes);
    for (const std::unique_ptr<Backend>& backend : backends_) {
      ring_.add(backend->name);
    }
  }
  registry().add_source("shard.router", [this] {
    io::JsonObject object;
    object["backends"] = io::Json(backends_.size());
    object["counters"] = counters_json(counters_);
    object["in_flight"] = io::Json(in_flight());
    object["replication"] = replicator_.counters().to_json();
    object["sessions"] = io::Json(session_count());
    return io::Json(std::move(object));
  });
  for (const std::unique_ptr<Backend>& backend : backends_) {
    Backend* raw = backend.get();
    registry().add_source(backend_source_name(raw->name), [raw] {
      io::JsonObject object;
      object["failed"] = raw->failed.to_json();
      object["routed"] = raw->routed.to_json();
      object["state"] = io::Json(std::string(
          backend_state_name(raw->state.load(std::memory_order_acquire))));
      return io::Json(std::move(object));
    });
  }
}

Router::~Router() {
  stop();
  for (const std::unique_ptr<Backend>& backend : backends_) {
    registry().remove_source(backend_source_name(backend->name));
  }
  registry().remove_source("shard.router");
}

std::string Router::dispatch_command(std::uint64_t id,
                                     const std::string& command,
                                     const io::Json& request) {
  if (command == svc::cmd::kShardStatus) {
    return shard_status(id);
  }
  if (command == svc::cmd::kCreateSession) {
    return create_session(id);
  }
  if (command == svc::cmd::kCloseSession) {
    return close_session(id, request);
  }
  if (command == svc::cmd::kReplicateSession ||
      command == svc::cmd::kAdoptSession ||
      command == svc::cmd::kDropReplica) {
    // Replica placement is the router's job; accepting these from clients
    // would let them corrupt the failover bookkeeping.
    return svc::make_error(
        id, svc::code::kBadRequest,
        "replication commands are internal to the shard tier");
  }
  return route_session_command(id, command, request);
}

std::string Router::create_session(std::uint64_t id) {
  std::shared_ptr<SessionEntry> entry = allocate_entry();
  std::string response;
  bool failed = false;
  {
    common::MutexLock entry_lock(entry->entry_mutex);
    for (std::size_t attempt = 0; attempt < backends_.size(); ++attempt) {
      const std::string owner = pick_owner(entry->id);
      if (owner.empty()) break;
      Backend* backend = backend_by_name(owner);
      if (backend == nullptr) break;
      io::JsonObject create;
      create["cmd"] = io::Json(svc::cmd::kCreateSession);
      create["id"] = io::Json(id);
      std::string backend_response;
      const svc::TransportStatus status = exchange_with(
          *backend, io::Json(std::move(create)).dump(), backend_response);
      if (status == svc::TransportStatus::kConnectionLost) {
        continue;  // the backend was declared down; the ring re-picks
      }
      if (status != svc::TransportStatus::kOk) break;
      io::Json document;
      std::string error;
      const io::Json* session_field = nullptr;
      if (io::Json::parse(backend_response, document, error)) {
        const io::Json* ok = document.find("ok");
        if (ok != nullptr && ok->as_bool(false)) {
          const io::Json* result = document.find("result");
          session_field =
              result != nullptr ? result->find("session") : nullptr;
        } else {
          // Backend-side refusal (overloaded, at session cap): the
          // envelope already says why — pass it through verbatim.
          response = std::move(backend_response);
          failed = true;
          break;
        }
      }
      std::uint64_t backend_session = 0;
      if (session_field == nullptr ||
          !svc::json_to_u64(*session_field,
                            std::numeric_limits<std::uint64_t>::max(),
                            backend_session)) {
        response = svc::make_error(id, svc::code::kInternal,
                                   "backend '" + owner +
                                       "' returned no session id");
        failed = true;
        break;
      }
      entry->owner = owner;
      entry->backend_session = backend_session;
      io::JsonObject result;
      result["session"] = io::Json(entry->id);
      response = svc::make_ok(id, io::Json(std::move(result)));
      break;
    }
    if (response.empty()) {
      response = svc::make_error(id, svc::code::kConnectionLost,
                                 "no live backend to create a session");
      failed = true;
    }
  }
  if (failed) erase_entry(entry->id);
  return response;
}

std::string Router::close_session(std::uint64_t id, const io::Json& request) {
  const auto session_id =
      svc::u64_field(request, "session", "an integer session id");
  if (!session_id) {
    return svc::make_error(id, svc::code::kBadRequest, session_id.error());
  }
  const std::shared_ptr<SessionEntry> entry = find_entry(*session_id);
  if (entry == nullptr) {
    return svc::make_error(id, svc::code::kNoSession,
                           "no session " + std::to_string(*session_id));
  }
  std::string response;
  {
    common::MutexLock lock(entry->entry_mutex);
    Backend* owner = backend_by_name(entry->owner);
    if (!entry->lost && owner != nullptr &&
        owner->state.load(std::memory_order_acquire) != BackendState::kDown) {
      io::JsonObject close;
      close["cmd"] = io::Json(svc::cmd::kCloseSession);
      close["id"] = io::Json(id);
      close["session"] = io::Json(entry->backend_session);
      std::string backend_response;
      if (exchange_with(*owner, io::Json(std::move(close)).dump(),
                        backend_response) == svc::TransportStatus::kOk) {
        response = std::move(backend_response);
      }
    }
    // Best effort: a dangling replica is harmless (bounded by the store's
    // capacity) and a later replicate for the same origin supersedes it.
    replicator_.drop(entry->id, exchange_, entry->repl);
    if (response.empty()) {
      // The owner is gone: discarding the routing entry and replica IS
      // the close — answer exactly what a direct service would.
      io::JsonObject result;
      result["closed"] = io::Json(true);
      response = svc::make_ok(id, io::Json(std::move(result)));
    }
  }
  erase_entry(*session_id);
  return response;
}

std::string Router::route_session_command(std::uint64_t id,
                                          const std::string& command,
                                          const io::Json& request) {
  if (!svc::is_session_command(command)) {
    return svc::make_error(id, svc::code::kUnknownCommand,
                           "unknown command '" + command + "'");
  }
  const auto session_id =
      svc::u64_field(request, "session", "an integer session id");
  if (!session_id) {
    return svc::make_error(id, svc::code::kBadRequest, session_id.error());
  }
  const std::shared_ptr<SessionEntry> entry = find_entry(*session_id);
  if (entry == nullptr) {
    return svc::make_error(id, svc::code::kNoSession,
                           "no session " + std::to_string(*session_id));
  }
  common::MutexLock lock(entry->entry_mutex);
  if (entry->lost) {
    return svc::make_error(
        id, svc::code::kConnectionLost,
        "session " + std::to_string(*session_id) + " was lost in a failover");
  }
  return forward_locked(*entry, id, command, request);
}

std::string Router::forward_locked(SessionEntry& entry, std::uint64_t id,
                                   const std::string& command,
                                   const io::Json& request) {
  std::string error;
  {
    Backend* owner = backend_by_name(entry.owner);
    if (owner == nullptr ||
        owner->state.load(std::memory_order_acquire) == BackendState::kDown) {
      if (!failover_locked(entry, error)) {
        ++counters_.forward_failures;
        return svc::make_error(id, svc::code::kConnectionLost,
                               "session " + std::to_string(entry.id) +
                                   " unrecoverable: " + error);
      }
    }
  }
  // One attempt per backend plus the original: every lost attempt marks a
  // backend down and fails the session over, so the loop strictly
  // shrinks the candidate set.
  const std::size_t max_attempts = backends_.size() + 1;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    Backend* backend = backend_by_name(entry.owner);
    if (backend == nullptr) break;
    io::JsonObject forward = *request.as_object();
    forward["session"] = io::Json(entry.backend_session);
    const std::string payload = io::Json(std::move(forward)).dump();
    std::string response;
    const svc::TransportStatus status =
        exchange_with(*backend, payload, response);
    if (status == svc::TransportStatus::kOk) {
      if (svc::is_mutating_command(command) && response_is_ok(response) &&
          replicator_.record_mutation(entry.repl, payload, obs::now_ns())) {
        replicate_locked(entry);
      }
      return response;
    }
    if (status == svc::TransportStatus::kError) {
      ++counters_.forward_failures;
      ++counters_.routed;  // accounted as routed-and-failed, not retried
      return svc::make_error(
          id, svc::code::kInternal,
          "exchange with backend '" + backend->name + "' failed");
    }
    // Connection lost: exchange_with declared the backend down. The
    // torn command was never journaled (only acked ones are), so after
    // the failover below re-forwarding it applies it exactly once.
    if (!failover_locked(entry, error)) {
      ++counters_.forward_failures;
      return svc::make_error(id, svc::code::kConnectionLost,
                             "session " + std::to_string(entry.id) +
                                 " unrecoverable: " + error);
    }
  }
  ++counters_.forward_failures;
  return svc::make_error(
      id, svc::code::kConnectionLost,
      "no live backend for session " + std::to_string(entry.id));
}

bool Router::failover_locked(SessionEntry& entry, std::string& error) {
  if (entry.repl.truncated) {
    // The journal shed acked mutations past max_journal, so no peer can be
    // brought up to the acked state. Honest loss beats silently wrong
    // answers (the E24 checksum-identity contract).
    error = "replay journal was truncated; restored state would be "
            "incomplete";
    mark_lost_locked(entry);
    return false;
  }
  // A target that dies mid-restore is down, so the next attempt picks
  // another; one attempt per backend plus the first bounds the loop.
  for (std::size_t attempt = 0; attempt <= backends_.size(); ++attempt) {
    // Without a live peer any live backend can still rebuild the session
    // from the empty base when the journal reaches back to seq 1; the
    // restore's append refuses the gap otherwise.
    const std::string target =
        backend_state(entry.repl.peer) != BackendState::kDown
            ? entry.repl.peer
            : pick_owner(entry.id);
    if (target.empty()) {
      error = "no live backends";
      break;
    }
    std::uint64_t backend_session = 0;
    if (replicator_.restore(entry.id, target, exchange_, entry.repl,
                            backend_session, error)) {
      entry.owner = target;
      entry.backend_session = backend_session;
      ++counters_.sessions_moved;
      // Redundancy was consumed by the adopt; replicate to a fresh peer
      // right away so a second failure stays survivable.
      replicate_locked(entry);
      return true;
    }
    // A live target refused (restore_failed, a gap): none can do better.
    if (backend_state(target) != BackendState::kDown) break;
  }
  mark_lost_locked(entry);
  return false;
}

void Router::replicate_locked(SessionEntry& entry) {
  // With no live peer (a single surviving backend) the journal simply
  // accumulates; a failed round keeps it and the next mutation retries.
  const std::string peer = pick_peer_for(entry.id, entry.owner);
  if (!peer.empty()) {
    (void)replicator_.ship(entry.id, entry.owner, entry.backend_session, peer,
                           exchange_, entry.repl, obs::now_ns());
  }
}

std::string Router::shard_status(std::uint64_t id) {
  io::JsonObject result;
  io::JsonArray backends;
  for (const std::unique_ptr<Backend>& backend : backends_) {
    io::JsonObject status;
    status["failed"] = backend->failed.to_json();
    status["name"] = io::Json(backend->name);
    status["routed"] = backend->routed.to_json();
    status["state"] = io::Json(std::string(backend_state_name(
        backend->state.load(std::memory_order_acquire))));
    backends.emplace_back(std::move(status));
  }
  result["backends"] = io::Json(std::move(backends));
  result["failovers"] = counters_.failovers.to_json();
  result["lost_sessions"] = counters_.lost_sessions.to_json();
  result["replication"] = replicator_.counters().to_json();
  result["sessions"] = io::Json(session_count());
  result["sessions_moved"] = counters_.sessions_moved.to_json();
  return svc::make_ok(id, io::Json(std::move(result)));
}

// --- single-lock helpers ---------------------------------------------------

std::shared_ptr<SessionEntry> Router::find_entry(std::uint64_t sid) const {
  common::MutexLock lock(table_mutex_);
  const auto it = sessions_.find(sid);
  return it != sessions_.end() ? it->second : nullptr;
}

std::shared_ptr<SessionEntry> Router::allocate_entry() {
  common::MutexLock lock(table_mutex_);
  const std::uint64_t sid = next_session_id_++;
  auto entry = std::make_shared<SessionEntry>(sid);
  sessions_.emplace(sid, entry);
  return entry;
}

void Router::erase_entry(std::uint64_t sid) {
  common::MutexLock lock(table_mutex_);
  sessions_.erase(sid);
}

std::size_t Router::session_count() const {
  common::MutexLock lock(table_mutex_);
  return sessions_.size();
}

std::string Router::pick_owner(std::uint64_t sid) const {
  common::MutexLock lock(ring_mutex_);
  return ring_.owner(ring_key(sid), down_backends());
}

std::string Router::pick_peer_for(std::uint64_t sid,
                                  const std::string& exclude) const {
  std::set<std::string> down = down_backends();
  down.insert(exclude);
  common::MutexLock lock(ring_mutex_);
  return ring_.owner(ring_key(sid), down);
}

svc::TransportStatus Router::exchange_with(Backend& backend,
                                           const std::string& payload,
                                           std::string& response) {
  if (backend.state.load(std::memory_order_acquire) == BackendState::kDown) {
    return svc::TransportStatus::kConnectionLost;
  }
  common::MutexLock lock(backend.conn_mutex);
  if (backend.transport == nullptr) backend.transport = backend.factory();
  if (backend.transport == nullptr) {
    ++backend.failed;
    mark_backend_down(backend);
    return svc::TransportStatus::kConnectionLost;
  }
  ++backend.routed;
  ++counters_.routed;
  std::string response_frame;
  std::string error;
  const svc::TransportStatus status = backend.transport->roundtrip(
      svc::encode_frame(payload), response_frame, error);
  if (status == svc::TransportStatus::kConnectionLost) {
    ++backend.failed;
    backend.transport.reset();
    mark_backend_down(backend);
    return status;
  }
  if (status != svc::TransportStatus::kOk) {
    ++backend.failed;
    return status;
  }
  std::size_t consumed = 0;
  if (svc::try_decode_frame(response_frame,
                            std::numeric_limits<std::uint32_t>::max(),
                            consumed, response) != svc::FrameStatus::kFrame) {
    ++backend.failed;
    return svc::TransportStatus::kError;
  }
  return svc::TransportStatus::kOk;
}

void Router::probe_backend(Backend& backend, std::uint64_t now_ns) {
  common::MutexLock lock(backend.conn_mutex);
  if (!backend.backoff.due(now_ns)) return;
  // Probes prefer a dedicated short-deadline connection (probe_factory)
  // so a wedged backend cannot stall the sweep, and the forward
  // connection never inherits a ping-sized deadline.
  const bool dedicated = static_cast<bool>(backend.probe_factory);
  std::unique_ptr<svc::Transport>& probe_conn =
      dedicated ? backend.probe_transport : backend.transport;
  if (probe_conn == nullptr) {
    probe_conn = dedicated ? backend.probe_factory() : backend.factory();
  }
  bool healthy = false;
  if (probe_conn != nullptr) {
    io::JsonObject ping;
    ping["cmd"] = io::Json(svc::cmd::kPing);
    ping["id"] = io::Json(std::uint64_t{0});
    std::string response_frame;
    std::string error;
    const svc::TransportStatus status = probe_conn->roundtrip(
        svc::encode_frame(io::Json(std::move(ping)).dump()), response_frame,
        error);
    healthy = status == svc::TransportStatus::kOk &&
              response_frame.find("\"ok\":true") != std::string::npos;
    if (!healthy) probe_conn.reset();
  }
  if (!healthy && dedicated) {
    // A dead probe connection implies the shared forward socket is dead
    // too; drop it so the next forward reconnects instead of writing
    // into a stale one.
    backend.transport.reset();
  }
  if (healthy) {
    backend.backoff.reset();
    backend.state.store(BackendState::kUp, std::memory_order_release);
    return;
  }
  backend.backoff.on_failure(now_ns);
  if (backend.backoff.exhausted()) {
    mark_backend_down(backend);
  } else if (backend.state.load(std::memory_order_acquire) ==
             BackendState::kUp) {
    backend.state.store(BackendState::kSuspect, std::memory_order_release);
  }
}

// --- lock-free helpers -----------------------------------------------------

Backend* Router::backend_by_name(const std::string& name) const {
  for (const std::unique_ptr<Backend>& backend : backends_) {
    if (backend->name == name) return backend.get();
  }
  return nullptr;
}

std::set<std::string> Router::down_backends() const {
  std::set<std::string> down;
  for (const std::unique_ptr<Backend>& backend : backends_) {
    if (backend->state.load(std::memory_order_acquire) ==
        BackendState::kDown) {
      down.insert(backend->name);
    }
  }
  return down;
}

void Router::mark_backend_down(Backend& backend) {
  if (backend.state.exchange(BackendState::kDown,
                             std::memory_order_acq_rel) !=
      BackendState::kDown) {
    ++counters_.failovers;
  }
}

std::uint64_t Router::ring_key(std::uint64_t sid) {
  return fnv1a_bytes("session:" + std::to_string(sid));
}

void Router::mark_lost_locked(SessionEntry& entry) {
  if (!entry.lost) {
    entry.lost = true;
    ++counters_.lost_sessions;
  }
}

BackendState Router::backend_state(const std::string& name) const {
  const Backend* backend = backend_by_name(name);
  return backend != nullptr
             ? backend->state.load(std::memory_order_acquire)
             : BackendState::kDown;
}

// --- health monitor --------------------------------------------------------

void Router::health_sweep(std::uint64_t now_ns) {
  for (const std::unique_ptr<Backend>& backend : backends_) {
    // kDown is terminal for the sweep until a probe succeeds — but we
    // keep probing, because a restarted backend should rejoin the ring's
    // live set without operator action.
    probe_backend(*backend, now_ns);
  }
}

void Router::start_health_monitor() {
  if (health_running_.exchange(true)) return;
  {
    // stop() leaves stopping_ set; clear it so a restarted monitor
    // actually sweeps (both calls are documented idempotent, and a
    // monitor thread that exits immediately would freeze every backend
    // in its last observed state).
    common::MutexLock lock(health_mutex_);
    stopping_.store(false, std::memory_order_release);
  }
  health_thread_ = std::thread([this] {
    while (!stopping_.load(std::memory_order_acquire)) {
      health_sweep(obs::now_ns());
      common::MutexLock lock(health_mutex_);
      if (stopping_.load(std::memory_order_acquire)) break;
      health_cv_.wait_for(
          lock.native(),
          std::chrono::milliseconds(config_.health_interval_ms));
    }
  });
}

void Router::stop() {
  {
    common::MutexLock lock(health_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  health_running_.store(false, std::memory_order_release);
}

}  // namespace rim::shard
