#include "rim/svc/session.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

#include "rim/core/snapshot.hpp"

namespace rim::svc {

io::Json SessionCounters::to_json() const {
  io::JsonObject object;
  object["requests"] = requests.to_json();
  object["errors"] = errors.to_json();
  object["mutations"] = mutations.to_json();
  object["spills"] = spills.to_json();
  object["spill_restores"] = spill_restores.to_json();
  object["rate_limited"] = rate_limited.to_json();
  object["handle_ns"] = handle_ns.to_json();
  object["latency_ns"] = latency_ns.to_json();
  return io::Json(std::move(object));
}

io::Json SessionManagerCounters::to_json() const {
  io::JsonObject object;
  object["created"] = created.to_json();
  object["closed"] = closed.to_json();
  object["evictions"] = evictions.to_json();
  object["spill_restores"] = spill_restores.to_json();
  object["spill_failures"] = spill_failures.to_json();
  return io::Json(std::move(object));
}

SessionManager::SessionManager(SvcLimits limits, core::EvalOptions eval)
    : limits_(std::move(limits)), eval_(eval) {}

SessionManager::~SessionManager() {
  common::MutexLock lock(mutex_);
  for (const auto& [id, entry] : sessions_) {
    if (entry.spilled) std::remove(spill_path(id).c_str());
  }
}

std::string SessionManager::spill_path(std::uint64_t id) const {
  return limits_.spill_dir + "/rim_svc_session_" + std::to_string(id) +
         ".snap";
}

std::size_t SessionManager::live_count_locked() const {
  std::size_t live = 0;
  for (const auto& [id, entry] : sessions_) {
    if (!entry.spilled) ++live;
  }
  return live;
}

bool SessionManager::spill_locked(std::uint64_t id, Entry& entry) {
  core::Snapshot snapshot;
  {
    Session& session = *entry.session;
    common::MutexLock session_lock(session.mutex);
    snapshot = session.scenario.snapshot();
  }
  const std::vector<std::uint8_t> bytes = snapshot.to_bytes();
  std::ofstream file(spill_path(id), std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) {
    std::remove(spill_path(id).c_str());
    return false;
  }
  // Release the engine's memory; the spill file is now the state of record.
  Session& session = *entry.session;
  common::MutexLock session_lock(session.mutex);
  session.scenario = core::Scenario();
  return true;
}

bool SessionManager::unspill_locked(std::uint64_t id, Entry& entry,
                                    std::string& error) {
  std::ifstream file(spill_path(id), std::ios::binary);
  if (!file) {
    error = "cannot open spill file for session " + std::to_string(id);
    return false;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  core::Snapshot snapshot;
  if (!core::Snapshot::from_bytes(bytes, snapshot, error)) return false;
  Session& session = *entry.session;
  common::MutexLock session_lock(session.mutex);
  if (!session.scenario.restore(snapshot, &error)) return false;
  return true;
}

bool SessionManager::evict_lru_locked() {
  const Entry* victim = nullptr;
  std::uint64_t victim_id = 0;
  for (auto& [id, entry] : sessions_) {
    if (entry.spilled || entry.busy != 0) continue;
    if (victim == nullptr || entry.last_used < victim->last_used) {
      victim = &entry;
      victim_id = id;
    }
  }
  if (victim == nullptr) return false;
  Entry& entry = sessions_.at(victim_id);
  if (!spill_locked(victim_id, entry)) {
    ++counters_.spill_failures;
    return false;
  }
  entry.spilled = true;
  ++entry.session->counters.spills;
  ++counters_.evictions;
  return true;
}

bool SessionManager::create(std::uint64_t& id,
                            std::shared_ptr<Session>& session,
                            const char*& error_code, std::string& error) {
  common::MutexLock lock(mutex_);
  if (sessions_.size() >= limits_.max_sessions) {
    error_code = code::kOverloaded;
    error = "session limit reached (" + std::to_string(limits_.max_sessions) +
            "); close a session or retry later";
    return false;
  }
  const bool spill_enabled = !limits_.spill_dir.empty();
  while (live_count_locked() >= limits_.max_live_sessions) {
    if (!spill_enabled || !evict_lru_locked()) break;
  }
  if (!spill_enabled && live_count_locked() >= limits_.max_live_sessions) {
    error_code = code::kOverloaded;
    error = "live session limit reached (" +
            std::to_string(limits_.max_live_sessions) +
            ") and spilling is disabled";
    return false;
  }
  id = next_id_++;
  Entry entry;
  entry.session = std::make_shared<Session>(id, eval_, limits_);
  entry.last_used = ++lru_tick_;
  session = entry.session;
  sessions_.emplace(id, std::move(entry));
  ++counters_.created;
  return true;
}

bool SessionManager::close(std::uint64_t id, const char*& error_code,
                           std::string& error) {
  common::MutexLock lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    error_code = code::kNoSession;
    error = "no session " + std::to_string(id);
    return false;
  }
  if (it->second.spilled) std::remove(spill_path(id).c_str());
  sessions_.erase(it);
  ++counters_.closed;
  return true;
}

std::shared_ptr<Session> SessionManager::checkout(std::uint64_t id,
                                                  const char*& error_code,
                                                  std::string& error) {
  common::MutexLock lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    error_code = code::kNoSession;
    error = "no session " + std::to_string(id);
    return nullptr;
  }
  Entry& entry = it->second;
  if (entry.spilled) {
    while (live_count_locked() >= limits_.max_live_sessions) {
      if (!evict_lru_locked()) break;  // proceed over-cap rather than fail
    }
    if (!unspill_locked(id, entry, error)) {
      ++counters_.spill_failures;
      error_code = code::kInternal;
      error = "session " + std::to_string(id) +
              " could not be restored from spill: " + error;
      return nullptr;
    }
    entry.spilled = false;
    std::remove(spill_path(id).c_str());
    ++entry.session->counters.spill_restores;
    ++counters_.spill_restores;
  }
  entry.busy += 1;
  entry.last_used = ++lru_tick_;
  return entry.session;
}

void SessionManager::checkin(const std::shared_ptr<Session>& session) {
  if (session == nullptr) return;
  common::MutexLock lock(mutex_);
  const auto it = sessions_.find(session->id);
  // A concurrent close may have erased the entry; the shared_ptr pin was
  // what kept the in-flight request safe, and there is nothing to unmark.
  if (it == sessions_.end()) return;
  if (it->second.busy > 0) it->second.busy -= 1;
}

std::size_t SessionManager::session_count() const {
  common::MutexLock lock(mutex_);
  return sessions_.size();
}

std::size_t SessionManager::live_count() const {
  common::MutexLock lock(mutex_);
  return live_count_locked();
}

io::Json SessionManager::counters_json() const { return counters_.to_json(); }

}  // namespace rim::svc
