#include "rim/svc/replica_store.hpp"

#include <utility>

namespace rim::svc {

io::Json ReplicaStoreCounters::to_json() const {
  io::JsonObject object;
  object["adopted"] = adopted.to_json();
  object["appended"] = appended.to_json();
  object["dropped"] = dropped.to_json();
  object["rejected"] = rejected.to_json();
  object["stored"] = stored.to_json();
  return io::Json(std::move(object));
}

bool ReplicaStore::has_room_locked(std::uint64_t origin, std::string& error) {
  if (replicas_.count(origin) != 0 || replicas_.size() < max_replicas_) {
    return true;
  }
  ++counters_.rejected;
  error = "replica store at capacity (" + std::to_string(max_replicas_) + ")";
  return false;
}

bool ReplicaStore::put(std::uint64_t origin, std::uint64_t seq,
                       core::Snapshot snapshot, std::uint64_t checksum,
                       std::string& error) {
  // The decoded arrays' bytes: cheaper than encoding the snapshot.
  const std::size_t bytes =
      snapshot.points.size() * sizeof(geom::Vec2) +
      snapshot.radii2.size() * sizeof(double) +
      snapshot.interference.size() * sizeof(std::uint32_t) +
      2 * snapshot.edge_count * sizeof(NodeId);
  common::MutexLock lock(store_mutex_);
  if (!has_room_locked(origin, error)) return false;
  const auto it = replicas_.find(origin);
  if (it != replicas_.end()) {
    // At the seq of a replica with a log, a snapshot is its compaction;
    // at the seq of a log-free one it is a resend after a torn response,
    // already durable, so success keeps replication from wedging.
    const Replica& stored = it->second;
    const bool resend =
        seq == stored.seq && stored.log.empty() && stored.has_snapshot;
    if (resend && checksum == stored.checksum) return true;
    if (resend || seq < stored.seq) {
      ++counters_.rejected;
      error = "stale replica seq " + std::to_string(seq) + " for origin " +
              std::to_string(origin) + " (stored seq " +
              std::to_string(stored.seq) + ")";
      return false;
    }
  }
  Replica& replica = replicas_[origin];
  replica = Replica{seq, checksum, true, std::move(snapshot), {}, bytes};
  ++counters_.stored;
  return true;
}

ReplicaStore::AppendResult ReplicaStore::append(
    std::uint64_t origin, std::uint64_t seq,
    std::vector<std::string> entries) {
  AppendResult result;
  common::MutexLock lock(store_mutex_);
  if (!has_room_locked(origin, result.error)) return result;
  const auto it = replicas_.find(origin);
  const std::uint64_t held = it != replicas_.end() ? it->second.seq : 0;
  if (seq > held + 1) {
    ++counters_.rejected;
    result.gap = true;
    result.error = "replica of origin " + std::to_string(origin) +
                   " holds seq " + std::to_string(held) +
                   "; an append from seq " + std::to_string(seq) +
                   " would skip mutations";
    return result;
  }
  Replica& replica = it != replicas_.end() ? it->second : replicas_[origin];
  for (std::size_t i = replica.seq + 1 - seq; i < entries.size(); ++i) {
    replica.bytes += entries[i].size();
    replica.log.push_back(std::move(entries[i]));
    ++replica.seq;
    ++result.appended;
  }
  counters_.appended += result.appended;
  result.seq = replica.seq;
  return result;
}

bool ReplicaStore::take(std::uint64_t origin, Replica& out) {
  common::MutexLock lock(store_mutex_);
  const auto it = replicas_.find(origin);
  if (it == replicas_.end()) return false;
  out = std::move(it->second);
  replicas_.erase(it);
  ++counters_.adopted;
  return true;
}

bool ReplicaStore::drop(std::uint64_t origin) {
  common::MutexLock lock(store_mutex_);
  const bool existed = replicas_.erase(origin) != 0;
  if (existed) ++counters_.dropped;
  return existed;
}

std::size_t ReplicaStore::size() const {
  common::MutexLock lock(store_mutex_);
  return replicas_.size();
}

std::size_t ReplicaStore::bytes() const {
  common::MutexLock lock(store_mutex_);
  std::size_t total = 0;
  for (const auto& [origin, replica] : replicas_) total += replica.bytes;
  return total;
}

}  // namespace rim::svc
