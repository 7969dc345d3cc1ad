#include "rim/svc/replica_store.hpp"

#include <utility>

namespace rim::svc {

io::Json ReplicaStoreCounters::to_json() const {
  io::JsonObject object;
  object["adopted"] = adopted.to_json();
  object["dropped"] = dropped.to_json();
  object["rejected"] = rejected.to_json();
  object["stored"] = stored.to_json();
  return io::Json(std::move(object));
}

bool ReplicaStore::put(std::uint64_t origin, std::uint64_t seq,
                       core::Snapshot snapshot, std::uint64_t checksum,
                       std::string& error) {
  common::MutexLock lock(store_mutex_);
  const auto it = replicas_.find(origin);
  if (it == replicas_.end() && replicas_.size() >= max_replicas_) {
    ++counters_.rejected;
    error = "replica store at capacity (" + std::to_string(max_replicas_) +
            ")";
    return false;
  }
  if (it != replicas_.end() && seq == it->second.seq &&
      checksum == it->second.checksum) {
    // A duplicate of the stored ship (the router retried after a torn
    // response): the replica is already durable, so answering success
    // keeps replication exactly-once instead of wedging every retry.
    return true;
  }
  if (it != replicas_.end() && seq <= it->second.seq) {
    ++counters_.rejected;
    error = "stale replica seq " + std::to_string(seq) + " for origin " +
            std::to_string(origin) + " (stored seq " +
            std::to_string(it->second.seq) + ")";
    return false;
  }
  Replica replica;
  replica.seq = seq;
  replica.checksum = checksum;
  replica.snapshot = std::move(snapshot);
  replicas_[origin] = std::move(replica);
  ++counters_.stored;
  return true;
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

std::vector<std::uint64_t> ReplicaStore::origins() const {
  common::MutexLock lock(store_mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(replicas_.size());
  for (const auto& [origin, replica] : replicas_) out.push_back(origin);
  return out;
}

}  // namespace rim::svc
