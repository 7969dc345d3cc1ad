#include "rim/svc/service.hpp"

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "rim/core/assessor.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/sim/fault.hpp"

namespace rim::svc {

namespace {

/// Internal handler result: the response payload plus its ok-ness (for
/// the counters; the payload itself already encodes it).
struct Reply {
  std::string payload;
  bool ok = false;
};

Reply ok_reply(std::uint64_t id, io::Json result) {
  return {make_ok(id, std::move(result)), true};
}

Reply error_reply(std::uint64_t id, const char* code,
                  const std::string& message) {
  return {make_error(id, code, message), false};
}

std::string session_source_name(std::uint64_t id) {
  return "svc.session." + std::to_string(id);
}

io::Json batch_result_to_json(const core::BatchResult& result) {
  io::JsonObject object;
  object["abort_index"] = io::Json(result.abort_index);
  object["aborted"] = io::Json(result.aborted);
  object["applied"] = io::Json(result.applied);
  object["deferred"] = io::Json(result.deferred);
  object["disk_tasks"] = io::Json(result.disk_tasks);
  object["recounts"] = io::Json(result.recounts);
  object["waves"] = io::Json(result.waves);
  return io::Json(std::move(object));
}

io::Json assessment_to_json(const core::Assessment& assessment) {
  io::JsonObject object;
  io::JsonArray affected;
  affected.reserve(assessment.affected_ids.size());
  for (const NodeId v : assessment.affected_ids) affected.emplace_back(v);
  object["affected_ids"] = io::Json(std::move(affected));
  io::JsonArray deltas;
  deltas.reserve(assessment.delta_per_node.size());
  for (const std::int64_t d : assessment.delta_per_node) {
    deltas.emplace_back(static_cast<long long>(d));
  }
  object["delta_per_node"] = io::Json(std::move(deltas));
  object["max_after"] = io::Json(assessment.max_after);
  object["max_before"] = io::Json(assessment.max_before);
  object["newcomer_interference"] = io::Json(assessment.newcomer_interference);
  return io::Json(std::move(object));
}

/// Parse a required NodeId request field, range-checked against the
/// session's current node count. The Scenario setters would skip an
/// out-of-range id silently; the check turns it into a bad_request reply.
bool node_id_in_range(const io::Json& request, const char* key,
                      std::size_t node_count, NodeId& out,
                      std::string& error) {
  const io::Json* field = request.find(key);
  std::uint64_t value = 0;
  if (field == nullptr || !io::json_to_u64(*field, kInvalidNode, value)) {
    error = std::string("field '") + key + "' must be an integer node id";
    return false;
  }
  if (value >= node_count) {
    error = std::string("field '") + key + "' (" + std::to_string(value) +
            ") is out of range for a session of " +
            std::to_string(node_count) + " nodes";
    return false;
  }
  out = static_cast<NodeId>(value);
  return true;
}

bool position_from_request(const io::Json& request, geom::Vec2& out,
                           std::string& error) {
  const io::Json* x = request.find("x");
  const io::Json* y = request.find("y");
  if (x == nullptr || y == nullptr || !x->is_number() || !y->is_number()) {
    error = "fields 'x'/'y' must be numbers";
    return false;
  }
  out = {x->as_number(), y->as_number()};
  return true;
}

}  // namespace

void ServiceCounters::write_json(io::JsonObject& object) const {
  object["rejected_tenant"] = rejected_tenant.to_json();
}

Service::Service(ServiceConfig config)
    : Frontend(config.limits.max_in_flight, config.limits.max_frame_bytes,
               config.allow_shutdown),
      config_(std::move(config)),
      sessions_(config_.limits, config_.eval) {
  registry().add_source("svc", [this] {
    io::JsonObject object;
    object["counters"] = counters_json(counters_);
    object["in_flight"] = io::Json(in_flight());
    io::JsonObject limits;
    limits["max_frame_bytes"] = io::Json(config_.limits.max_frame_bytes);
    limits["max_in_flight"] = io::Json(config_.limits.max_in_flight);
    limits["max_live_sessions"] = io::Json(config_.limits.max_live_sessions);
    limits["max_sessions"] = io::Json(config_.limits.max_sessions);
    limits["tenant_rate_per_s"] = io::Json(config_.limits.tenant_rate_per_s);
    limits["tenant_burst"] = io::Json(config_.limits.tenant_burst);
    object["limits"] = io::Json(std::move(limits));
    object["manager"] = sessions_.counters_json();
    io::JsonObject replicas;
    replicas["bytes"] = io::Json(replicas_.bytes());
    replicas["count"] = io::Json(replicas_.size());
    replicas["counters"] = replicas_.counters().to_json();
    object["replicas"] = io::Json(std::move(replicas));
    io::JsonObject population;
    population["count"] = io::Json(sessions_.session_count());
    population["live"] = io::Json(sessions_.live_count());
    object["sessions"] = io::Json(std::move(population));
    return io::Json(std::move(object));
  });
}

Service::~Service() { registry().remove_source("svc"); }

bool Service::open_session(std::uint64_t id, std::uint64_t& session_id,
                           std::string& refusal) {
  std::shared_ptr<Session> session;
  const char* error_code = code::kInternal;
  std::string error;
  if (!sessions_.create(session_id, session, error_code, error)) {
    if (error_code == code::kOverloaded) {
      ++frontend_counters_.rejected_overloaded;
    }
    refusal = make_error(id, error_code, error);
    return false;
  }
  registry().add_source(session_source_name(session_id),
                        [session] { return session->counters.to_json(); });
  return true;
}

std::string Service::dispatch_command(std::uint64_t id,
                                      const std::string& command,
                                      const io::Json& request) {
  if (command == cmd::kCreateSession) {
    std::uint64_t session_id = 0;
    std::string refusal;
    if (!open_session(id, session_id, refusal)) return refusal;
    io::JsonObject result;
    result["session"] = io::Json(session_id);
    return make_ok(id, io::Json(std::move(result)));
  }
  if (command == cmd::kCloseSession) {
    const auto session_id =
        u64_field(request, "session", "an integer session id");
    if (!session_id) {
      return make_error(id, code::kBadRequest, session_id.error());
    }
    const char* error_code = code::kInternal;
    std::string error;
    if (!sessions_.close(*session_id, error_code, error)) {
      return make_error(id, error_code, error);
    }
    registry().remove_source(session_source_name(*session_id));
    io::JsonObject result;
    result["closed"] = io::Json(true);
    return make_ok(id, io::Json(std::move(result)));
  }
  if (command == cmd::kReplicateSession || command == cmd::kAdoptSession ||
      command == cmd::kDropReplica) {
    return dispatch_replica_command(id, command, request);
  }
  return dispatch_session_command(id, command, request);
}

std::string Service::dispatch_replica_command(std::uint64_t id,
                                              const std::string& command,
                                              const io::Json& request) {
  const auto origin_field =
      u64_field(request, "origin", "an integer origin session id");
  if (!origin_field) {
    return make_error(id, code::kBadRequest, origin_field.error());
  }
  const std::uint64_t origin = *origin_field;
  if (command == cmd::kReplicateSession) {
    const auto seq = u64_field(request, "seq", "an integer ship sequence");
    if (!seq) return make_error(id, code::kBadRequest, seq.error());
    io::JsonObject result;
    result["origin"] = io::Json(origin);
    result["stored"] = io::Json(true);
    if (const io::Json* entries_field = request.find("entries");
        entries_field != nullptr) {
      // A log append: keep each acked request as text for adopt to replay.
      const io::JsonArray* list = entries_field->as_array();
      std::vector<std::string> entries;
      for (std::size_t i = 0; list != nullptr && i < list->size(); ++i) {
        const io::Json* entry_cmd = (*list)[i].find("cmd");
        const std::string* name =
            entry_cmd != nullptr ? entry_cmd->as_string() : nullptr;
        if (name == nullptr || !is_mutating_command(*name)) break;
        entries.push_back((*list)[i].dump());
      }
      if (list == nullptr || entries.size() != list->size()) {
        return make_error(id, code::kBadRequest,
                          "field 'entries' must be an array of mutating "
                          "session requests");
      }
      ReplicaStore::AppendResult appended =
          replicas_.append(origin, *seq, std::move(entries));
      if (!appended.error.empty()) {
        return make_error(
            id, appended.gap ? code::kReplicaGap : code::kBadRequest,
            appended.error);
      }
      result["appended"] = io::Json(appended.appended);
      result["seq"] = io::Json(appended.seq);
      return make_ok(id, io::Json(std::move(result)));
    }
    const io::Json* snapshot_field = request.find("snapshot");
    core::Snapshot snapshot;
    std::uint64_t checksum = 0;
    std::string error;
    if (snapshot_field == nullptr ||
        !core::Snapshot::from_json(*snapshot_field, snapshot, checksum,
                                   error)) {
      return make_error(id, code::kRestoreFailed,
                        snapshot_field == nullptr
                            ? "replicate_session needs 'entries' or a "
                              "'snapshot' document"
                            : error);
    }
    if (!replicas_.put(origin, *seq, std::move(snapshot), checksum, error)) {
      return make_error(id, code::kBadRequest, error);
    }
    result["checksum"] = io::Json(core::u64_to_hex(checksum));
    result["seq"] = io::Json(*seq);
    return make_ok(id, io::Json(std::move(result)));
  }
  if (command == cmd::kDropReplica) {
    io::JsonObject result;
    result["dropped"] = io::Json(replicas_.drop(origin));
    result["origin"] = io::Json(origin);
    return make_ok(id, io::Json(std::move(result)));
  }
  // cmd::kAdoptSession: promote the replica into a live session. The
  // replica is *taken* (single adoption), its base restored through the
  // checkout/restore path a client restore uses, and its log replayed
  // through dispatch_session_command, the path that applied each entry
  // at the origin — so the promoted session is observationally identical
  // to the origin after the replica's last seq.
  ReplicaStore::Replica replica;
  if (!replicas_.take(origin, replica)) {
    return make_error(id, code::kNoReplica,
                      "no replica for origin " + std::to_string(origin));
  }
  std::uint64_t session_id = 0;
  std::string refusal;
  if (!open_session(id, session_id, refusal)) return refusal;
  std::string error;
  bool restored = true;
  if (replica.has_snapshot) {
    const char* error_code = code::kInternal;
    std::shared_ptr<Session> pinned =
        sessions_.checkout(session_id, error_code, error);
    restored = false;
    if (pinned != nullptr) {
      {
        common::MutexLock lock(pinned->mutex);
        restored = pinned->scenario.restore(replica.snapshot, &error);
      }
      sessions_.checkin(pinned);
    }
  }
  const std::uint64_t base_seq = replica.seq - replica.log.size();
  for (std::size_t i = 0; restored && i < replica.log.size(); ++i) {
    io::Json entry;
    (void)io::Json::parse(replica.log[i], entry, error);
    io::JsonObject replay = *entry.as_object();
    replay["session"] = io::Json(session_id);
    const std::string name = *replay["cmd"].as_string();
    io::Json response;
    (void)io::Json::parse(
        dispatch_session_command(id, name, io::Json(std::move(replay))),
        response, error);
    const io::Json* ok = response.find("ok");
    if (ok == nullptr || !ok->as_bool(false)) {
      restored = false;
      error = "replay of seq " + std::to_string(base_seq + i + 1) +
              " failed: " + response.dump();
    }
  }
  if (!restored) {
    const char* close_code = code::kInternal;
    std::string close_error;
    (void)sessions_.close(session_id, close_code, close_error);
    registry().remove_source(session_source_name(session_id));
    return make_error(id, code::kRestoreFailed, error);
  }
  io::JsonObject result;
  result["checksum"] = io::Json(core::u64_to_hex(replica.checksum));
  result["origin"] = io::Json(origin);
  result["replayed"] = io::Json(replica.log.size());
  result["seq"] = io::Json(replica.seq);
  result["session"] = io::Json(session_id);
  return make_ok(id, io::Json(std::move(result)));
}

std::string Service::dispatch_session_command(std::uint64_t id,
                                              const std::string& command,
                                              const io::Json& request) {
  if (!is_session_command(command)) {
    return make_error(id, code::kUnknownCommand,
                      "unknown command '" + command + "'");
  }
  const auto session_id =
      u64_field(request, "session", "an integer session id");
  if (!session_id) {
    return make_error(id, code::kBadRequest, session_id.error());
  }
  const char* error_code = code::kInternal;
  std::string error;
  std::shared_ptr<Session> session =
      sessions_.checkout(*session_id, error_code, error);
  if (session == nullptr) return make_error(id, error_code, error);

  // Per-tenant fair admission: spend one token of this session's bucket
  // before taking its mutex. A shed is the same explicit "overloaded"
  // envelope as the global gate — the tenant over its rate is refused,
  // other tenants' buckets are untouched.
  if (session->bucket.enabled() &&
      !session->bucket.try_acquire(obs::now_ns())) {
    ++session->counters.requests;
    ++session->counters.errors;
    ++session->counters.rate_limited;
    ++counters_.rejected_tenant;
    sessions_.checkin(session);
    return make_error(id, code::kOverloaded,
                      "tenant rate limit exceeded (" +
                          std::to_string(config_.limits.tenant_rate_per_s) +
                          "/s, burst " +
                          std::to_string(config_.limits.tenant_burst) +
                          "); retry later");
  }

  Reply reply;
  {
    Session& s = *session;
    const obs::ScopedTimer timer(s.counters.handle_ns,
                                 &s.counters.latency_ns);
    ++s.counters.requests;
    common::MutexLock lock(s.mutex);

    if (command == cmd::kAddNode) {
      geom::Vec2 position{};
      if (!position_from_request(request, position, error)) {
        reply = error_reply(id, code::kBadRequest, error);
      } else {
        const NodeId node = s.scenario.add_node(position);
        ++s.counters.mutations;
        io::JsonObject result;
        result["node"] = io::Json(node);
        reply = ok_reply(id, io::Json(std::move(result)));
      }
    } else if (command == cmd::kRemoveNode) {
      NodeId v = kInvalidNode;
      if (!node_id_in_range(request, "v", s.scenario.node_count(), v,
                            error)) {
        reply = error_reply(id, code::kBadRequest, error);
      } else {
        const NodeId renamed = s.scenario.remove_node(v);
        ++s.counters.mutations;
        io::JsonObject result;
        result["renamed"] = renamed == kInvalidNode
                                ? io::Json(nullptr)
                                : io::Json(renamed);
        reply = ok_reply(id, io::Json(std::move(result)));
      }
    } else if (command == cmd::kAddEdge || command == cmd::kRemoveEdge) {
      NodeId u = kInvalidNode;
      NodeId v = kInvalidNode;
      if (!node_id_in_range(request, "u", s.scenario.node_count(), u,
                            error) ||
          !node_id_in_range(request, "v", s.scenario.node_count(), v,
                            error)) {
        reply = error_reply(id, code::kBadRequest, error);
      } else if (command == cmd::kAddEdge) {
        const bool added = s.scenario.add_edge(u, v);
        ++s.counters.mutations;
        io::JsonObject result;
        result["added"] = io::Json(added);
        reply = ok_reply(id, io::Json(std::move(result)));
      } else {
        const bool removed = s.scenario.remove_edge(u, v);
        ++s.counters.mutations;
        io::JsonObject result;
        result["removed"] = io::Json(removed);
        reply = ok_reply(id, io::Json(std::move(result)));
      }
    } else if (command == cmd::kMove) {
      NodeId v = kInvalidNode;
      geom::Vec2 position{};
      if (!node_id_in_range(request, "v", s.scenario.node_count(), v,
                            error) ||
          !position_from_request(request, position, error)) {
        reply = error_reply(id, code::kBadRequest, error);
      } else {
        s.scenario.move_node(v, position);
        ++s.counters.mutations;
        io::JsonObject result;
        result["moved"] = io::Json(true);
        reply = ok_reply(id, io::Json(std::move(result)));
      }
    } else if (command == cmd::kApplyBatch) {
      std::vector<core::Mutation> batch;
      const io::Json* batch_field = request.find("batch");
      if (batch_field == nullptr ||
          !mutation_batch_from_json(*batch_field, batch, error)) {
        reply = error_reply(id, code::kBadRequest,
                            batch_field == nullptr
                                ? "field 'batch' must be a mutation array"
                                : error);
      } else if (const io::Json* fault_field = request.find("fault");
                 fault_field != nullptr) {
        if (!config_.enable_fault_injection) {
          reply = error_reply(id, code::kFaultDisabled,
                              "fault injection is disabled on this service");
        } else {
          sim::FaultEvent event;
          const io::Json* kind = fault_field->find("kind");
          const io::Json* index = fault_field->find("index");
          std::uint64_t index_value = 0;
          const std::string* kind_name =
              kind != nullptr ? kind->as_string() : nullptr;
          if (kind_name == nullptr ||
              !sim::fault_kind_from_string(*kind_name, event.kind) ||
              index == nullptr ||
              !io::json_to_u64(*index,
                               std::numeric_limits<std::uint32_t>::max(),
                               index_value)) {
            reply = error_reply(id, code::kBadRequest,
                                "field 'fault' must carry a fault kind "
                                "name and an integer index");
          } else {
            event.index = static_cast<std::size_t>(index_value);
            const bool recover =
                request.find("recover") == nullptr ||
                request.find("recover")->as_bool(true);
            const sim::FaultedBatchOutcome outcome =
                sim::apply_batch_with_faults(s.scenario, batch, &event,
                                             nullptr, recover);
            s.counters.mutations += outcome.result.applied;
            io::Json result_json = batch_result_to_json(outcome.result);
            io::JsonObject result = *result_json.as_object();
            result["fault_fired"] = io::Json(outcome.fault_fired);
            result["restored"] = io::Json(outcome.restored);
            reply = ok_reply(id, io::Json(std::move(result)));
          }
        }
      } else {
        const core::BatchResult result =
            s.scenario.apply_batch(batch, nullptr);
        s.counters.mutations += result.applied;
        reply = ok_reply(id, batch_result_to_json(result));
      }
    } else if (command == cmd::kAssess) {
      std::vector<core::Mutation> mutations;
      const io::Json* mutations_field = request.find("mutations");
      if (mutations_field == nullptr ||
          !mutation_batch_from_json(*mutations_field, mutations, error)) {
        reply = error_reply(id, code::kBadRequest,
                            mutations_field == nullptr
                                ? "field 'mutations' must be a mutation array"
                                : error);
      } else {
        const core::Assessment assessment = core::Assessor{}.assess(
            s.scenario, std::span<const core::Mutation>(mutations));
        reply = ok_reply(id, assessment_to_json(assessment));
      }
    } else if (command == cmd::kQueryInterference) {
      if (const io::Json* v_field = request.find("v"); v_field != nullptr) {
        NodeId v = kInvalidNode;
        if (!node_id_in_range(request, "v", s.scenario.node_count(), v,
                              error)) {
          reply = error_reply(id, code::kBadRequest, error);
        } else {
          io::JsonObject result;
          result["node"] = io::Json(v);
          result["value"] = io::Json(s.scenario.interference_of(v));
          reply = ok_reply(id, io::Json(std::move(result)));
        }
      } else {
        io::JsonObject result;
        io::JsonArray per_node;
        const std::span<const std::uint32_t> interference =
            s.scenario.interference();
        per_node.reserve(interference.size());
        for (const std::uint32_t value : interference) {
          per_node.emplace_back(value);
        }
        result["max"] = io::Json(s.scenario.max_interference());
        result["per_node"] = io::Json(std::move(per_node));
        result["total"] = io::Json(s.scenario.total_interference());
        reply = ok_reply(id, io::Json(std::move(result)));
      }
    } else if (command == cmd::kSnapshot) {
      core::Snapshot snapshot = s.scenario.snapshot();
      io::JsonObject result;
      result["snapshot"] = snapshot.to_json();
      reply = ok_reply(id, io::Json(std::move(result)));
    } else if (command == cmd::kRestore) {
      const io::Json* snapshot_field = request.find("snapshot");
      core::Snapshot snapshot;
      if (snapshot_field == nullptr ||
          !core::Snapshot::from_json(*snapshot_field, snapshot, error)) {
        reply = error_reply(id, code::kRestoreFailed,
                            snapshot_field == nullptr
                                ? "field 'snapshot' must be a snapshot "
                                  "document"
                                : error);
      } else if (!s.scenario.restore(snapshot, &error)) {
        reply = error_reply(id, code::kRestoreFailed, error);
      } else {
        io::JsonObject result;
        result["restored"] = io::Json(true);
        reply = ok_reply(id, io::Json(std::move(result)));
      }
    } else {  // cmd::kSessionStats
      io::JsonObject result;
      result["edges"] = io::Json(s.scenario.edge_count());
      result["nodes"] = io::Json(s.scenario.node_count());
      result["stats"] = s.scenario.stats_json();
      reply = ok_reply(id, io::Json(std::move(result)));
    }

    if (!reply.ok) ++s.counters.errors;
  }
  sessions_.checkin(session);
  return std::move(reply.payload);
}

}  // namespace rim::svc
