#include "rim/svc/protocol.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace rim::svc {

std::string encode_frame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (std::size_t byte = 0; byte < kFrameHeaderBytes; ++byte) {
    frame += static_cast<char>((length >> (8 * byte)) & 0xFFu);
  }
  frame.append(payload);
  return frame;
}

FrameStatus frame_size(std::string_view buffer, std::size_t max_frame_bytes,
                       std::size_t& consumed) {
  if (buffer.size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  std::uint32_t length = 0;
  for (std::size_t byte = 0; byte < kFrameHeaderBytes; ++byte) {
    length |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(buffer[byte]))
              << (8 * byte);
  }
  if (length > max_frame_bytes) return FrameStatus::kTooLarge;
  if (buffer.size() < kFrameHeaderBytes + length) return FrameStatus::kNeedMore;
  consumed = kFrameHeaderBytes + length;
  return FrameStatus::kFrame;
}

FrameStatus try_decode_frame(std::string_view buffer,
                             std::size_t max_frame_bytes, std::size_t& consumed,
                             std::string& payload) {
  std::size_t size = 0;
  const FrameStatus status = frame_size(buffer, max_frame_bytes, size);
  if (status == FrameStatus::kFrame) {
    payload.assign(buffer.substr(kFrameHeaderBytes, size - kFrameHeaderBytes));
    consumed = size;
  }
  return status;
}

std::string make_ok(std::uint64_t id, io::Json result) {
  io::JsonObject response;
  response["id"] = io::Json(id);
  response["ok"] = io::Json(true);
  response["result"] = std::move(result);
  return io::Json(std::move(response)).dump();
}

std::string make_error(std::uint64_t id, const char* code,
                       const std::string& message) {
  io::JsonObject response;
  response["code"] = io::Json(code);
  response["error"] = io::Json(message);
  response["id"] = io::Json(id);
  response["ok"] = io::Json(false);
  return io::Json(std::move(response)).dump();
}

const char* mutation_kind_name(core::Mutation::Kind kind) {
  switch (kind) {
    case core::Mutation::Kind::kAddNode: return "add_node";
    case core::Mutation::Kind::kRemoveNode: return "remove_node";
    case core::Mutation::Kind::kAddEdge: return "add_edge";
    case core::Mutation::Kind::kRemoveEdge: return "remove_edge";
    case core::Mutation::Kind::kMoveNode: return "move_node";
  }
  return "unknown";
}

io::Json mutation_to_json(const core::Mutation& mutation) {
  io::JsonObject object;
  object["kind"] = io::Json(mutation_kind_name(mutation.kind));
  switch (mutation.kind) {
    case core::Mutation::Kind::kAddNode:
      object["x"] = io::Json(mutation.position.x);
      object["y"] = io::Json(mutation.position.y);
      break;
    case core::Mutation::Kind::kRemoveNode:
      object["v"] = io::Json(mutation.v);
      break;
    case core::Mutation::Kind::kAddEdge:
    case core::Mutation::Kind::kRemoveEdge:
      object["u"] = io::Json(mutation.u);
      object["v"] = io::Json(mutation.v);
      break;
    case core::Mutation::Kind::kMoveNode:
      object["v"] = io::Json(mutation.v);
      object["x"] = io::Json(mutation.position.x);
      object["y"] = io::Json(mutation.position.y);
      break;
  }
  return io::Json(std::move(object));
}

namespace {

struct SessionCommand {
  const char* name;
  bool mutating;
};

/// The one session-command table (Service runs these, Router forwards and
/// journals them).
constexpr SessionCommand kSessionCommands[] = {
    {cmd::kAddNode, true},
    {cmd::kRemoveNode, true},
    {cmd::kAddEdge, true},
    {cmd::kRemoveEdge, true},
    {cmd::kMove, true},
    {cmd::kApplyBatch, true},
    {cmd::kRestore, true},
    {cmd::kAssess, false},
    {cmd::kQueryInterference, false},
    {cmd::kSnapshot, false},
    {cmd::kSessionStats, false},
};

const SessionCommand* find_session_command(std::string_view command) {
  for (const SessionCommand& entry : kSessionCommands) {
    if (command == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

bool is_session_command(std::string_view command) {
  return find_session_command(command) != nullptr;
}

bool is_mutating_command(std::string_view command) {
  const SessionCommand* entry = find_session_command(command);
  return entry != nullptr && entry->mutating;
}

bool json_to_u64(const io::Json& json, std::uint64_t max, std::uint64_t& out) {
  if (!json.is_number()) return false;
  const double value = json.as_number();
  if (!(value >= 0.0) || value != std::floor(value)) return false;
  // Doubles are exact up to 2^53; every id space here (NodeId, session
  // ids) fits comfortably below that.
  if (value > 9007199254740992.0) return false;
  const auto integral = static_cast<std::uint64_t>(value);
  if (integral > max) return false;
  out = integral;
  return true;
}

namespace {

bool node_id_field(const io::Json& json, const char* key, NodeId& out,
                   std::string& error) {
  const io::Json* field = json.find(key);
  std::uint64_t value = 0;
  if (field == nullptr || !json_to_u64(*field, kInvalidNode, value)) {
    error = std::string("mutation field '") + key +
            "' must be an integer node id";
    return false;
  }
  out = static_cast<NodeId>(value);
  return true;
}

bool position_fields(const io::Json& json, geom::Vec2& out,
                     std::string& error) {
  const io::Json* x = json.find("x");
  const io::Json* y = json.find("y");
  if (x == nullptr || y == nullptr || !x->is_number() || !y->is_number()) {
    error = "mutation fields 'x'/'y' must be numbers";
    return false;
  }
  out = {x->as_number(), y->as_number()};
  return true;
}

}  // namespace

bool mutation_from_json(const io::Json& json, core::Mutation& out,
                        std::string& error) {
  if (!json.is_object()) {
    error = "mutation must be an object";
    return false;
  }
  const io::Json* kind = json.find("kind");
  const std::string* name = kind != nullptr ? kind->as_string() : nullptr;
  if (name == nullptr) {
    error = "mutation field 'kind' must be a string";
    return false;
  }
  geom::Vec2 position{};
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  if (*name == "add_node") {
    if (!position_fields(json, position, error)) return false;
    out = core::Mutation::add_node(position);
    return true;
  }
  if (*name == "remove_node") {
    if (!node_id_field(json, "v", v, error)) return false;
    out = core::Mutation::remove_node(v);
    return true;
  }
  if (*name == "add_edge" || *name == "remove_edge") {
    if (!node_id_field(json, "u", u, error)) return false;
    if (!node_id_field(json, "v", v, error)) return false;
    out = *name == "add_edge" ? core::Mutation::add_edge(u, v)
                              : core::Mutation::remove_edge(u, v);
    return true;
  }
  if (*name == "move_node") {
    if (!node_id_field(json, "v", v, error)) return false;
    if (!position_fields(json, position, error)) return false;
    out = core::Mutation::move_node(v, position);
    return true;
  }
  error = "unknown mutation kind '" + *name + "'";
  return false;
}

bool mutation_batch_from_json(const io::Json& json,
                              std::vector<core::Mutation>& out,
                              std::string& error) {
  const io::JsonArray* array = json.as_array();
  if (array == nullptr) {
    error = "batch must be an array of mutation objects";
    return false;
  }
  out.clear();
  out.reserve(array->size());
  for (std::size_t i = 0; i < array->size(); ++i) {
    core::Mutation mutation;
    if (!mutation_from_json((*array)[i], mutation, error)) {
      error = "batch[" + std::to_string(i) + "]: " + error;
      return false;
    }
    out.push_back(mutation);
  }
  return true;
}

common::Expected<std::uint64_t, std::string> u64_field(const io::Json& request,
                                                       const char* key,
                                                       const char* what) {
  const io::Json* field = request.find(key);
  std::uint64_t value = 0;
  if (field == nullptr ||
      !json_to_u64(*field, std::numeric_limits<std::uint64_t>::max(), value)) {
    return common::Unexpected(std::string("field '") + key + "' must be " +
                              what);
  }
  return value;
}

std::uint64_t peek_request_id(std::string_view payload) {
  io::Json document;
  std::string error;
  if (!io::Json::parse(payload, document, error)) return 0;
  const io::Json* id = document.find("id");
  std::uint64_t value = 0;
  if (id == nullptr ||
      !json_to_u64(*id, std::numeric_limits<std::uint64_t>::max(), value)) {
    return 0;
  }
  return value;
}

}  // namespace rim::svc
