#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rim/common/expected.hpp"
#include "rim/core/scenario.hpp"
#include "rim/io/json.hpp"

/// \file protocol.hpp
/// The rim::svc wire protocol: length-prefixed JSON frames.
///
/// Every message — request or response — travels as one *frame*:
///
///   [4-byte little-endian uint32: payload length][payload bytes]
///
/// The payload is one UTF-8 JSON document produced by io::Json::dump()
/// (compact, deterministic key order), parsed back by io::Json::parse —
/// the same depth-limited, overflow-rejecting parser the robustness
/// tooling already trusts with corrupted snapshots, which is exactly the
/// posture needed for raw network bytes (io/json.hpp documents the
/// limits: Json::kMaxParseDepth nesting, non-finite numbers rejected).
///
/// Requests are objects:   {"cmd": "<command>", "id": N, ...params}
/// Responses are objects:  {"id": N, "ok": true,  "result": {...}}
///                    or:  {"code": "<code>", "error": "...", "id": N,
///                          "ok": false}
///
/// `id` is an opaque client-chosen correlation number (echoed verbatim;
/// 0 when absent or unparseable). TcpServer answers the frames of one
/// connection in order, so a pipelining client may also match by
/// position.
/// Every request gets exactly one response — including rejections: the
/// admission-control path answers with code "overloaded" instead of
/// queueing (DESIGN.md §9).
///
/// Responses are a pure function of the engine results they report, so a
/// loopback round-trip is byte-identical to encoding the corresponding
/// core::Scenario call directly — the property tests/svc_service_test.cpp
/// pins command by command.

namespace rim::svc {

/// Bytes of the length prefix ahead of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Default admission-control cap on one frame's payload size. A hostile
/// peer can therefore make the server buffer at most this much per
/// connection before being answered with "bad_frame" and disconnected.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// Wrap \p payload in a frame (header + bytes).
[[nodiscard]] std::string encode_frame(std::string_view payload);

enum class FrameStatus : std::uint8_t {
  kNeedMore,  ///< buffer holds only a frame prefix; read more bytes
  kFrame,     ///< one complete frame decoded into `payload`
  kTooLarge,  ///< declared length exceeds the cap; the stream is poisoned
};

/// Check for one complete frame at the front of \p buffer without copying
/// its payload: on kFrame, \p consumed is the frame's total size; the
/// other statuses are try_decode_frame's.
[[nodiscard]] FrameStatus frame_size(std::string_view buffer,
                                     std::size_t max_frame_bytes,
                                     std::size_t& consumed);

/// Try to decode one frame from the front of \p buffer. On kFrame,
/// \p consumed is the total bytes to drop from the buffer and \p payload
/// holds the payload copy; on kNeedMore both outputs are untouched; on
/// kTooLarge the declared length exceeded \p max_frame_bytes and the
/// caller must abandon the stream (there is no way to resynchronise).
[[nodiscard]] FrameStatus try_decode_frame(std::string_view buffer,
                                           std::size_t max_frame_bytes,
                                           std::size_t& consumed,
                                           std::string& payload);

// --- command names ---------------------------------------------------------

namespace cmd {
inline constexpr const char* kPing = "ping";
inline constexpr const char* kCreateSession = "create_session";
inline constexpr const char* kCloseSession = "close_session";
inline constexpr const char* kAddNode = "add_node";
inline constexpr const char* kRemoveNode = "remove_node";
inline constexpr const char* kAddEdge = "add_edge";
inline constexpr const char* kRemoveEdge = "remove_edge";
inline constexpr const char* kMove = "move";
inline constexpr const char* kApplyBatch = "apply_batch";
inline constexpr const char* kAssess = "assess";
inline constexpr const char* kQueryInterference = "query_interference";
inline constexpr const char* kSnapshot = "snapshot";
inline constexpr const char* kRestore = "restore";
inline constexpr const char* kSessionStats = "session_stats";
inline constexpr const char* kMetrics = "metrics";
inline constexpr const char* kShutdown = "shutdown";
// Shard replication (DESIGN.md §14): a router appends a session's acked
// mutating requests, or ships its snapshot, to a peer backend
// (replicate_session), and on failover asks the peer to promote its
// replica into a live session (adopt_session). drop_replica discards a
// replica whose origin session closed.
inline constexpr const char* kReplicateSession = "replicate_session";
inline constexpr const char* kAdoptSession = "adopt_session";
inline constexpr const char* kDropReplica = "drop_replica";
// Router-local introspection (shard::Router answers this itself).
inline constexpr const char* kShardStatus = "shard_status";
}  // namespace cmd

/// True iff \p command addresses one session (carries "session"): the
/// command set a Service runs against a Scenario and a Router forwards.
/// Every other name outside the front-end and replication commands is
/// "unknown_command".
[[nodiscard]] bool is_session_command(std::string_view command);

/// True iff \p command is a session command whose acked application
/// changes session state — exactly the set a shard::Replicator journals
/// for failover replay.
[[nodiscard]] bool is_mutating_command(std::string_view command);

// --- error codes -----------------------------------------------------------

namespace code {
/// Payload was not a parseable JSON document.
inline constexpr const char* kBadFrame = "bad_frame";
/// Parseable, but structurally not a valid request for its command.
inline constexpr const char* kBadRequest = "bad_request";
/// `cmd` named no known command.
inline constexpr const char* kUnknownCommand = "unknown_command";
/// `session` named no live or spilled session.
inline constexpr const char* kNoSession = "no_session";
/// Admission control shed this request (max sessions or max in-flight).
inline constexpr const char* kOverloaded = "overloaded";
/// Snapshot payload failed validation on restore.
inline constexpr const char* kRestoreFailed = "restore_failed";
/// Fault-injection fields sent to a service not configured to allow them.
inline constexpr const char* kFaultDisabled = "fault_disabled";
/// Shutdown requested of a service not configured to allow it.
inline constexpr const char* kShutdownDisabled = "shutdown_disabled";
/// Server-side failure outside the request's control (e.g. spill I/O).
inline constexpr const char* kInternal = "internal";
/// adopt_session named an origin session with no stored replica.
inline constexpr const char* kNoReplica = "no_replica";
/// A replicate_session log append started past the replica's next seq:
/// the peer lacks the mutations between, so the sender must ship a
/// snapshot instead.
inline constexpr const char* kReplicaGap = "replica_gap";
/// The peer vanished mid-exchange and failover could not recover the
/// request (router-originated; backends never emit this).
inline constexpr const char* kConnectionLost = "connection_lost";
}  // namespace code

// --- response builders -----------------------------------------------------

/// {"id": id, "ok": true, "result": result} as a compact payload string.
[[nodiscard]] std::string make_ok(std::uint64_t id, io::Json result);

/// {"code": code, "error": message, "id": id, "ok": false}.
[[nodiscard]] std::string make_error(std::uint64_t id, const char* code,
                                     const std::string& message);

// --- mutation codec --------------------------------------------------------

/// Wire name of a mutation kind ("add_node", "remove_node", "add_edge",
/// "remove_edge", "move_node").
[[nodiscard]] const char* mutation_kind_name(core::Mutation::Kind kind);

/// {"kind": ..., then only the fields that kind uses: "u"/"v" as numbers,
/// "x"/"y" as JSON numbers (io::Json writes doubles with %.17g, which
/// round-trips every finite IEEE double bit-exactly — determinism over the
/// wire does not need the snapshot hex encoding)}.
[[nodiscard]] io::Json mutation_to_json(const core::Mutation& mutation);

/// Parse one mutation object. Ids must be integers representable as
/// NodeId (kInvalidNode included: replayed fault traces legitimately carry
/// out-of-range ids, which Scenario::apply skips). Returns false with a
/// message on any structural problem.
[[nodiscard]] bool mutation_from_json(const io::Json& json,
                                      core::Mutation& out, std::string& error);

/// Parse a JSON array of mutation objects.
[[nodiscard]] bool mutation_batch_from_json(const io::Json& json,
                                            std::vector<core::Mutation>& out,
                                            std::string& error);

/// Best-effort request-id extraction for reject paths that must answer
/// before (or without) full validation: returns the "id" member when
/// \p payload parses to an object with a numeric id, 0 otherwise.
[[nodiscard]] std::uint64_t peek_request_id(std::string_view payload);

/// Integer-in-range helper shared by the request parsers: true iff \p json
/// is a number with an exact integral value in [0, max].
[[nodiscard]] bool json_to_u64(const io::Json& json, std::uint64_t max,
                               std::uint64_t& out);

/// The required u64 field \p key of \p request. When it is absent or not a
/// non-negative integer, the error is "field '<key>' must be <what>",
/// the bad_request message the caller answers with.
[[nodiscard]] common::Expected<std::uint64_t, std::string> u64_field(
    const io::Json& request, const char* key, const char* what);

}  // namespace rim::svc
