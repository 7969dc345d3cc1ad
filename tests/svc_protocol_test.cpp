#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "rim/svc/protocol.hpp"

// Wire protocol unit tests: framing, the response envelope builders, the
// mutation codec, and the untrusted-integer helper. The service-level
// byte-identity properties live in svc_service_test.cpp.

namespace rim::svc {
namespace {

TEST(SvcFrame, RoundTripsPayload) {
  const std::string payload = R"({"cmd":"ping","id":7})";
  const std::string frame = encode_frame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  std::size_t consumed = 0;
  std::string decoded;
  EXPECT_EQ(try_decode_frame(frame, kDefaultMaxFrameBytes, consumed, decoded),
            FrameStatus::kFrame);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded, payload);
}

TEST(SvcFrame, HeaderIsLittleEndian) {
  const std::string frame = encode_frame(std::string(0x0102, 'x'));
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0x00);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 0x00);
}

TEST(SvcFrame, NeedsMoreOnEveryProperPrefix) {
  const std::string frame = encode_frame("{\"cmd\":\"ping\"}");
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::size_t consumed = 0;
    std::string decoded;
    EXPECT_EQ(try_decode_frame(std::string_view(frame).substr(0, cut),
                               kDefaultMaxFrameBytes, consumed, decoded),
              FrameStatus::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(SvcFrame, DecodesBackToBackFrames) {
  const std::string first = encode_frame("AAAA");
  const std::string second = encode_frame("BB");
  std::string buffer = first + second;

  std::size_t consumed = 0;
  std::string decoded;
  ASSERT_EQ(try_decode_frame(buffer, kDefaultMaxFrameBytes, consumed, decoded),
            FrameStatus::kFrame);
  EXPECT_EQ(decoded, "AAAA");
  buffer.erase(0, consumed);
  ASSERT_EQ(try_decode_frame(buffer, kDefaultMaxFrameBytes, consumed, decoded),
            FrameStatus::kFrame);
  EXPECT_EQ(decoded, "BB");
  EXPECT_EQ(consumed, buffer.size());
}

TEST(SvcFrame, RejectsOversizedDeclaredLength) {
  const std::string frame = encode_frame(std::string(64, 'x'));
  std::size_t consumed = 0;
  std::string decoded;
  EXPECT_EQ(try_decode_frame(frame, 63, consumed, decoded),
            FrameStatus::kTooLarge);
  // The cap applies from the header alone — a 4-byte prefix suffices.
  EXPECT_EQ(try_decode_frame(std::string_view(frame).substr(0, 4), 63,
                             consumed, decoded),
            FrameStatus::kTooLarge);
}

TEST(SvcFrame, EmptyPayloadIsAFrame) {
  const std::string frame = encode_frame("");
  std::size_t consumed = 0;
  std::string decoded = "sentinel";
  EXPECT_EQ(try_decode_frame(frame, kDefaultMaxFrameBytes, consumed, decoded),
            FrameStatus::kFrame);
  EXPECT_EQ(consumed, kFrameHeaderBytes);
  EXPECT_TRUE(decoded.empty());
}

TEST(SvcEnvelope, OkResponseShape) {
  io::JsonObject result;
  result["value"] = io::Json(3);
  EXPECT_EQ(make_ok(9, io::Json(std::move(result))),
            R"({"id":9,"ok":true,"result":{"value":3}})");
}

TEST(SvcEnvelope, ErrorResponseShape) {
  EXPECT_EQ(make_error(4, code::kNoSession, "no session 4"),
            R"({"code":"no_session","error":"no session 4","id":4,)"
            R"("ok":false})");
}

TEST(SvcEnvelope, PeekRequestId) {
  EXPECT_EQ(peek_request_id(R"({"cmd":"ping","id":42})"), 42u);
  EXPECT_EQ(peek_request_id(R"({"cmd":"ping"})"), 0u);
  EXPECT_EQ(peek_request_id("not json"), 0u);
  EXPECT_EQ(peek_request_id(R"({"id":-3})"), 0u);
  EXPECT_EQ(peek_request_id(R"({"id":2.5})"), 0u);
}

TEST(SvcMutationCodec, RoundTripsEveryKind) {
  const std::vector<core::Mutation> batch = {
      core::Mutation::add_node({0.125, -7.5}),
      core::Mutation::remove_node(3),
      core::Mutation::add_edge(1, 2),
      core::Mutation::remove_edge(2, 1),
      core::Mutation::move_node(0, {1e-3, 0.3333333333333333}),
  };
  io::JsonArray array;
  for (const core::Mutation& mutation : batch) {
    array.push_back(mutation_to_json(mutation));
  }
  std::vector<core::Mutation> decoded;
  std::string error;
  ASSERT_TRUE(
      mutation_batch_from_json(io::Json(array), decoded, error))
      << error;
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].kind, batch[i].kind) << i;
    EXPECT_EQ(decoded[i].u, batch[i].u) << i;
    EXPECT_EQ(decoded[i].v, batch[i].v) << i;
    // %.17g round-trips doubles bit-exactly.
    EXPECT_EQ(decoded[i].position.x, batch[i].position.x) << i;
    EXPECT_EQ(decoded[i].position.y, batch[i].position.y) << i;
  }
}

TEST(SvcMutationCodec, AcceptsInvalidNodeIdForTraceReplay) {
  // Replayed fault traces legitimately carry kInvalidNode (dropped ids);
  // Scenario::apply skips them, so the codec must not reject them.
  const core::Mutation mutation = core::Mutation::remove_node(kInvalidNode);
  core::Mutation decoded;
  std::string error;
  ASSERT_TRUE(mutation_from_json(mutation_to_json(mutation), decoded, error))
      << error;
  EXPECT_EQ(decoded.v, kInvalidNode);
}

TEST(SvcMutationCodec, RejectsStructuralGarbage) {
  core::Mutation out;
  std::string error;
  io::Json parsed;
  ASSERT_TRUE(io::Json::parse(R"({"kind":"warp_node","v":1})", parsed, error));
  EXPECT_FALSE(mutation_from_json(parsed, out, error));
  ASSERT_TRUE(io::Json::parse(R"({"kind":"add_edge","u":1})", parsed, error));
  EXPECT_FALSE(mutation_from_json(parsed, out, error));
  ASSERT_TRUE(io::Json::parse(R"({"kind":"add_node","x":1})", parsed, error));
  EXPECT_FALSE(mutation_from_json(parsed, out, error));
  ASSERT_TRUE(io::Json::parse(R"([1,2,3])", parsed, error));
  EXPECT_FALSE(mutation_from_json(parsed, out, error));
  std::vector<core::Mutation> batch;
  ASSERT_TRUE(io::Json::parse(R"({"kind":"add_edge","u":1,"v":2})", parsed,
                              error));
  EXPECT_FALSE(mutation_batch_from_json(parsed, batch, error))
      << "a single object is not a batch";
}

TEST(SvcJsonToU64, AcceptsExactIntegersInRange) {
  std::uint64_t out = 0;
  EXPECT_TRUE(json_to_u64(io::Json(0), 10, out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(json_to_u64(io::Json(10), 10, out));
  EXPECT_EQ(out, 10u);
}

TEST(SvcJsonToU64, RejectsNonIntegersAndOutOfRange) {
  std::uint64_t out = 0;
  EXPECT_FALSE(json_to_u64(io::Json(11), 10, out));
  EXPECT_FALSE(json_to_u64(io::Json(-1), 10, out));
  EXPECT_FALSE(json_to_u64(io::Json(2.5), 10, out));
  EXPECT_FALSE(json_to_u64(io::Json("7"), 10, out));
  EXPECT_FALSE(json_to_u64(io::Json(true), 10, out));
  EXPECT_FALSE(json_to_u64(io::Json(nullptr), 10, out));
  // Beyond 2^53 doubles cannot represent every integer exactly; the
  // helper refuses the whole range rather than guess.
  EXPECT_FALSE(json_to_u64(io::Json(9.1e18),
                           std::numeric_limits<std::uint64_t>::max(), out));
}

TEST(SvcU64Field, ReadsThePresentIntegerField) {
  io::Json request;
  std::string error;
  ASSERT_TRUE(io::Json::parse(R"({"session":12})", request, error));
  const auto session = u64_field(request, "session", "an integer session id");
  ASSERT_TRUE(session);
  EXPECT_EQ(*session, 12u);
}

TEST(SvcU64Field, NamesTheFieldInItsError) {
  io::Json request;
  std::string error;
  ASSERT_TRUE(io::Json::parse(R"({"session":"one","seq":-1})", request,
                              error));
  const auto session = u64_field(request, "session", "an integer session id");
  ASSERT_FALSE(session);
  EXPECT_EQ(session.error(), "field 'session' must be an integer session id");
  const auto seq = u64_field(request, "seq", "an integer ship sequence");
  ASSERT_FALSE(seq);
  EXPECT_EQ(seq.error(), "field 'seq' must be an integer ship sequence");
  EXPECT_FALSE(u64_field(request, "origin", "an integer origin session id"));
}

TEST(SvcCommandTable, MutatingCommandsAreSessionCommands) {
  for (const char* command :
       {cmd::kAddNode, cmd::kRemoveNode, cmd::kAddEdge, cmd::kRemoveEdge,
        cmd::kMove, cmd::kApplyBatch, cmd::kRestore}) {
    EXPECT_TRUE(is_session_command(command)) << command;
    EXPECT_TRUE(is_mutating_command(command)) << command;
  }
  for (const char* command : {cmd::kAssess, cmd::kQueryInterference,
                              cmd::kSnapshot, cmd::kSessionStats}) {
    EXPECT_TRUE(is_session_command(command)) << command;
    EXPECT_FALSE(is_mutating_command(command)) << command;
  }
}

TEST(SvcCommandTable, FrontEndAndReplicationCommandsAreNotSessionCommands) {
  for (const char* command :
       {cmd::kPing, cmd::kMetrics, cmd::kShutdown, cmd::kCreateSession,
        cmd::kCloseSession, cmd::kReplicateSession, cmd::kAdoptSession,
        cmd::kDropReplica, cmd::kShardStatus, "frobnicate", ""}) {
    EXPECT_FALSE(is_session_command(command)) << command;
    EXPECT_FALSE(is_mutating_command(command)) << command;
  }
}

}  // namespace
}  // namespace rim::svc
