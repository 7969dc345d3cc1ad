#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/sim/rng.hpp"
#include "rim/sim/workload.hpp"

/// Tests for core::Snapshot: bit-identical round-trips through the binary
/// encoding and its base64 JSON envelope, restore-equivalence under
/// continued mutation, and clean rejection (never UB) of truncated,
/// corrupted, or tampered snapshots.

namespace rim::core {
namespace {

sim::WorkloadConfig small_config(std::uint64_t seed) {
  sim::WorkloadConfig config;
  config.initial_nodes = 48;
  config.batch_size = 24;
  config.seed = seed;
  return config;
}

Scenario make_scenario(std::uint64_t seed) {
  return sim::make_tenant_scenario(small_config(seed), 0);
}

void expect_scenarios_identical(Scenario& a, Scenario& b, const char* context) {
  ASSERT_EQ(a.node_count(), b.node_count()) << context;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << context;
  const auto ia = a.interference();
  const auto ib = b.interference();
  ASSERT_EQ(ia.size(), ib.size()) << context;
  for (std::size_t v = 0; v < ia.size(); ++v) {
    ASSERT_EQ(ia[v], ib[v]) << context << ", node " << v;
    ASSERT_EQ(a.position(v), b.position(v)) << context << ", node " << v;
    ASSERT_EQ(a.radius_squared(v), b.radius_squared(v))
        << context << ", node " << v;
  }
}

TEST(SnapshotTest, BinaryRoundTripIsBitIdentical) {
  Scenario scenario = make_scenario(3);
  (void)scenario.interference();  // warm the cache so it is captured
  const Snapshot original = scenario.snapshot();
  EXPECT_TRUE(original.cache_valid);

  const std::vector<std::uint8_t> bytes = original.to_bytes();
  Snapshot decoded;
  std::string error;
  ASSERT_TRUE(Snapshot::from_bytes(bytes, decoded, error)) << error;
  EXPECT_EQ(decoded.to_bytes(), bytes);
  EXPECT_EQ(decoded.payload_checksum(), original.payload_checksum());
  EXPECT_EQ(decoded.interference, original.interference);
  EXPECT_EQ(decoded.adjacency, original.adjacency);
}

TEST(SnapshotTest, JsonRoundTripIsBitIdentical) {
  Scenario scenario = make_scenario(4);
  (void)scenario.interference();
  const Snapshot original = scenario.snapshot();

  const std::string text = original.to_json().dump();
  io::Json doc;
  std::string error;
  ASSERT_TRUE(io::Json::parse(text, doc, error)) << error;
  Snapshot decoded;
  ASSERT_TRUE(Snapshot::from_json(doc, decoded, error)) << error;
  EXPECT_EQ(decoded.to_bytes(), original.to_bytes());
}

TEST(SnapshotTest, RestoreReproducesDonorExactly) {
  Scenario donor = make_scenario(5);
  (void)donor.interference();
  const Snapshot snap = donor.snapshot();

  Scenario copy{EvalOptions{}};
  std::string error;
  ASSERT_TRUE(copy.restore(snap, &error)) << error;
  expect_scenarios_identical(donor, copy, "after restore");

  // Re-snapshotting the restored engine reproduces the original bytes
  // (adjacency order preserved; grid bucket order is not captured).
  Snapshot again = copy.snapshot();
  EXPECT_EQ(again.to_bytes(), snap.to_bytes());
}

TEST(SnapshotTest, RestoredScenarioEvolvesIdentically) {
  Scenario original = make_scenario(6);
  (void)original.interference();
  const Snapshot snap = original.snapshot();
  Scenario restored{EvalOptions{}};
  ASSERT_TRUE(restored.restore(snap, nullptr));

  // Property: under an identical randomized mutation stream, the restored
  // engine tracks the original bit-for-bit, epoch after epoch.
  sim::Rng rng(99);
  const sim::WorkloadConfig config = small_config(6);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const std::vector<Mutation> batch =
        sim::make_churn_batch(rng, original.node_count(), config);
    (void)original.apply_batch(batch, nullptr);
    (void)restored.apply_batch(batch, nullptr);
    expect_scenarios_identical(original, restored, "post-epoch");
  }
  EXPECT_EQ(original.snapshot().to_bytes(), restored.snapshot().to_bytes());
}

TEST(SnapshotTest, DirtyCacheSnapshotRestores) {
  Scenario scenario = make_scenario(7);
  // No interference() call: the cache was never built, so the snapshot
  // carries cache_valid = false and no interference vector.
  Snapshot snap = scenario.snapshot();
  EXPECT_FALSE(snap.cache_valid);
  EXPECT_TRUE(snap.interference.empty());
  EXPECT_EQ(snap.interference_checksum(), 0u);

  Scenario copy{EvalOptions{}};
  ASSERT_TRUE(copy.restore(snap, nullptr));
  expect_scenarios_identical(scenario, copy, "dirty restore");
}

TEST(SnapshotTest, EveryTruncationIsRejected) {
  Scenario scenario = make_scenario(8);
  (void)scenario.interference();
  const std::vector<std::uint8_t> bytes = scenario.snapshot().to_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Snapshot out;
    std::string error;
    EXPECT_FALSE(Snapshot::from_bytes(
        std::span<const std::uint8_t>(bytes.data(), len), out, error))
        << "prefix of length " << len << " accepted";
    EXPECT_FALSE(error.empty()) << "no error message at length " << len;
  }
}

TEST(SnapshotTest, EveryByteFlipIsRejected) {
  Scenario scenario = make_scenario(9);
  (void)scenario.interference();
  const std::vector<std::uint8_t> bytes = scenario.snapshot().to_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupted = bytes;
    corrupted[i] ^= 0xFF;
    Snapshot out;
    std::string error;
    EXPECT_FALSE(Snapshot::from_bytes(corrupted, out, error))
        << "flip at byte " << i << " accepted";
  }
}

TEST(SnapshotTest, TrailingGarbageIsRejected) {
  Scenario scenario = make_scenario(10);
  std::vector<std::uint8_t> bytes = scenario.snapshot().to_bytes();
  bytes.push_back(0);
  Snapshot out;
  std::string error;
  EXPECT_FALSE(Snapshot::from_bytes(bytes, out, error));
}

/// Decode a wire document the way the service does: text -> Json ->
/// Snapshot. Returns the from_json verdict; \p error explains a refusal.
bool decode_text(const std::string& text, Snapshot& out, std::string& error) {
  io::Json doc;
  if (!io::Json::parse(text, doc, error)) return false;
  return Snapshot::from_json(doc, out, error);
}

/// The to_json() document with its "bytes" string replaced by \p bytes.
std::string with_bytes(const std::string& bytes) {
  io::JsonObject o;
  o["bytes"] = io::Json(bytes);
  o["format"] = io::Json("rim-snapshot");
  o["version"] = io::Json(Snapshot::kVersion);
  return io::Json(std::move(o)).dump();
}

constexpr char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

char flip_low_bit(char c) {
  const std::size_t value = std::string(kAlphabet).find(c);
  return kAlphabet[value ^ 1];
}

void expect_rejected(const std::string& text, const std::string& reason,
                     const char* context) {
  Snapshot out;
  std::string error;
  EXPECT_FALSE(decode_text(text, out, error)) << context << " accepted";
  EXPECT_NE(error.find(reason), std::string::npos)
      << context << ": got '" << error << "'";
}

TEST(SnapshotTest, JsonTamperIsRejected) {
  Scenario scenario = make_scenario(11);
  (void)scenario.interference();
  const Snapshot snap = scenario.snapshot();
  const std::string bytes = *snap.to_json().find("bytes")->as_string();
  ASSERT_GT(bytes.size(), 16u);

  // Every single-character substitution inside the alphabet lands in the
  // payload or its trailer, so the checksum catches it (or, in the last
  // character before a pad, the pad-bit check).
  for (std::size_t i = 0; i < bytes.size() && bytes[i] != '='; ++i) {
    std::string tampered = bytes;
    tampered[i] = flip_low_bit(tampered[i]);
    Snapshot out;
    std::string error;
    EXPECT_FALSE(decode_text(with_bytes(tampered), out, error))
        << "flip at " << i << " accepted";
  }
  {
    std::string tampered = bytes;
    tampered[40] = flip_low_bit(tampered[40]);
    expect_rejected(with_bytes(tampered), "checksum mismatch", "flipped char");
  }
  expect_rejected(with_bytes(bytes.substr(0, bytes.size() - 1)),
                  "is not a multiple of 4", "short length");
  expect_rejected(with_bytes(bytes + "AAA"), "is not a multiple of 4",
                  "long length");
  {
    std::string tampered = bytes;
    tampered[8] = '*';
    expect_rejected(with_bytes(tampered), "non-base64 character at offset 8",
                    "non-alphabet char");
    tampered[8] = '-';  // base64url is not accepted either
    expect_rejected(with_bytes(tampered), "non-base64 character at offset 8",
                    "base64url char");
  }
  {
    std::string tampered = bytes;
    tampered[8] = '=';
    expect_rejected(with_bytes(tampered), "'=' before the end at offset 8",
                    "early pad");
    expect_rejected(with_bytes(bytes.substr(0, bytes.size() - 4) + "A==="),
                    "'=' before the end", "triple pad");
  }
  expect_rejected(with_bytes(""), "truncated", "empty bytes");

  // Non-zero pad bits: the last data character of a padded text carries
  // bits the decoder discards; a canonical encoder leaves them zero.
  bool seen_pad[3] = {false, false, false};
  for (std::uint64_t seed = 11; seed < 60; ++seed) {
    Scenario padded_scenario = make_scenario(seed);
    const std::string padded =
        *padded_scenario.snapshot().to_json().find("bytes")->as_string();
    const std::size_t first_pad = padded.find('=');
    if (first_pad == std::string::npos) continue;
    seen_pad[padded.size() - first_pad] = true;
    std::string tampered = padded;
    tampered[first_pad - 1] = flip_low_bit(tampered[first_pad - 1]);
    expect_rejected(with_bytes(tampered), "non-zero base64 pad bits",
                    "pad bits");
  }
  EXPECT_TRUE(seen_pad[1] && seen_pad[2]);

  io::Json doc = snap.to_json();
  {
    io::JsonObject o = *doc.as_object();
    o.erase("bytes");
    expect_rejected(io::Json(std::move(o)).dump(), "missing base64 'bytes'",
                    "missing bytes");
  }
  {
    io::JsonObject o = *doc.as_object();
    o["bytes"] = io::Json(7);
    expect_rejected(io::Json(std::move(o)).dump(), "missing base64 'bytes'",
                    "non-string bytes");
  }
  {
    io::JsonObject o = *doc.as_object();
    o["version"] = io::Json(Snapshot::kVersion + 1);
    expect_rejected(io::Json(std::move(o)).dump(), "unsupported",
                    "version bump");
  }
  {
    io::JsonObject o = *doc.as_object();
    o["format"] = io::Json("rim-trace");
    expect_rejected(io::Json(std::move(o)).dump(),
                    "not a rim-snapshot document", "wrong format");
  }
  // The retired per-field shape carried the same format and version; it
  // must fail with an error that names it, not a bare "missing bytes".
  {
    io::JsonObject o;
    o["format"] = io::Json("rim-snapshot");
    o["version"] = io::Json(Snapshot::kVersion);
    o["cache_valid"] = io::Json(false);
    o["points_bits"] = io::Json(io::JsonArray{});
    o["radii2_bits"] = io::Json(io::JsonArray{});
    o["adjacency"] = io::Json(io::JsonArray{});
    expect_rejected(io::Json(std::move(o)).dump(),
                    "per-field snapshot document (points_bits", "old shape");
  }
}

TEST(SnapshotTest, JsonRoundTripAtEveryPadding) {
  // Byte lengths 0, 1 and 2 (mod 3) exercise no pad, "==" and "=".
  bool seen[3] = {false, false, false};
  for (std::uint64_t seed = 20; seed < 60; ++seed) {
    Scenario scenario = make_scenario(seed);
    if (seed % 2 == 0) (void)scenario.interference();
    const Snapshot original = scenario.snapshot();
    const std::vector<std::uint8_t> bytes = original.to_bytes();
    const std::size_t residue = bytes.size() % 3;
    if (seen[residue]) continue;
    seen[residue] = true;

    const std::string text = original.to_json().dump();
    const std::string encoded = *original.to_json().find("bytes")->as_string();
    EXPECT_EQ(encoded.size(), 4 * ((bytes.size() + 2) / 3));
    EXPECT_EQ(encoded.ends_with("=="), residue == 1);
    EXPECT_EQ(encoded.ends_with("="), residue != 0);
    Snapshot decoded;
    std::string error;
    ASSERT_TRUE(decode_text(text, decoded, error)) << error;
    EXPECT_EQ(decoded.to_bytes(), bytes) << "residue " << residue;

    io::Json doc;
    ASSERT_TRUE(io::Json::parse(text, doc, error)) << error;
    std::uint64_t checksum = 0;
    ASSERT_TRUE(Snapshot::from_json(doc, decoded, checksum, error)) << error;
    EXPECT_EQ(checksum, original.payload_checksum());
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(SnapshotTest, BinaryEncodingIsPinned) {
  // These bytes were written by the per-field-JSON era of this codec; the
  // binary layout (and so every disk spill) must keep decoding and
  // re-encoding to exactly them, and the JSON envelope is their RFC 4648
  // base64.
  const std::string hex =
      "52494d534e415031020000000300000003000000000000000200000000000000"
      "000000000000f03f030140000000000000000010000000000000000000000000"
      "d03f400000000000000004000000000000000000000000000000000000000000"
      "0000000000000000f03f0000000000000080000000000000e03f000000000000"
      "e83f000000000000f03f000000000000f03f000000000000ea3f010000000100"
      "0000020000000000000002000000010000000100000002000000020000000200"
      "00008e31bb9c5743ef3a";
  std::vector<std::uint8_t> golden;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    golden.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  Snapshot spilled;
  std::string error;
  ASSERT_TRUE(Snapshot::from_bytes(golden, spilled, error)) << error;
  EXPECT_EQ(spilled.to_bytes(), golden);
  EXPECT_EQ(spilled.payload_checksum(), 0x3aef43579cbb318eULL);

  Scenario scenario{EvalOptions{}};
  (void)scenario.add_node({0.0, 0.0});
  (void)scenario.add_node({1.0, -0.0});
  (void)scenario.add_node({0.5, 0.75});
  (void)scenario.add_edge(0, 1);
  (void)scenario.add_edge(1, 2);
  (void)scenario.interference();
  const Snapshot fresh = scenario.snapshot();
  EXPECT_EQ(fresh.to_bytes(), golden);
  EXPECT_EQ(fresh.to_json().dump(),
            R"({"bytes":"UklNU05BUDECAAAAAwAAAAMAAAAAAAAAAgAAAAAAAAAAAAAAAADw)"
            R"(PwMBQAAAAAAAAAAAEAAAAAAAAAAAAAAAANA/QAAAAAAAAAAEAAAAAAAAAAAAAA)"
            R"(AAAAAAAAAAAAAAAAAAAAAAAADwPwAAAAAAAACAAAAAAAAA4D8AAAAAAADoPwAA)"
            R"(AAAAAPA/AAAAAAAA8D8AAAAAAADqPwEAAAABAAAAAgAAAAAAAAACAAAAAQAAAA)"
            R"(EAAAACAAAAAgAAAAIAAACOMbucV0PvOg==)"
            R"(","format":"rim-snapshot","version":2})");
}

/// The canonical threshold slots of a v2 encoding: auto_brute_max_nodes,
/// auto_grid_max_nodes, the bits of max_touched_fraction, touched_floor.
constexpr std::array<std::uint64_t, 4> kCanonicalThresholds = {
    64, 4096, 0x3FD0000000000000ULL, 64};

/// Overwrite the reserved execution byte, the four threshold slots and the
/// task-floor u64 of a v2 encoding, then re-seal its FNV-1a trailer so only
/// those fields differ.
std::vector<std::uint8_t> with_reserved_options(
    std::vector<std::uint8_t> bytes, std::uint8_t execution,
    std::uint64_t task_floor,
    const std::array<std::uint64_t, 4>& thresholds = kCanonicalThresholds) {
  constexpr std::size_t kExecutionOffset = 41;  // magic..cell_size, strategy
  constexpr std::size_t kThresholdOffset = 42;  // four 8-byte slots
  constexpr std::size_t kTaskFloorOffset = 74;  // after touched_floor
  const auto put_u64 = [&bytes](std::size_t offset, std::uint64_t value) {
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  };
  bytes[kExecutionOffset] = execution;
  for (std::size_t k = 0; k < thresholds.size(); ++k) {
    put_u64(kThresholdOffset + 8 * k, thresholds[k]);
  }
  put_u64(kTaskFloorOffset, task_floor);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<std::uint8_t>(h >> (8 * i));
  }
  return bytes;
}

TEST(SnapshotTest, ReservedExecutionFieldsDecodeToCanonicalBytes) {
  // Snapshots written while apply_batch still had selectable executors
  // carry execution 0 (serial) or 2 (speculative) and any task floor. They
  // must keep restoring, and re-encode to the canonical 1 and 4.
  Scenario scenario{EvalOptions{}};
  (void)scenario.add_node({0.0, 0.0});
  (void)scenario.add_node({1.0, -0.0});
  (void)scenario.add_node({0.5, 0.75});
  (void)scenario.add_edge(0, 1);
  (void)scenario.add_edge(1, 2);
  (void)scenario.interference();
  const std::vector<std::uint8_t> canonical = scenario.snapshot().to_bytes();
  ASSERT_EQ(canonical[41], 1u);
  ASSERT_EQ(canonical[74], 4u);

  ASSERT_EQ(with_reserved_options(canonical, 1, 4), canonical);

  for (const std::uint8_t execution : {0, 2}) {
    const std::vector<std::uint8_t> legacy =
        with_reserved_options(canonical, execution, 16);
    ASSERT_NE(legacy, canonical);
    Snapshot decoded;
    std::string error;
    ASSERT_TRUE(Snapshot::from_bytes(legacy, decoded, error))
        << "execution " << int{execution} << ": " << error;
    EXPECT_EQ(decoded.to_bytes(), canonical) << "execution " << int{execution};
    Scenario restored{EvalOptions{}};
    ASSERT_TRUE(restored.restore(decoded, &error)) << error;
    EXPECT_EQ(restored.snapshot().to_bytes(), canonical);
  }

  // The four threshold slots are reserved the same way: snapshots written
  // while EvalOptions carried settable thresholds hold any values (a NaN
  // fraction included) and re-encode to the constants.
  const std::array<std::uint64_t, 4> legacy_thresholds[] = {
      {0, 0, 0, 0},
      {1, 1u << 20, 0x3FE0000000000000ULL /* 0.5 */, 128},
      {~0ULL, ~0ULL, 0x7FF8000000000000ULL /* NaN */, ~0ULL}};
  for (const auto& thresholds : legacy_thresholds) {
    const std::vector<std::uint8_t> legacy =
        with_reserved_options(canonical, 1, 4, thresholds);
    ASSERT_NE(legacy, canonical);
    Snapshot decoded;
    std::string error;
    ASSERT_TRUE(Snapshot::from_bytes(legacy, decoded, error))
        << "thresholds " << thresholds[0] << ": " << error;
    EXPECT_EQ(decoded.to_bytes(), canonical) << "thresholds " << thresholds[0];
    Scenario restored{EvalOptions{}};
    ASSERT_TRUE(restored.restore(decoded, &error)) << error;
    EXPECT_EQ(restored.snapshot().to_bytes(), canonical);
  }

  Snapshot refused;
  std::string error;
  EXPECT_FALSE(Snapshot::from_bytes(with_reserved_options(canonical, 3, 4),
                                    refused, error));
  EXPECT_NE(error.find("invalid execution value"), std::string::npos) << error;
}

TEST(SnapshotTest, ValidateCatchesStructuralLies) {
  Scenario scenario = make_scenario(12);
  (void)scenario.interference();
  std::string error;

  // Asymmetric adjacency.
  {
    Snapshot snap = scenario.snapshot();
    ASSERT_FALSE(snap.adjacency.empty());
    ASSERT_FALSE(snap.adjacency[0].empty());
    snap.adjacency[0].pop_back();
    EXPECT_FALSE(snap.validate(error));
  }
  // Edge count that disagrees with the lists.
  {
    Snapshot snap = scenario.snapshot();
    snap.edge_count += 1;
    EXPECT_FALSE(snap.validate(error));
  }
  // Out-of-range neighbor id.
  {
    Snapshot snap = scenario.snapshot();
    snap.adjacency[0][0] = static_cast<NodeId>(snap.node_count() + 7);
    EXPECT_FALSE(snap.validate(error));
  }
  // Restore must refuse and leave the target untouched.
  {
    Snapshot snap = scenario.snapshot();
    snap.edge_count += 1;
    Scenario target = make_scenario(13);
    (void)target.interference();
    const std::vector<std::uint8_t> before = target.snapshot().to_bytes();
    EXPECT_FALSE(target.restore(snap, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(target.snapshot().to_bytes(), before);
  }
}

/// A snapshot whose geometry was tampered with after snapshot(): its bytes
/// carry a fresh, valid checksum (the checksum is no MAC), so only
/// validate() stands between them and the grid. Decoding must name
/// \p field, and restore must refuse and leave the target untouched.
void expect_geometry_rejected(const Snapshot& tampered, const char* field,
                              const char* context) {
  Snapshot decoded;
  std::string error;
  EXPECT_FALSE(Snapshot::from_bytes(tampered.to_bytes(), decoded, error))
      << context;
  EXPECT_NE(error.find(field), std::string::npos)
      << context << ": got '" << error << "'";

  Scenario target = make_scenario(13);
  (void)target.nearest_node({0.0, 0.0});  // build the grid
  const std::vector<std::uint8_t> before = target.snapshot().to_bytes();
  error.clear();
  EXPECT_FALSE(target.restore(tampered, &error)) << context;
  EXPECT_NE(error.find(field), std::string::npos) << context;
  EXPECT_EQ(target.snapshot().to_bytes(), before) << context;
}

Snapshot grid_snapshot(std::uint64_t seed) {
  Scenario scenario = make_scenario(seed);
  (void)scenario.nearest_node({0.0, 0.0});
  Snapshot snap = scenario.snapshot();
  EXPECT_TRUE(snap.grid_built);
  return snap;
}

TEST(SnapshotTest, NonFinitePointIsRejected) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    Snapshot x = grid_snapshot(21);
    x.points[1].x = bad;
    expect_geometry_rejected(x, "points", "points[1].x");
    Snapshot y = grid_snapshot(21);
    y.points[1].y = bad;
    expect_geometry_rejected(y, "points", "points[1].y");
  }
}

TEST(SnapshotTest, NonFiniteOrNegativeRadiusIsRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    Snapshot snap = grid_snapshot(22);
    snap.radii2[2] = bad;
    expect_geometry_rejected(snap, "radii2", "radii2[2]");
  }
}

TEST(SnapshotTest, NonFiniteCellSizeIsRejected) {
  for (const bool built : {true, false}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      Snapshot snap = grid_snapshot(23);
      snap.grid_built = built;
      snap.cell_size = bad;
      expect_geometry_rejected(snap, "cell_size", "cell_size");
    }
  }
}

TEST(SnapshotTest, HexBitsRoundTripExactly) {
  const double values[] = {0.0, -0.0, 1.0, -1.5, 1e-308, 3.141592653589793};
  for (const double v : values) {
    double back = 99.0;
    ASSERT_TRUE(double_from_hex_bits(double_to_hex_bits(v), back));
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0);
  }
  double out = 0.0;
  EXPECT_FALSE(double_from_hex_bits("zzzz", out));
  EXPECT_FALSE(double_from_hex_bits("0123456789abcde", out));  // 15 digits
}

}  // namespace
}  // namespace rim::core
