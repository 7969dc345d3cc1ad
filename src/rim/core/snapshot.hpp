#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rim/core/interference.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/io/json.hpp"

/// \file snapshot.hpp
/// Versioned, checksummed serialization of full core::Scenario state.
///
/// A snapshot captures everything the incremental engine owns — points,
/// adjacency lists (in list order), cached radii, the per-node interference
/// cache, grid configuration, and the EvalOptions — such that
/// Scenario::restore() yields an engine observationally indistinguishable
/// from one that replayed the original mutation trace: every query answer,
/// every subsequent mutation result, and every re-snapshot is bit-identical.
/// This is the foundation of the crash-restore-replay fault model
/// (sim::FaultPlan): snapshot before a batch, crash anywhere inside it,
/// restore, replay, and the end state must equal the uninjected run's.
///
/// One codec, two containers:
///  - to_bytes()/from_bytes(): the canonical binary encoding. Doubles are
///    bit-cast to uint64 so round-trips are exact, including -0.0 and
///    subnormals. It ends with an FNV-1a checksum over the payload.
///  - to_json()/from_json(): a thin envelope for the wire,
///    {"bytes":"<base64 of to_bytes()>","format":"rim-snapshot",
///    "version":2}.
///
/// Decoding verifies checksum, magic, version, and structural consistency
/// (array sizes, id ranges, adjacency symmetry) and fails with a clear
/// error message on any mismatch — truncated, corrupted, or non-canonical
/// base64 snapshots are rejected, never undefined behavior.

namespace rim::core {

struct Snapshot {
  /// Bumped on any incompatible layout change; from_bytes/from_json reject
  /// other versions (no silent migrations — the compatibility policy is
  /// "same version restores, anything else errors", DESIGN.md §7).
  /// Version 2: EvalOptions grew the batch execution mode. The mode byte,
  /// the four threshold slots and the task floor after them are reserved
  /// fields now (written as 1, the EvalOptions constants and 4, ignored on
  /// decode), so the layout and the version stay.
  static constexpr std::uint32_t kVersion = 2;

  bool cache_valid = false;  ///< interference[] present (engine not dirty)
  bool grid_built = false;   ///< persistent index existed (cell_size valid)
  double cell_size = 0.0;
  EvalOptions options{};
  std::size_t edge_count = 0;
  geom::PointSet points;
  /// Full adjacency lists in stored order. Order does not change query
  /// results, but preserving it makes re-snapshotting a restored scenario
  /// reproduce these bytes exactly.
  std::vector<std::vector<NodeId>> adjacency;
  std::vector<double> radii2;
  /// Cached I(v) per node; present iff cache_valid.
  std::vector<std::uint32_t> interference;

  [[nodiscard]] std::size_t node_count() const { return points.size(); }

  /// Canonical binary encoding (magic, version, payload, FNV-1a checksum).
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;

  /// Decode and fully validate \p bytes. On failure returns false and sets
  /// \p error; \p out is left unspecified but destructible.
  [[nodiscard]] static bool from_bytes(std::span<const std::uint8_t> bytes,
                                       Snapshot& out, std::string& error);

  /// JSON envelope: {"bytes": base64(to_bytes()), "format", "version"}.
  [[nodiscard]] io::Json to_json() const;

  /// Parse the to_json() form back: a strict base64 decode of "bytes"
  /// followed by from_bytes(). The retired per-field document (with
  /// "points_bits", ...) is rejected with an error that says so.
  [[nodiscard]] static bool from_json(const io::Json& json, Snapshot& out,
                                      std::string& error);

  /// from_json() that also returns the checksum it verified, which equals
  /// out.payload_checksum() but costs no re-encode.
  [[nodiscard]] static bool from_json(const io::Json& json, Snapshot& out,
                                      std::uint64_t& checksum,
                                      std::string& error);

  /// FNV-1a over the canonical binary payload (excluding the trailing
  /// checksum field itself) — the trailer to_bytes() appends.
  [[nodiscard]] std::uint64_t payload_checksum() const;

  /// FNV-1a over the cached interference vector (0 when cache_valid is
  /// false); matches sim::TenantStats::interference_checksum for the same
  /// state, so snapshots and workload reports cross-check directly.
  [[nodiscard]] std::uint64_t interference_checksum() const;

  /// Structural consistency checked by from_bytes(): size agreement, id
  /// ranges, adjacency symmetry, edge count, no self-loops or duplicates.
  [[nodiscard]] bool validate(std::string& error) const;
};

/// FNV-1a over a 32-bit word sequence (the library's one checksum kernel,
/// shared by Snapshot and sim::WorkloadDriver).
[[nodiscard]] std::uint64_t fnv1a_words(std::span<const std::uint32_t> words);

/// \p value as 16 lowercase hex digits. JSON numbers are doubles, which
/// round above 2^53, so 64-bit checksums travel in this form.
[[nodiscard]] std::string u64_to_hex(std::uint64_t value);

/// Bit-exact double <-> 16-hex-digit text (used by the JSON encoding of
/// fuzz traces).
[[nodiscard]] std::string double_to_hex_bits(double value);
[[nodiscard]] bool double_from_hex_bits(const std::string& hex, double& value);

}  // namespace rim::core
