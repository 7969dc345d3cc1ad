#include "rim/core/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string_view>

namespace rim::core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
constexpr char kMagic[8] = {'R', 'I', 'M', 'S', 'N', 'A', 'P', '1'};

// Reserved v2 option fields. They once carried the batch execution mode
// (0 serial, 1 wave, 2 speculative) and the per-wave parallel task floor;
// apply_batch now has one executor, so encoders write the values every
// default snapshot carried and decoders ignore them (after range-checking
// the mode byte, which keeps an out-of-range value a corruption error).
constexpr std::uint8_t kReservedExecution = 1;
constexpr std::uint8_t kReservedExecutionMax = 2;
constexpr std::uint64_t kReservedTaskFloor = 4;

std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

double bits_double(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

class ByteWriter {
 public:
  explicit ByteWriter(std::size_t capacity = 0) { out_.reserve(capacity); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) { u64(double_bits(v)); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reader; every accessor reports truncation
/// instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = bytes_[pos_++];
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }
  [[nodiscard]] bool u64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }
  [[nodiscard]] bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = bits_double(bits);
    return true;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Serialise everything except the trailing checksum (its 8 bytes are
/// reserved, so to_bytes() appends them without reallocating).
std::vector<std::uint8_t> encode_payload(const Snapshot& s) {
  std::size_t size = 82 + 28 * s.points.size() + 8;  // header, nodes, trailer
  for (const auto& neighbors : s.adjacency) size += 4 * neighbors.size();
  if (s.cache_valid) size += 4 * s.interference.size();
  ByteWriter w(size);
  for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(Snapshot::kVersion);
  w.u32((s.cache_valid ? 1u : 0u) | (s.grid_built ? 2u : 0u));
  w.u64(s.points.size());
  w.u64(s.edge_count);
  w.f64(s.cell_size);
  w.u8(static_cast<std::uint8_t>(s.options.strategy));
  w.u8(kReservedExecution);
  w.u64(s.options.auto_brute_max_nodes);
  w.u64(s.options.auto_grid_max_nodes);
  w.f64(s.options.max_touched_fraction);
  w.u64(s.options.touched_floor);
  w.u64(kReservedTaskFloor);
  for (const geom::Vec2 p : s.points) {
    w.f64(p.x);
    w.f64(p.y);
  }
  for (const double r2 : s.radii2) w.f64(r2);
  for (const auto& neighbors : s.adjacency) {
    w.u32(static_cast<std::uint32_t>(neighbors.size()));
    for (const NodeId v : neighbors) w.u32(v);
  }
  if (s.cache_valid) {
    for (const std::uint32_t i : s.interference) w.u32(i);
  }
  return w.take();
}

bool decode_fail(std::string& error, const std::string& what) {
  error = "snapshot decode error: " + what;
  return false;
}

constexpr const char* kJsonFormat = "rim-snapshot";

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
constexpr std::uint8_t kNotBase64 = 0xFF;

/// Alphabet character -> 6-bit value; kNotBase64 for everything else,
/// including the '=' pad.
constexpr std::array<std::uint8_t, 256> kBase64Values = [] {
  std::array<std::uint8_t, 256> values{};
  values.fill(kNotBase64);
  for (std::uint8_t i = 0; i < 64; ++i) {
    values[static_cast<unsigned char>(kBase64Alphabet[i])] = i;
  }
  return values;
}();

/// RFC 4648 base64 with '=' padding.
std::string base64_encode(std::span<const std::uint8_t> bytes) {
  std::string out(4 * ((bytes.size() + 2) / 3), '=');
  // Raw pointers: a char store may alias the string's own members, so
  // indexing through `out` would reload them on every write.
  const std::uint8_t* in = bytes.data();
  char* o = out.data();
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const std::uint32_t word = static_cast<std::uint32_t>(in[i]) << 16 |
                               static_cast<std::uint32_t>(in[i + 1]) << 8 |
                               in[i + 2];
    *o++ = kBase64Alphabet[word >> 18];
    *o++ = kBase64Alphabet[(word >> 12) & 63];
    *o++ = kBase64Alphabet[(word >> 6) & 63];
    *o++ = kBase64Alphabet[word & 63];
  }
  if (const std::size_t rest = bytes.size() - i; rest > 0) {
    const std::uint32_t word =
        static_cast<std::uint32_t>(in[i]) << 16 |
        (rest == 2 ? static_cast<std::uint32_t>(in[i + 1]) << 8 : 0);
    *o++ = kBase64Alphabet[word >> 18];
    *o++ = kBase64Alphabet[(word >> 12) & 63];
    if (rest == 2) *o = kBase64Alphabet[(word >> 6) & 63];
  }
  return out;
}

/// Strict inverse of base64_encode: the length is a multiple of 4, every
/// character before the (at most two) trailing '=' is in the alphabet, and
/// the bits the padding discards are zero, so exactly one text decodes to
/// any byte string.
bool base64_decode(std::string_view text, std::vector<std::uint8_t>& out,
                   std::string& error) {
  if (text.size() % 4 != 0) {
    return decode_fail(error, "base64 length " + std::to_string(text.size()) +
                                  " is not a multiple of 4");
  }
  std::size_t pad = 0;
  while (pad < 2 && pad < text.size() && text[text.size() - 1 - pad] == '=') {
    ++pad;
  }
  const std::size_t chars = text.size() - pad;  // 4k, 4k+2 or 4k+3
  const auto value = [&](std::size_t at) -> std::uint32_t {
    return kBase64Values[static_cast<unsigned char>(text[at])];
  };
  // Called once a lookup came back kNotBase64 somewhere in [from, to).
  const auto bad_character = [&](std::size_t from, std::size_t to) {
    std::size_t at = from;
    while (at + 1 < to && value(at) != kNotBase64) ++at;
    return decode_fail(error, std::string(text[at] == '='
                                              ? "base64 '=' before the end"
                                              : "non-base64 character") +
                                  " at offset " + std::to_string(at));
  };
  out.resize(chars * 3 / 4);
  std::uint8_t* o = out.data();  // see base64_encode on aliasing
  std::size_t i = 0;
  for (; i + 4 <= chars; i += 4) {
    const std::uint32_t a = value(i), b = value(i + 1), c = value(i + 2),
                        d = value(i + 3);
    if ((a | b | c | d) > 63) return bad_character(i, i + 4);
    const std::uint32_t word = a << 18 | b << 12 | c << 6 | d;
    *o++ = static_cast<std::uint8_t>(word >> 16);
    *o++ = static_cast<std::uint8_t>(word >> 8);
    *o++ = static_cast<std::uint8_t>(word);
  }
  if (pad == 0) return true;
  const std::uint32_t a = value(i), b = value(i + 1),
                      c = pad == 1 ? value(i + 2) : 0;
  if ((a | b | c) > 63) return bad_character(i, chars);
  const std::uint32_t word = a << 18 | b << 12 | c << 6;
  if ((word & (pad == 1 ? 0xFFu : 0xFFFFu)) != 0) {
    return decode_fail(error, "non-zero base64 pad bits");
  }
  *o++ = static_cast<std::uint8_t>(word >> 16);
  if (pad == 1) *o = static_cast<std::uint8_t>(word >> 8);
  return true;
}

}  // namespace

std::uint64_t fnv1a_words(std::span<const std::uint32_t> words) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint32_t v : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (v >> shift) & 0xFFU;
      h *= kFnvPrime;
    }
  }
  return h;
}

std::string u64_to_hex(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] =
        kDigits[(value >> (4 * (15 - i))) & 0xF];
  }
  return out;
}

std::string double_to_hex_bits(double value) {
  return u64_to_hex(double_bits(value));
}

bool double_from_hex_bits(const std::string& hex, double& value) {
  if (hex.size() != 16) return false;
  std::uint64_t bits = 0;
  for (const char c : hex) {
    bits <<= 4;
    if (c >= '0' && c <= '9') {
      bits |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      bits |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  value = bits_double(bits);
  return true;
}

std::uint64_t Snapshot::payload_checksum() const {
  return fnv1a_bytes(encode_payload(*this));
}

std::uint64_t Snapshot::interference_checksum() const {
  if (!cache_valid) return 0;
  return fnv1a_words(interference);
}

bool Snapshot::validate(std::string& error) const {
  const std::size_t n = points.size();
  if (radii2.size() != n) {
    return decode_fail(error, "radii2 size mismatch");
  }
  if (adjacency.size() != n) {
    return decode_fail(error, "adjacency size mismatch");
  }
  if (cache_valid ? interference.size() != n : !interference.empty()) {
    return decode_fail(error, "interference size mismatch");
  }
  // The checksum is no MAC, so a crafted snapshot can carry any bits. The
  // grid casts floor(x / cell_size) to an integer, and non-finite values
  // would make that undefined behaviour.
  if (!std::isfinite(cell_size)) {
    return decode_fail(error, "cell_size not finite");
  }
  if (grid_built && !(cell_size > 0.0)) {
    return decode_fail(error, "grid marked built but cell_size not positive");
  }
  for (const geom::Vec2 p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return decode_fail(error, "points coordinate not finite");
    }
  }
  for (const double r2 : radii2) {
    if (!std::isfinite(r2) || r2 < 0.0) {
      return decode_fail(error, "radii2 value not finite and non-negative");
    }
  }
  std::size_t degree_sum = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto& neighbors = adjacency[u];
    degree_sum += neighbors.size();
    for (const NodeId v : neighbors) {
      if (v >= n) return decode_fail(error, "neighbor id out of range");
      if (v == u) return decode_fail(error, "self-loop in adjacency");
      if (std::count(neighbors.begin(), neighbors.end(), v) != 1) {
        return decode_fail(error, "duplicate neighbor entry");
      }
      const auto& back = adjacency[v];
      if (std::find(back.begin(), back.end(), u) == back.end()) {
        return decode_fail(error, "asymmetric adjacency");
      }
    }
  }
  if (degree_sum != 2 * edge_count) {
    return decode_fail(error, "edge count disagrees with adjacency");
  }
  return true;
}

std::vector<std::uint8_t> Snapshot::to_bytes() const {
  std::vector<std::uint8_t> payload = encode_payload(*this);
  const std::uint64_t checksum = fnv1a_bytes(payload);
  ByteWriter tail;
  tail.u64(checksum);
  const std::vector<std::uint8_t> checksum_bytes = tail.take();
  payload.insert(payload.end(), checksum_bytes.begin(), checksum_bytes.end());
  return payload;
}

bool Snapshot::from_bytes(std::span<const std::uint8_t> bytes, Snapshot& out,
                          std::string& error) {
  out = Snapshot{};
  if (bytes.size() < sizeof kMagic + 8) {
    return decode_fail(error, "truncated (shorter than header)");
  }
  // Checksum first: everything before the trailing u64 must hash to it.
  const std::span<const std::uint8_t> payload =
      bytes.subspan(0, bytes.size() - 8);
  {
    ByteReader tail(bytes.subspan(bytes.size() - 8));
    std::uint64_t stored = 0;
    (void)tail.u64(stored);
    if (fnv1a_bytes(payload) != stored) {
      return decode_fail(error, "checksum mismatch (corrupted or truncated)");
    }
  }
  ByteReader r(payload);
  for (const char c : kMagic) {
    std::uint8_t b = 0;
    if (!r.u8(b) || b != static_cast<std::uint8_t>(c)) {
      return decode_fail(error, "bad magic (not a rim snapshot)");
    }
  }
  std::uint32_t version = 0;
  if (!r.u32(version)) return decode_fail(error, "truncated version");
  if (version != kVersion) {
    return decode_fail(error,
                       "unsupported version " + std::to_string(version) +
                           " (this build reads version " +
                           std::to_string(kVersion) + ")");
  }
  std::uint32_t flags = 0;
  std::uint64_t node_count = 0;
  std::uint64_t edge_count = 0;
  if (!r.u32(flags) || !r.u64(node_count) || !r.u64(edge_count) ||
      !r.f64(out.cell_size)) {
    return decode_fail(error, "truncated header");
  }
  out.cache_valid = (flags & 1u) != 0;
  out.grid_built = (flags & 2u) != 0;
  out.edge_count = static_cast<std::size_t>(edge_count);
  std::uint8_t strategy = 0;
  std::uint8_t execution = 0;
  std::uint64_t task_floor = 0;
  if (!r.u8(strategy) || !r.u8(execution) ||
      !r.u64(out.options.auto_brute_max_nodes) ||
      !r.u64(out.options.auto_grid_max_nodes) ||
      !r.f64(out.options.max_touched_fraction) ||
      !r.u64(out.options.touched_floor) || !r.u64(task_floor)) {
    return decode_fail(error, "truncated options");
  }
  if (strategy > static_cast<std::uint8_t>(Strategy::kAuto)) {
    return decode_fail(error, "invalid strategy value");
  }
  if (execution > kReservedExecutionMax) {
    return decode_fail(error, "invalid execution value");
  }
  out.options.with_strategy(static_cast<Strategy>(strategy));
  // Cheap sanity bound before reserving: every node needs at least
  // 24 payload bytes (point + radius), so a huge count is corruption.
  if (node_count > r.remaining() / 24 + 1) {
    return decode_fail(error, "node count exceeds payload size");
  }
  const auto n = static_cast<std::size_t>(node_count);
  out.points.resize(n);
  for (geom::Vec2& p : out.points) {
    if (!r.f64(p.x) || !r.f64(p.y)) {
      return decode_fail(error, "truncated points");
    }
  }
  out.radii2.resize(n);
  for (double& r2 : out.radii2) {
    if (!r.f64(r2)) return decode_fail(error, "truncated radii");
  }
  out.adjacency.resize(n);
  for (auto& neighbors : out.adjacency) {
    std::uint32_t degree = 0;
    if (!r.u32(degree)) return decode_fail(error, "truncated adjacency");
    if (degree > r.remaining() / 4) {
      return decode_fail(error, "degree exceeds payload size");
    }
    neighbors.resize(degree);
    for (NodeId& v : neighbors) {
      if (!r.u32(v)) return decode_fail(error, "truncated adjacency list");
    }
  }
  if (out.cache_valid) {
    out.interference.resize(n);
    for (std::uint32_t& i : out.interference) {
      if (!r.u32(i)) return decode_fail(error, "truncated interference");
    }
  }
  if (r.remaining() != 0) {
    return decode_fail(error, "trailing bytes after payload");
  }
  return out.validate(error);
}

io::Json Snapshot::to_json() const {
  io::JsonObject o;
  o["bytes"] = io::Json(base64_encode(to_bytes()));
  o["format"] = io::Json(kJsonFormat);
  o["version"] = io::Json(kVersion);
  return io::Json(std::move(o));
}

bool Snapshot::from_json(const io::Json& json, Snapshot& out,
                         std::string& error) {
  std::uint64_t checksum = 0;
  return from_json(json, out, checksum, error);
}

bool Snapshot::from_json(const io::Json& json, Snapshot& out,
                         std::uint64_t& checksum, std::string& error) {
  out = Snapshot{};
  const auto* format = json.find("format");
  if (format == nullptr || format->as_string() == nullptr ||
      *format->as_string() != kJsonFormat) {
    return decode_fail(error, "not a rim-snapshot document");
  }
  const auto* version = json.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != static_cast<double>(kVersion)) {
    return decode_fail(error, "unsupported or missing version");
  }
  const auto* encoded = json.find("bytes");
  if (encoded == nullptr || encoded->as_string() == nullptr) {
    return decode_fail(
        error, json.find("points_bits") != nullptr
                   ? "per-field snapshot document (points_bits, "
                     "radii2_bits, ...) is no longer read: the JSON form is "
                     "base64 'bytes' of the binary snapshot"
                   : "missing base64 'bytes' string");
  }
  std::vector<std::uint8_t> bytes;
  if (!base64_decode(*encoded->as_string(), bytes, error) ||
      !from_bytes(bytes, out, error)) {
    return false;
  }
  // from_bytes verified the trailer against the payload, so it is the
  // payload checksum without re-encoding \p out.
  ByteReader trailer(std::span<const std::uint8_t>(bytes).last(8));
  (void)trailer.u64(checksum);
  return true;
}

}  // namespace rim::core
