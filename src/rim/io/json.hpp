#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

/// \file json.hpp
/// Minimal JSON value, writer, and parser: machine-readable experiment
/// output next to the human-readable tables (no external dependencies).
/// The parser exists for the robustness tooling — snapshots (core::Snapshot)
/// and fuzz traces (sim::FuzzTrace) serialise to JSON and must be read back
/// to replay; everything else in the library only ever writes.

namespace rim::io {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(unsigned i) : value_(static_cast<double>(i)) {}
  Json(long long i) : value_(static_cast<double>(i)) {}
  Json(unsigned long i) : value_(static_cast<double>(i)) {}
  Json(unsigned long long i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  /// Serialise compactly (no insignificant whitespace); object keys are
  /// emitted in map order, so output is deterministic.
  void write(std::ostream& out) const;

  /// Convenience: serialise to a string.
  [[nodiscard]] std::string dump() const;

  /// Maximum container nesting parse() accepts. The parser recurses once
  /// per nesting level, so this bounds stack use against hostile input (a
  /// kilobyte of '[' must be a parse error, not a stack overflow). 64 is
  /// far beyond any document the library writes (snapshots nest < 8 deep)
  /// while keeping worst-case recursion trivially safe on any thread's
  /// stack. Part of the wire contract: svc transports reject frames whose
  /// payloads exceed it with "bad_frame".
  static constexpr std::size_t kMaxParseDepth = 64;

  /// Parse \p text into \p out. Returns false (with a position-annotated
  /// message in \p error) on malformed input — never UB, never throws.
  /// Accepts exactly what write() emits plus standard JSON whitespace.
  /// Hardened for untrusted input: nesting beyond kMaxParseDepth and
  /// numbers that overflow double (JSON has no Inf/NaN) are parse errors.
  [[nodiscard]] static bool parse(std::string_view text, Json& out,
                                  std::string& error);

  // --- read accessors (for parsed documents) -----------------------------

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value_);
  }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    const bool* b = std::get_if<bool>(&value_);
    return b != nullptr ? *b : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const {
    const double* d = std::get_if<double>(&value_);
    return d != nullptr ? *d : fallback;
  }
  /// nullptr when the value is not of the requested shape.
  [[nodiscard]] const std::string* as_string() const {
    return std::get_if<std::string>(&value_);
  }
  [[nodiscard]] const JsonArray* as_array() const {
    return std::get_if<JsonArray>(&value_);
  }
  [[nodiscard]] const JsonObject* as_object() const {
    return std::get_if<JsonObject>(&value_);
  }

  /// Object member lookup; nullptr when not an object or the key is absent.
  [[nodiscard]] const Json* find(const std::string& key) const {
    const JsonObject* o = as_object();
    if (o == nullptr) return nullptr;
    const auto it = o->find(key);
    return it != o->end() ? &it->second : nullptr;
  }
  /// Mutable lookup, so a member can be moved out of a parsed document.
  [[nodiscard]] Json* find(const std::string& key) {
    return const_cast<Json*>(std::as_const(*this).find(key));
  }

 private:
  void append_to(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value_;
};

/// Escape a string per RFC 8259 (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(const std::string& raw);

}  // namespace rim::io
