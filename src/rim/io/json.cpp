#include "rim/io/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace rim::io {

namespace {

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

std::string json_escape(const std::string& raw) {
  auto it = std::find_if(raw.begin(), raw.end(), needs_escape);
  if (it == raw.end()) return raw;
  std::string out(raw.begin(), it);
  out.reserve(raw.size() + 8);
  for (; it != raw.end(); ++it) {
    const char c = *it;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Json::append_to(std::string& out) const {
  struct Visitor {
    std::string& out;
    void operator()(std::nullptr_t) const { out += "null"; }
    void operator()(bool b) const { out += b ? "true" : "false"; }
    void operator()(double d) const {
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no Inf/NaN
        return;
      }
      // Integral doubles print without a fraction for readability.
      char buffer[32];
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        const auto end = std::to_chars(buffer, buffer + sizeof buffer,
                                       static_cast<long long>(d));
        out.append(buffer, end.ptr);
      } else {
        const int length =
            std::snprintf(buffer, sizeof buffer, "%.17g", d);
        out.append(buffer, static_cast<std::size_t>(length));
      }
    }
    void operator()(const std::string& s) const {
      out += '"';
      // Skip json_escape's copy in the common case (e.g. base64 snapshots).
      if (std::none_of(s.begin(), s.end(), needs_escape)) {
        out += s;
      } else {
        out += json_escape(s);
      }
      out += '"';
    }
    void operator()(const JsonArray& a) const {
      out += '[';
      bool first = true;
      for (const Json& v : a) {
        if (!first) out += ',';
        first = false;
        v.append_to(out);
      }
      out += ']';
    }
    void operator()(const JsonObject& o) const {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : o) {
        if (!first) out += ',';
        first = false;
        (*this)(key);
        out += ':';
        value.append_to(out);
      }
      out += '}';
    }
  };
  std::visit(Visitor{out}, value_);
}

void Json::write(std::ostream& out) const { out << dump(); }

std::string Json::dump() const {
  std::string out;
  append_to(out);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view cursor. Depth-limited so a
/// hostile document (e.g. a corrupted snapshot full of '[') cannot blow the
/// stack — parse failures must be errors, never UB.
class Parser {
 public:
  Parser(std::string_view text, std::string& error)
      : text_(text), error_(error) {}

  bool run(Json& out) {
    if (!parse_value(out, 0)) return false;
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    error_ = "JSON parse error at offset " + std::to_string(pos_) + ": " + what;
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool peek(char& c) {
    skip_whitespace();
    if (pos_ >= text_.size()) return false;
    c = text_[pos_];
    return true;
  }

  bool literal(std::string_view word, Json value, Json& out) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    out = std::move(value);
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      // Append the run of bytes that need no decoding in one go.
      std::size_t run_end = pos_;
      while (run_end < text_.size() && !needs_escape(text_[run_end])) {
        ++run_end;
      }
      out.append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("unescaped control character in string");
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writer; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected number");
    // JSON numbers begin with '-' or a digit; strtod is laxer ("+1",
    // ".5", "infinity") — reject those spellings before it sees them.
    const std::size_t digit_at = text_[start] == '-' ? start + 1 : start;
    if (digit_at >= pos_ || text_[digit_at] < '0' || text_[digit_at] > '9') {
      pos_ = start;
      return fail("malformed number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    // strtod saturates overflow to ±inf; JSON has no Inf/NaN, and the
    // writer never emits them, so an overflowing literal is hostile or
    // corrupt input — reject it rather than smuggle a non-finite through.
    if (!std::isfinite(value)) {
      pos_ = start;
      return fail("number overflows double");
    }
    out = Json(value);
    return true;
  }

  bool parse_value(Json& out, std::size_t depth) {
    if (depth > Json::kMaxParseDepth) return fail("nesting too deep");
    char c = 0;
    if (!peek(c)) return fail("unexpected end of input");
    switch (c) {
      case 'n': return literal("null", Json(nullptr), out);
      case 't': return literal("true", Json(true), out);
      case 'f': return literal("false", Json(false), out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++pos_;
        JsonArray array;
        char next = 0;
        if (!peek(next)) return fail("unterminated array");
        if (next == ']') {
          ++pos_;
          out = Json(std::move(array));
          return true;
        }
        while (true) {
          Json element;
          if (!parse_value(element, depth + 1)) return false;
          array.push_back(std::move(element));
          if (!peek(next)) return fail("unterminated array");
          ++pos_;
          if (next == ']') break;
          if (next != ',') return fail("expected ',' or ']' in array");
        }
        out = Json(std::move(array));
        return true;
      }
      case '{': {
        ++pos_;
        JsonObject object;
        char next = 0;
        if (!peek(next)) return fail("unterminated object");
        if (next == '}') {
          ++pos_;
          out = Json(std::move(object));
          return true;
        }
        while (true) {
          if (!peek(next) || next != '"') return fail("expected object key");
          std::string key;
          if (!parse_string(key)) return false;
          if (!peek(next) || next != ':') return fail("expected ':'");
          ++pos_;
          Json value;
          if (!parse_value(value, depth + 1)) return false;
          object.insert_or_assign(std::move(key), std::move(value));
          if (!peek(next)) return fail("unterminated object");
          ++pos_;
          if (next == '}') break;
          if (next != ',') return fail("expected ',' or '}' in object");
        }
        out = Json(std::move(object));
        return true;
      }
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::string& error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::parse(std::string_view text, Json& out, std::string& error) {
  error.clear();
  return Parser(text, error).run(out);
}

bool json_to_u64(const Json& json, std::uint64_t max, std::uint64_t& out) {
  if (!json.is_number()) return false;
  const double value = json.as_number();
  if (!(value >= 0.0) || value != std::floor(value)) return false;
  // Doubles are exact up to 2^53; every id space here (NodeId, session
  // ids, trace sizes) fits below that.
  if (value > 9007199254740992.0) return false;
  const auto integral = static_cast<std::uint64_t>(value);
  if (integral > max) return false;
  out = integral;
  return true;
}

}  // namespace rim::io
