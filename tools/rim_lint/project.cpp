#include "project.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "scan.hpp"

namespace rim::lint {
namespace {

namespace fs = std::filesystem;
using detail::ScanResult;
using detail::Token;

constexpr std::string_view kTaint = "project-taint";
constexpr std::string_view kLockOrder = "project-lock-order";
constexpr std::string_view kCoverage = "project-annotation-coverage";

// ---------------------------------------------------------------------------
// compile_commands.json
// ---------------------------------------------------------------------------

/// Decode one JSON string literal starting at src[i] == '"'. Returns the
/// decoded value and leaves \p i one past the closing quote. Paths are
/// ASCII in practice; \uXXXX escapes are passed through verbatim.
std::string json_string_at(std::string_view src, std::size_t& i) {
  std::string out;
  ++i;  // opening quote
  while (i < src.size() && src[i] != '"') {
    if (src[i] == '\\' && i + 1 < src.size()) {
      const char e = src[i + 1];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        default: out += '\\'; out += e; break;
      }
      i += 2;
    } else {
      out += src[i++];
    }
  }
  if (i < src.size()) ++i;  // closing quote
  return out;
}

/// Pull the "directory" and "file" values out of every object in a
/// compile_commands.json array. Hand-rolled on purpose: the format CMake
/// emits is flat and predictable, and rim_lint links nothing.
std::vector<std::pair<std::string, std::string>> parse_compile_commands(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  int depth = 0;
  std::string directory;
  std::string file;
  std::string pending_key;
  while (i < n) {
    const char c = text[i];
    if (c == '"') {
      std::string value = json_string_at(text, i);
      // Within an object, strings alternate key / value; a key is a string
      // followed (after whitespace) by ':'.
      std::size_t j = i;
      while (j < n && (text[j] == ' ' || text[j] == '\n' || text[j] == '\t' ||
                       text[j] == '\r')) {
        ++j;
      }
      if (j < n && text[j] == ':') {
        pending_key = std::move(value);
      } else {
        if (pending_key == "directory") directory = std::move(value);
        if (pending_key == "file") file = std::move(value);
        pending_key.clear();
      }
      continue;
    }
    if (c == '{') {
      ++depth;
      directory.clear();
      file.clear();
    } else if (c == '}') {
      --depth;
      if (!file.empty()) out.emplace_back(directory, file);
    }
    ++i;
  }
  return out;
}

[[nodiscard]] std::string normalize_path(const fs::path& p) {
  return p.lexically_normal().generic_string();
}

/// Repo-relative display path: everything from the last "src/" path
/// component on, so reports and the committed baseline are stable across
/// checkouts (CI's workspace prefix differs from a local clone's).
[[nodiscard]] std::string display_path(const std::string& p) {
  const auto pos = p.rfind("/src/");
  if (pos != std::string::npos) return p.substr(pos + 1);
  if (p.rfind("src/", 0) == 0) return p;
  return p;
}

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Token-level helpers
// ---------------------------------------------------------------------------

/// Drop tokens on preprocessor directive lines (a '#' opening a line, plus
/// backslash continuations). Without this, `#include <rim/x.hpp>` leaks
/// stray '<'/'>' tokens and multi-line #defines corrupt brace tracking.
std::vector<Token> strip_directives(const std::vector<Token>& in) {
  std::vector<Token> out;
  out.reserve(in.size());
  bool skipping = false;
  bool continues = false;
  std::size_t directive_line = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Token& t = in[i];
    const bool first_on_line = i == 0 || in[i - 1].line != t.line;
    if (skipping) {
      if (t.line == directive_line) {
        continues = t.text == "\\";
        continue;
      }
      if (continues && t.line == directive_line + 1) {
        directive_line = t.line;
        continues = t.text == "\\";
        continue;
      }
      skipping = false;
    }
    if (t.text == "#" && first_on_line) {
      skipping = true;
      continues = false;
      directive_line = t.line;
      continue;
    }
    out.push_back(t);
  }
  return out;
}

const std::set<std::string>& call_keyword_blocklist() {
  static const std::set<std::string> kSet = {
      "if",       "for",          "while",    "switch",   "return",
      "sizeof",   "alignof",      "decltype", "noexcept", "catch",
      "new",      "delete",       "throw",    "assert",   "static_assert",
      "defined",  "alignas",      "typeid",   "co_await", "co_return",
      "requires", "static_cast",  "const_cast",
      "dynamic_cast", "reinterpret_cast"};
  return kSet;
}

[[nodiscard]] bool is_ident(const std::string& t) {
  return !t.empty() && detail::ident_start(t[0]);
}

/// Advance \p i past a balanced template-argument list; toks[i] must be "<".
/// ">>" closes two levels (the tokenizer lexes it as one token).
void skip_angles(const std::vector<Token>& toks, std::size_t& i) {
  int depth = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (t == "<" || t == "<<") depth += t == "<<" ? 2 : 1;
    if (t == ">" || t == ">>") depth -= t == ">>" ? 2 : 1;
    ++i;
    if (depth <= 0) return;
  }
}

/// Advance \p i past a balanced group; toks[i] must be \p open.
void skip_balanced(const std::vector<Token>& toks, std::size_t& i,
                   std::string_view open, std::string_view close) {
  int depth = 0;
  while (i < toks.size()) {
    if (toks[i].text == open) ++depth;
    if (toks[i].text == close) --depth;
    ++i;
    if (depth == 0) return;
  }
}

// ---------------------------------------------------------------------------
// Project index
// ---------------------------------------------------------------------------

struct SourceHit {
  std::string file;   ///< display path
  std::size_t line = 0;
  std::string what;   ///< human description of the nondeterminism source
};

struct Acquisition {
  std::string mutex_id;  ///< "Class::member"
  std::string file;
  std::size_t line = 0;
  bool in_task_lambda = false;
};

struct FunctionDef {
  std::string name;
  std::string klass;  ///< empty for free functions
  std::string file;   ///< display path of the defining file
  std::size_t line = 0;
  std::size_t body_begin = 0;  ///< token index into the owning file's stream
  std::size_t body_end = 0;
  std::vector<std::string> requires_mutexes;  ///< RIM_REQUIRES args (raw names)
  std::size_t file_index = 0;  ///< which FileScan owns the body span
};

struct MutexMember {
  std::string klass;
  std::string name;
  std::size_t line = 0;
  std::string file;
  /// Raw (possibly "Class::member") references from the annotations.
  std::vector<std::string> after;   ///< RIM_ACQUIRED_AFTER targets
  std::vector<std::string> before;  ///< RIM_ACQUIRED_BEFORE targets
};

struct FileScan {
  std::string real_path;
  std::string display;
  ScanResult scan;           ///< full scan (suppressions, code lines)
  std::vector<Token> toks;   ///< directive-stripped token stream
};

struct Index {
  std::vector<FileScan> files;
  std::vector<FunctionDef> functions;
  std::vector<MutexMember> mutexes;
  /// Member names whose declared type iterates in nondeterministic order
  /// (unordered containers, pointer-keyed map/set).
  std::set<std::string> nondet_members;
  /// Classes holding a Mutex member (coverage audit targets).
  std::set<std::string> mutex_bearing;
  /// Classes with any internal synchronization (mutex OR atomic members):
  /// sanctioned types for mutable statics (the magic-static registry/pool
  /// pattern).
  std::set<std::string> synchronized_classes;
  std::vector<Violation> coverage;  ///< emitted during parsing
};

[[nodiscard]] bool tokens_contain(const std::vector<Token>& d,
                                  std::string_view text) {
  return std::any_of(d.begin(), d.end(),
                     [&](const Token& t) { return t.text == text; });
}

[[nodiscard]] bool is_unordered(const std::string& t) {
  return t == "unordered_map" || t == "unordered_set" ||
         t == "unordered_multimap" || t == "unordered_multiset";
}

/// True when decl tokens name a map/set keyed by a pointer: the first
/// template argument contains a '*' (pointer values order by address, which
/// ASLR makes nondeterministic).
[[nodiscard]] bool pointer_keyed(const std::vector<Token>& d) {
  for (std::size_t i = 0; i + 1 < d.size(); ++i) {
    const std::string& t = d[i].text;
    if (t != "map" && t != "set" && t != "multimap" && t != "multiset" &&
        !is_unordered(t)) {
      continue;
    }
    if (d[i + 1].text != "<") continue;
    int depth = 0;
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      const std::string& u = d[j].text;
      if (u == "<") ++depth;
      if (u == ">" || u == ">>") depth -= u == ">>" ? 2 : 1;
      if (depth <= 0) break;
      if (depth == 1 && u == ",") break;  // end of the key argument
      if (u == "*") return true;
    }
  }
  return false;
}

/// Last identifier of a declaration before an initializer/terminator —
/// the declared name for `std::unordered_map<K, V> cells_;` shapes.
[[nodiscard]] std::string declared_name(const std::vector<Token>& d) {
  std::string name;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const std::string& t = d[i].text;
    if (t == "=" || t == "[") break;
    if (t == "<") {
      skip_angles(d, i);
      --i;
      continue;
    }
    if (t == "(") {  // annotation macro arguments; the name came before
      skip_balanced(d, i, "(", ")");
      --i;
      continue;
    }
    if (is_ident(t)) name = t;
  }
  return name;
}

/// Split the arguments of an annotation macro occurrence (`MACRO(a, B::b)`)
/// into raw per-argument strings like "b" / "B::b".
std::vector<std::string> macro_args(const std::vector<Token>& d,
                                    std::string_view macro) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 1 < d.size(); ++i) {
    if (d[i].text != macro || d[i + 1].text != "(") continue;
    int depth = 0;
    std::string current;
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      const std::string& t = d[j].text;
      if (t == "(") {
        ++depth;
        continue;
      }
      if (t == ")") {
        --depth;
        if (depth == 0) break;
        continue;
      }
      if (depth == 1 && t == ",") {
        if (!current.empty()) out.push_back(current);
        current.clear();
        continue;
      }
      current += t;
    }
    if (!current.empty()) out.push_back(current);
  }
  return out;
}

constexpr std::string_view kPlainDataTypes[] = {
    "bool",    "char",     "short",    "int",      "long",    "unsigned",
    "signed",  "float",    "double",   "size_t",   "ssize_t", "ptrdiff_t",
    "int8_t",  "int16_t",  "int32_t",  "int64_t",  "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "uintptr_t", "intptr_t", "string", "NodeId",
    "EdgeId"};

[[nodiscard]] bool mentions_plain_data_type(const std::vector<Token>& d) {
  for (const Token& t : d) {
    if (t.text == "=") break;  // only the declarator part types the member
    for (const std::string_view p : kPlainDataTypes) {
      if (t.text == p) return true;
    }
    if (t.text == "*") return true;
  }
  return false;
}

/// True when the declaration is function-shaped: an identifier directly
/// followed by '(' before any '='. Filters method declarations out of the
/// member audit and function declarations out of the statics audit.
[[nodiscard]] bool function_shaped(const std::vector<Token>& d) {
  for (std::size_t i = 0; i + 1 < d.size(); ++i) {
    if (d[i].text == "=") return false;
    if (is_ident(d[i].text) && d[i + 1].text == "(" &&
        call_keyword_blocklist().count(d[i].text) == 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Structure parser: scopes, classes, members, function spans
// ---------------------------------------------------------------------------

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = kBlock;
  std::string name;
  std::size_t fn = SIZE_MAX;  ///< index into Index::functions for kFunction
};

/// Innermost enclosing class name, if any.
[[nodiscard]] std::string enclosing_class(const std::vector<Scope>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->kind == Scope::kClass) return it->name;
    if (it->kind == Scope::kFunction) break;
  }
  return "";
}

void audit_static(const std::vector<Token>& d, const FileScan& file,
                  Index& index) {
  if (!function_shaped(d) && tokens_contain(d, "static") &&
      !tokens_contain(d, "const") && !tokens_contain(d, "constexpr") &&
      !tokens_contain(d, "atomic") && !tokens_contain(d, "thread_local") &&
      !tokens_contain(d, "using") && !tokens_contain(d, "typedef") &&
      file.display.find("src/rim/") != std::string::npos) {
    // Type = the identifier before the declared name; a static of an
    // internally synchronized class (the magic-static Registry / ThreadPool
    // pattern) is the sanctioned way to share it.
    const std::string name = declared_name(d);
    std::string type;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const std::string& t = d[i].text;
      if (t == "=") break;
      if (t == "<") {
        skip_angles(d, i);
        --i;
        continue;
      }
      if (is_ident(t) && t != name && t != "static" && t != "inline" &&
          t != "std") {
        type = t;
      }
    }
    if (index.synchronized_classes.count(type) != 0) return;
    index.coverage.push_back(
        {file.display, d.empty() ? 0 : d.front().line, std::string(kCoverage),
         "mutable static '" + name + "' (type '" + type +
             "') is shared state with no RIM_GUARDED_BY, std::atomic, or "
             "internally synchronized type"});
  }
}

void record_class_member(const std::vector<Token>& d, const std::string& klass,
                         const FileScan& file, Index& index) {
  if (d.empty() || klass.empty()) return;
  if (tokens_contain(d, "friend") || tokens_contain(d, "using") ||
      tokens_contain(d, "typedef")) {
    return;
  }
  // Mutex members (common::Mutex wrapper; also raw std::mutex so classes
  // predating the wrapper still index).
  const bool has_mutex =
      (tokens_contain(d, "Mutex") && !tokens_contain(d, "MutexLock")) ||
      tokens_contain(d, "mutex") || tokens_contain(d, "shared_mutex");
  if (has_mutex) {
    MutexMember m;
    m.klass = klass;
    m.file = file.display;
    m.line = d.front().line;
    // Name: the identifier right after the mutex type token.
    for (std::size_t i = 0; i + 1 < d.size(); ++i) {
      if ((d[i].text == "Mutex" || d[i].text == "mutex" ||
           d[i].text == "shared_mutex") &&
          is_ident(d[i + 1].text)) {
        m.name = d[i + 1].text;
        break;
      }
    }
    if (m.name.empty()) m.name = declared_name(d);
    m.after = macro_args(d, "RIM_ACQUIRED_AFTER");
    m.before = macro_args(d, "RIM_ACQUIRED_BEFORE");
    index.mutexes.push_back(std::move(m));
    index.mutex_bearing.insert(klass);
    index.synchronized_classes.insert(klass);
    return;
  }
  if (tokens_contain(d, "atomic") || tokens_contain(d, "condition_variable")) {
    index.synchronized_classes.insert(klass);
    return;
  }
  if (is_unordered(declared_name(d)) ? false : false) {}  // keep -Wunused quiet
  if (std::any_of(d.begin(), d.end(),
                  [](const Token& t) { return is_unordered(t.text); }) ||
      pointer_keyed(d)) {
    const std::string name = declared_name(d);
    if (!name.empty()) index.nondet_members.insert(name);
  }
  if (function_shaped(d)) return;
  // Plain-data member audit (deferred to after parsing: mutex_bearing is
  // only complete once the whole class body has been seen, so stash the
  // candidate and filter later).
  if (tokens_contain(d, "const") || tokens_contain(d, "constexpr") ||
      tokens_contain(d, "static") || tokens_contain(d, "RIM_GUARDED_BY") ||
      tokens_contain(d, "&") || tokens_contain(d, "&&")) {
    return;
  }
  if (!mentions_plain_data_type(d)) return;
  if (file.display.find("src/rim/") == std::string::npos) return;
  const std::string name = declared_name(d);
  if (name.empty()) return;
  index.coverage.push_back(
      {file.display, d.front().line, "member-candidate:" + klass,
       "plain-data member '" + klass + "::" + name +
           "' has neither RIM_GUARDED_BY nor std::atomic nor const"});
}

void parse_file(FileScan& file, std::size_t file_index, Index& index) {
  const std::vector<Token>& toks = file.toks;
  std::vector<Scope> stack;
  std::vector<Token> decl;
  bool in_init_list = false;  // between a ctor's ')' ':' and its body '{'

  const auto in_function = [&] {
    return std::any_of(stack.begin(), stack.end(), [](const Scope& s) {
      return s.kind == Scope::kFunction;
    });
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (in_function()) {
      // Inside a function body only brace tracking matters; the body span
      // is analyzed wholesale afterwards.
      if (t.text == "{") {
        stack.push_back({Scope::kBlock, "", SIZE_MAX});
      } else if (t.text == "}") {
        const Scope done = stack.back();
        stack.pop_back();
        if (done.kind == Scope::kFunction && done.fn != SIZE_MAX) {
          index.functions[done.fn].body_end = i;
        }
      }
      continue;
    }

    if (t.text == ";") {
      if (!decl.empty() && !stack.empty() &&
          stack.back().kind == Scope::kClass) {
        record_class_member(decl, stack.back().name, file, index);
      } else if (tokens_contain(decl, "static")) {
        audit_static(decl, file, index);
      }
      decl.clear();
      in_init_list = false;
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty()) stack.pop_back();
      decl.clear();
      in_init_list = false;
      continue;
    }
    if (t.text != "{") {
      decl.push_back(t);
      // Track entry into a ctor-init-list: a top-level ':' after a ')'.
      if (t.text == ":" && !decl.empty() && decl.size() >= 2 &&
          decl[decl.size() - 2].text == ")") {
        in_init_list = true;
      }
      continue;
    }

    // --- '{' : classify the pending declaration ---------------------------
    const std::string prev = decl.empty() ? "" : decl.back().text;
    if (in_init_list && (is_ident(prev) || prev == ">")) {
      // Member brace-init inside a ctor init list (`: a_{1}`): swallow the
      // group and keep collecting the same declaration.
      std::size_t j = i;
      skip_balanced(toks, j, "{", "}");
      i = j - 1;
      continue;
    }
    if (tokens_contain(decl, "namespace")) {
      std::string name;
      for (const Token& d : decl) {
        if (is_ident(d.text) && d.text != "namespace" && d.text != "inline") {
          name = d.text;
        }
      }
      stack.push_back({Scope::kNamespace, name, SIZE_MAX});
      decl.clear();
      continue;
    }
    if (tokens_contain(decl, "enum")) {
      // enum bodies carry nothing the passes care about; skip them whole so
      // `enum class` is not mistaken for a class scope.
      std::size_t j = i;
      skip_balanced(toks, j, "{", "}");
      i = j - 1;
      decl.clear();
      continue;
    }
    const bool classy = tokens_contain(decl, "class") ||
                        tokens_contain(decl, "struct") ||
                        tokens_contain(decl, "union");
    if (classy) {
      // Name: last identifier between the keyword and a base-clause ':',
      // skipping attribute-macro argument lists.
      std::string name;
      bool seen_kw = false;
      for (std::size_t k = 0; k < decl.size(); ++k) {
        const std::string& d = decl[k].text;
        if (d == "class" || d == "struct" || d == "union") {
          seen_kw = true;
          continue;
        }
        if (!seen_kw) continue;
        if (d == ":") break;
        if (d == "(") {
          skip_balanced(decl, k, "(", ")");
          --k;
          continue;
        }
        if (d == "<") {
          skip_angles(decl, k);
          --k;
          continue;
        }
        if (is_ident(d) && d != "final" && d != "alignas") name = d;
      }
      stack.push_back({Scope::kClass, name, SIZE_MAX});
      decl.clear();
      continue;
    }
    // Function definition? First identifier directly followed by '(' that
    // is not a keyword.
    std::size_t name_pos = SIZE_MAX;
    for (std::size_t k = 0; k + 1 < decl.size(); ++k) {
      if (decl[k].text == "<") {  // template args of a return type
        skip_angles(decl, k);
        --k;
        continue;
      }
      if (is_ident(decl[k].text) && decl[k + 1].text == "(" &&
          call_keyword_blocklist().count(decl[k].text) == 0 &&
          decl[k].text != "RIM_GUARDED_BY") {
        name_pos = k;
        break;
      }
    }
    if (name_pos != SIZE_MAX && (prev == ")" || prev == "}" ||
                                 is_ident(prev) || in_init_list)) {
      FunctionDef fn;
      fn.name = decl[name_pos].text;
      if (name_pos >= 2 && decl[name_pos - 1].text == "::") {
        std::size_t q = name_pos - 2;
        if (decl[q].text == ">") {  // Foo<T>::bar
          int depth = 0;
          while (q > 0) {
            if (decl[q].text == ">" || decl[q].text == ">>") {
              depth += decl[q].text == ">>" ? 2 : 1;
            }
            if (decl[q].text == "<") --depth;
            if (depth == 0) break;
            --q;
          }
          if (q > 0) --q;
        }
        if (is_ident(decl[q].text)) fn.klass = decl[q].text;
      } else {
        fn.klass = enclosing_class(stack);
      }
      fn.file = file.display;
      fn.line = decl[name_pos].line;
      fn.body_begin = i + 1;
      fn.body_end = toks.size();
      fn.requires_mutexes = macro_args(decl, "RIM_REQUIRES");
      fn.file_index = file_index;
      stack.push_back({Scope::kFunction, fn.name, index.functions.size()});
      index.functions.push_back(std::move(fn));
      decl.clear();
      in_init_list = false;
      continue;
    }
    if (tokens_contain(decl, "=") || is_ident(prev) || prev == ">") {
      // Variable/member with a brace initializer (`= {...}`, `done{false}`,
      // `atomic<bool> stopping_{false}`): swallow the group and keep the
      // declaration open so the ';' path records/audits it. Function
      // definitions never reach here — the function branch above claimed
      // ident-before-'{' shapes like `) noexcept {` already.
      std::size_t j = i;
      skip_balanced(toks, j, "{", "}");
      i = j - 1;
      continue;
    }
    stack.push_back({Scope::kBlock, "", SIZE_MAX});
    decl.clear();
  }
}

// ---------------------------------------------------------------------------
// Function-body analysis: calls, sources, acquisitions, local statics
// ---------------------------------------------------------------------------

struct BodyFacts {
  std::set<std::string> callees;
  std::vector<SourceHit> sources;
  std::vector<Acquisition> acquisitions;
};

[[nodiscard]] bool entropy_home(const std::string& display) {
  return display.find("sim/rng") != std::string::npos ||
         display.find("sim/random_deployment") != std::string::npos;
}

[[nodiscard]] bool clock_home(const std::string& display) {
  return display.find("rim/obs/") != std::string::npos;
}

/// Resolve a raw mutex reference ("mutex_" or "Class::mutex_") against the
/// index. Empty string when ambiguous or unknown — the pass skips those
/// rather than guessing.
[[nodiscard]] std::string resolve_mutex(const Index& index,
                                        const std::string& raw,
                                        const std::string& enclosing) {
  const auto sep = raw.find("::");
  const std::string klass = sep == std::string::npos ? "" : raw.substr(0, sep);
  const std::string name =
      sep == std::string::npos ? raw : raw.substr(sep + 2);
  std::string found;
  for (const MutexMember& m : index.mutexes) {
    if (m.name != name) continue;
    if (!klass.empty()) {
      if (m.klass == klass) return m.klass + "::" + m.name;
      continue;
    }
    if (m.klass == enclosing) return m.klass + "::" + m.name;
    if (found.empty()) {
      found = m.klass + "::" + m.name;
    } else if (found != m.klass + "::" + m.name) {
      return "";  // ambiguous bare name across classes
    }
  }
  return found;
}

BodyFacts analyze_body(const Index& index, const FunctionDef& fn) {
  BodyFacts facts;
  const FileScan& file = index.files[fn.file_index];
  const std::vector<Token>& toks = file.toks;
  const std::size_t begin = fn.body_begin;
  const std::size_t end = std::min(fn.body_end, toks.size());

  // Locals with nondeterministic iteration order, discovered as we go.
  std::set<std::string> nondet_locals;
  // Spans (token ranges) of lambdas passed to ThreadPool submit().
  std::vector<std::pair<std::size_t, std::size_t>> task_lambdas;

  for (std::size_t i = begin; i < end; ++i) {
    const std::string& t = toks[i].text;
    const std::size_t line = toks[i].line;
    const auto next = [&](std::size_t k) -> const std::string& {
      static const std::string kEmpty;
      return i + k < end ? toks[i + k].text : kEmpty;
    };

    // Calls (for the graph) — identifier directly followed by '('.
    if (is_ident(t) && next(1) == "(" &&
        call_keyword_blocklist().count(t) == 0) {
      facts.callees.insert(t);
    }

    // Randomness sources.
    if (!entropy_home(file.display)) {
      if ((t == "rand" || t == "srand") && next(1) == "(") {
        facts.sources.push_back(
            {file.display, line, t + "() (non-deterministic randomness)"});
      } else if (t == "random_device") {
        facts.sources.push_back(
            {file.display, line,
             "std::random_device outside the entropy_seed() door"});
      }
    }
    // Wall-clock reads.
    if (!clock_home(file.display)) {
      if ((t == "steady_clock" || t == "system_clock" ||
           t == "high_resolution_clock") &&
          next(1) == "::" && next(2) == "now") {
        facts.sources.push_back(
            {file.display, line, "std::chrono::" + t + "::now() wall-clock read"});
      } else if (t == "time" && next(1) == "(" &&
                 (next(2) == "nullptr" || next(2) == "NULL")) {
        facts.sources.push_back({file.display, line, "time(nullptr) read"});
      }
    }

    // Local container declarations with nondeterministic iteration order.
    if (is_unordered(t) || (t == "map" || t == "set") ) {
      std::vector<Token> decl_tail;
      for (std::size_t j = i; j < end && toks[j].text != ";" &&
                              toks[j].text != ")" && j < i + 48;
           ++j) {
        decl_tail.push_back(toks[j]);
      }
      if (is_unordered(t) || pointer_keyed(decl_tail)) {
        // The declared local name: identifier after the template args.
        std::size_t j = i + 1;
        if (j < end && toks[j].text == "<") skip_angles(toks, j);
        if (j < end && is_ident(toks[j].text) &&
            call_keyword_blocklist().count(toks[j].text) == 0) {
          nondet_locals.insert(toks[j].text);
        }
      }
    }

    const auto is_nondet_name = [&](const std::string& name) {
      return index.nondet_members.count(name) != 0 ||
             nondet_locals.count(name) != 0;
    };

    // Iteration sources: range-for over a nondeterministic container...
    if (t == "for" && next(1) == "(") {
      int depth = 0;
      std::string last_ident;
      bool after_colon = false;
      for (std::size_t j = i + 1; j < end; ++j) {
        const std::string& u = toks[j].text;
        if (u == "(") ++depth;
        if (u == ")") {
          --depth;
          if (depth == 0) break;
        }
        if (depth == 1 && u == ":") after_colon = true;
        if (after_colon && is_ident(u)) last_ident = u;
      }
      if (after_colon && is_nondet_name(last_ident)) {
        facts.sources.push_back(
            {file.display, line,
             "range-for over unordered/pointer-keyed '" + last_ident + "'"});
      }
    }
    // ... or explicit begin()/cbegin() iteration on one.
    if ((t == "begin" || t == "cbegin") && next(1) == "(" && i >= 2 &&
        toks[i - 1].text == "." && is_ident(toks[i - 2].text) &&
        is_nondet_name(toks[i - 2].text)) {
      facts.sources.push_back(
          {file.display, line,
           "iteration over unordered/pointer-keyed '" + toks[i - 2].text +
               "' via ." + t + "()"});
    }

    // Mutex acquisitions: MutexLock / lock_guard / unique_lock /
    // scoped_lock. The guarded mutex is the last identifier of the first
    // constructor argument.
    if (t == "MutexLock" || t == "lock_guard" || t == "unique_lock" ||
        t == "scoped_lock") {
      std::size_t j = i + 1;
      if (j < end && toks[j].text == "<") skip_angles(toks, j);
      if (j < end && is_ident(toks[j].text)) ++j;  // the lock variable name
      if (j < end && toks[j].text == "(") {
        int depth = 0;
        std::string last_ident;
        for (; j < end; ++j) {
          const std::string& u = toks[j].text;
          if (u == "(") ++depth;
          if (u == ")") {
            --depth;
            if (depth == 0) break;
          }
          if (depth == 1 && u == ",") break;  // first argument only
          if (is_ident(u)) last_ident = u;
        }
        const std::string id = resolve_mutex(index, last_ident, fn.klass);
        if (!id.empty()) {
          facts.acquisitions.push_back({id, file.display, line, false});
        }
      }
    }

    // ThreadPool task lambdas: submit([...](...) { ... }).
    if (t == "submit" && next(1) == "(" && next(2) == "[") {
      std::size_t j = i + 2;
      skip_balanced(toks, j, "[", "]");
      if (j < end && toks[j].text == "(") skip_balanced(toks, j, "(", ")");
      while (j < end && toks[j].text != "{") ++j;
      if (j < end) {
        const std::size_t body_start = j;
        skip_balanced(toks, j, "{", "}");
        task_lambdas.emplace_back(body_start, j);
      }
    }

    // Function-local mutable statics (the statics audit continues inside
    // bodies: a local `static int hits;` is shared state too).
    if (t == "static" && file.display.find("src/rim/") != std::string::npos) {
      std::vector<Token> d;
      for (std::size_t j = i; j < end && toks[j].text != ";" && j < i + 32;
           ++j) {
        if (toks[j].text == "(") break;  // function-shaped or call
        d.push_back(toks[j]);
      }
      if (d.size() >= 3 && (i + d.size() < end) &&
          toks[i + d.size()].text == ";") {
        // Reuse the namespace-scope audit (it re-checks const/atomic/...).
        Index scratch;
        scratch.synchronized_classes = index.synchronized_classes;
        audit_static(d, file, scratch);
        for (Violation& v : scratch.coverage) {
          const_cast<Index&>(index).coverage.push_back(std::move(v));
        }
      }
    }
  }

  // Mark acquisitions that sit lexically inside a submitted task lambda.
  for (Acquisition& a : facts.acquisitions) {
    for (const auto& [from, to] : task_lambdas) {
      const std::size_t from_line = index.files[fn.file_index].toks[from].line;
      const std::size_t to_line =
          to > 0 && to <= index.files[fn.file_index].toks.size()
              ? index.files[fn.file_index].toks[to - 1].line
              : from_line;
      if (a.line >= from_line && a.line <= to_line) a.in_task_lambda = true;
    }
  }
  return facts;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

[[nodiscard]] std::string fn_key(const FunctionDef& f) {
  return f.klass.empty() ? f.name : f.klass + "::" + f.name;
}

[[nodiscard]] bool is_seed(const FunctionDef& f) {
  if (f.name == "apply_batch") return true;
  if (f.klass == "SinrAssessor") return true;
  if (f.file.find("core/snapshot") != std::string::npos) return true;
  if (f.name.size() > 7 &&
      f.name.compare(f.name.size() - 7, 7, "_scalar") == 0) {
    return true;
  }
  return false;
}

void taint_pass(const Index& index,
                const std::map<std::string, BodyFacts>& facts_by_key,
                std::vector<Violation>& out) {
  // Bare name -> keys (the approximate linking step).
  std::map<std::string, std::vector<std::string>> by_name;
  std::map<std::string, const FunctionDef*> def_by_key;
  for (const FunctionDef& f : index.functions) {
    const std::string key = fn_key(f);
    by_name[f.name].push_back(key);
    if (def_by_key.find(key) == def_by_key.end()) def_by_key[key] = &f;
  }
  for (auto& [name, keys] : by_name) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }

  // Deterministic BFS from the sorted seed set, recording parents for the
  // witness chain in each violation message.
  std::map<std::string, std::string> parent;
  std::vector<std::string> frontier;
  for (const FunctionDef& f : index.functions) {
    if (is_seed(f)) {
      const std::string key = fn_key(f);
      if (parent.find(key) == parent.end()) {
        parent[key] = "";
        frontier.push_back(key);
      }
    }
  }
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  std::size_t head = 0;
  while (head < frontier.size()) {
    const std::string key = frontier[head++];
    const auto facts = facts_by_key.find(key);
    if (facts == facts_by_key.end()) continue;
    for (const std::string& callee : facts->second.callees) {
      const auto targets = by_name.find(callee);
      if (targets == by_name.end()) continue;
      for (const std::string& next_key : targets->second) {
        if (parent.find(next_key) != parent.end()) continue;
        parent[next_key] = key;
        frontier.push_back(next_key);
      }
    }
  }

  for (const std::string& key : frontier) {
    const auto facts = facts_by_key.find(key);
    if (facts == facts_by_key.end()) continue;
    // Witness chain seed -> ... -> key.
    std::vector<std::string> chain;
    for (std::string k = key; !k.empty();) {
      chain.push_back(k);
      const auto p = parent.find(k);
      k = p == parent.end() ? "" : p->second;
    }
    std::reverse(chain.begin(), chain.end());
    std::string path = chain.front();
    for (std::size_t i = 1; i < chain.size(); ++i) path += " -> " + chain[i];
    for (const SourceHit& hit : facts->second.sources) {
      out.push_back({hit.file, hit.line, std::string(kTaint),
                     "'" + key + "' is reachable from checksum-pinned code (" +
                         path + ") and touches " + hit.what});
    }
  }
}

void lock_order_pass(const Index& index,
                     const std::map<std::string, BodyFacts>& facts_by_key,
                     std::vector<Violation>& out) {
  // Declared partial order: edge a -> b means a is acquired before b.
  // RIM_ACQUIRED_AFTER(x) on m declares x -> m; RIM_ACQUIRED_BEFORE(x)
  // declares m -> x.
  std::set<std::pair<std::string, std::string>> edges;
  std::set<std::string> nodes;
  for (const MutexMember& m : index.mutexes) {
    const std::string id = m.klass + "::" + m.name;
    nodes.insert(id);
    for (const std::string& raw : m.after) {
      const std::string other = resolve_mutex(index, raw, m.klass);
      if (!other.empty()) {
        edges.insert({other, id});
        nodes.insert(other);
      }
    }
    for (const std::string& raw : m.before) {
      const std::string other = resolve_mutex(index, raw, m.klass);
      if (!other.empty()) {
        edges.insert({id, other});
        nodes.insert(other);
      }
    }
  }
  // Transitive closure (the order sets are tiny).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [a, b] : std::set<std::pair<std::string, std::string>>(
             edges)) {
      for (const std::string& c : nodes) {
        if (edges.count({b, c}) != 0 && edges.count({a, c}) == 0) {
          edges.insert({a, c});
          changed = true;
        }
      }
    }
  }
  const auto must_precede = [&](const std::string& a, const std::string& b) {
    return edges.count({a, b}) != 0;
  };

  for (const FunctionDef& f : index.functions) {
    const auto facts = facts_by_key.find(fn_key(f));
    if (facts == facts_by_key.end()) continue;
    // Held at entry (RIM_REQUIRES), then lexical acquisitions in order.
    std::vector<Acquisition> seq;
    for (const std::string& raw : f.requires_mutexes) {
      const std::string id = resolve_mutex(index, raw, f.klass);
      if (!id.empty()) seq.push_back({id, f.file, f.line, false});
    }
    for (const Acquisition& a : facts->second.acquisitions) {
      seq.push_back(a);
      if (a.in_task_lambda) {
        out.push_back(
            {a.file, a.line, std::string(kLockOrder),
             "mutex '" + a.mutex_id +
                 "' acquired inside a ThreadPool submit() task lambda; pool "
                 "tasks must stay lock-free (capture a snapshot or use "
                 "atomics — DESIGN.md §9)"});
      }
    }
    for (std::size_t i = 0; i < seq.size(); ++i) {
      for (std::size_t j = i + 1; j < seq.size(); ++j) {
        if (seq[i].mutex_id != seq[j].mutex_id &&
            must_precede(seq[j].mutex_id, seq[i].mutex_id)) {
          out.push_back(
              {seq[j].file, seq[j].line, std::string(kLockOrder),
               "'" + fn_key(f) + "' acquires '" + seq[j].mutex_id +
                   "' while holding '" + seq[i].mutex_id +
                   "', inverting the declared order (" + seq[j].mutex_id +
                   " before " + seq[i].mutex_id + ")"});
        }
      }
    }
  }
}

void coverage_pass(Index& index, std::vector<Violation>& out) {
  for (Violation& v : index.coverage) {
    if (v.rule.rfind("member-candidate:", 0) == 0) {
      // Deferred member candidates: only flag members of classes that do
      // hold a Mutex (the lock discipline applies there; plain structs are
      // out of scope for this pass).
      const std::string klass = v.rule.substr(sizeof("member-candidate:") - 1);
      if (index.mutex_bearing.count(klass) == 0) continue;
      v.rule = std::string(kCoverage);
    }
    out.push_back(std::move(v));
  }
  index.coverage.clear();
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::vector<std::string> project_files(
    const std::string& compile_commands_path) {
  const std::string text = read_file(compile_commands_path);
  if (text.empty()) {
    throw std::runtime_error("cannot read compile_commands at " +
                             compile_commands_path);
  }
  const auto entries = parse_compile_commands(text);
  if (entries.empty()) {
    throw std::runtime_error("no entries parsed from " + compile_commands_path);
  }

  std::set<std::string> files;
  std::set<std::string> roots;  // include roots: every ".../src/" prefix
  for (const auto& [dir, file] : entries) {
    fs::path p(file);
    if (p.is_relative()) p = fs::path(dir) / p;
    const std::string norm = normalize_path(p);
    if (norm.find("/src/") == std::string::npos) continue;  // tests/bench/deps
    if (norm.find("/_deps/") != std::string::npos) continue;
    files.insert(norm);
    roots.insert(norm.substr(0, norm.rfind("/src/") + 5));
  }

  // Transitive closure over quoted includes, resolved against the including
  // file's directory and the src/ roots (the project's -I convention).
  std::vector<std::string> queue(files.begin(), files.end());
  while (!queue.empty()) {
    const std::string current = queue.back();
    queue.pop_back();
    const std::string src = read_file(current);
    if (src.empty()) continue;
    const ScanResult scanned = detail::scan(current, src);
    for (const auto& [line, include] : scanned.quoted_includes) {
      std::vector<std::string> candidates;
      candidates.push_back(
          normalize_path(fs::path(current).parent_path() / include));
      for (const std::string& root : roots) {
        candidates.push_back(normalize_path(fs::path(root) / include));
      }
      for (const std::string& cand : candidates) {
        if (cand.find("/src/") == std::string::npos) continue;
        if (files.count(cand) != 0 || !fs::is_regular_file(cand)) continue;
        files.insert(cand);
        queue.push_back(cand);
        break;
      }
    }
  }
  return {files.begin(), files.end()};
}

LintReport analyze_project_files(const std::vector<std::string>& files) {
  Index index;
  for (const std::string& path : files) {
    FileScan f;
    f.real_path = path;
    f.display = display_path(normalize_path(fs::path(path)));
    const std::string src = read_file(path);
    f.scan = detail::scan(f.display, src);
    f.toks = strip_directives(f.scan.tokens);
    index.files.push_back(std::move(f));
  }
  std::sort(index.files.begin(), index.files.end(),
            [](const FileScan& a, const FileScan& b) {
              return a.display < b.display;
            });

  for (std::size_t i = 0; i < index.files.size(); ++i) {
    parse_file(index.files[i], i, index);
  }

  // Merge body facts per function key (declaration + out-of-line definition
  // and overloads union their callees/sources).
  std::map<std::string, BodyFacts> facts_by_key;
  for (const FunctionDef& f : index.functions) {
    BodyFacts facts = analyze_body(index, f);
    BodyFacts& merged = facts_by_key[fn_key(f)];
    merged.callees.insert(facts.callees.begin(), facts.callees.end());
    merged.sources.insert(merged.sources.end(), facts.sources.begin(),
                          facts.sources.end());
    merged.acquisitions.insert(merged.acquisitions.end(),
                               facts.acquisitions.begin(),
                               facts.acquisitions.end());
  }

  std::vector<Violation> violations;
  taint_pass(index, facts_by_key, violations);
  lock_order_pass(index, facts_by_key, violations);
  coverage_pass(index, violations);

  // Apply suppressions file by file (mode kProject: project suppressions
  // that match nothing are dangling HERE, not in the per-file mode).
  std::map<std::string, std::vector<Violation>> by_file;
  for (Violation& v : violations) by_file[v.file].push_back(std::move(v));

  LintReport report;
  for (const FileScan& f : index.files) {
    auto it = by_file.find(f.display);
    std::vector<Violation> mine =
        it == by_file.end() ? std::vector<Violation>{} : std::move(it->second);
    if (it != by_file.end()) by_file.erase(it);
    detail::SuppressionOutcome outcome = detail::apply_suppressions(
        f.scan, std::move(mine), f.display, detail::SuppressionMode::kProject);
    report.active.insert(report.active.end(), outcome.active.begin(),
                         outcome.active.end());
    report.active.insert(report.active.end(), outcome.dangling.begin(),
                         outcome.dangling.end());
    report.suppressed.insert(report.suppressed.end(),
                             outcome.suppressed.begin(),
                             outcome.suppressed.end());
  }
  // Violations in files we never scanned (shouldn't happen) pass through.
  for (auto& [file, rest] : by_file) {
    report.active.insert(report.active.end(), rest.begin(), rest.end());
  }
  detail::sort_violations(report.active);
  detail::sort_violations(report.suppressed);
  return report;
}

LintReport analyze_project(const std::string& compile_commands_path) {
  std::string path = compile_commands_path;
  if (fs::is_directory(path)) {
    path = normalize_path(fs::path(path) / "compile_commands.json");
  }
  return analyze_project_files(project_files(path));
}

}  // namespace rim::lint
