#include "lint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scan.hpp"

namespace rim::lint {
namespace {

using detail::ScanResult;
using detail::Token;

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

constexpr std::string_view kRawRandom = "raw-random";
constexpr std::string_view kUnordered = "unordered-container";
constexpr std::string_view kFloatEquality = "float-equality";
constexpr std::string_view kDetailInclude = "detail-include";
constexpr std::string_view kBinaryFile = "binary-file";
constexpr std::string_view kWaveScratch = "wave-vector-scratch";
constexpr std::string_view kEvalOptionsInit = "eval-options-designated-init";
constexpr std::string_view kAllowFormat = "allow-format";
// Project-wide passes (project.cpp); listed here so suppressions validate
// and `--list-rules` shows the whole contract.
constexpr std::string_view kProjectTaint = "project-taint";
constexpr std::string_view kProjectLockOrder = "project-lock-order";
constexpr std::string_view kProjectCoverage = "project-annotation-coverage";

const std::vector<RuleInfo> kRules = {
    {kRawRandom,
     "non-deterministic randomness (std::rand/srand/std::random_device/"
     "time(nullptr)) outside the entropy homes (sim/rng, "
     "sim/random_deployment — the audited entropy_seed() door); seeded "
     "runs must be replayable"},
    {kUnordered,
     "std::unordered_{map,set} in a serialization/checksum path (rim/io/, "
     "rim/obs/, rim/core/snapshot*); iteration order is not deterministic"},
    {kFloatEquality,
     "naked ==/!= against a floating-point literal outside rim/geom/; use a "
     "tolerance helper or suppress with the exactness rationale"},
    {kDetailInclude,
     "#include of another module's detail/ header; detail headers are "
     "module-private"},
    {kBinaryFile, "tracked file looks binary (NUL byte in leading window)"},
    {kWaveScratch,
     "std::vector scratch inside a task lambda handed to submit() in a "
     "batch file; wave tasks must capture arena pointers, not allocate "
     "(see common::Arena and DESIGN.md §10)"},
    {kEvalOptionsInit,
     "designated-initializer construction of core::EvalOptions; use the "
     "chainable with_* builder setters (EvalOptions{}.with_strategy(...)) so "
     "new knobs keep one construction surface"},
    {kProjectTaint,
     "[--project] a function reachable from a checksum-pinned entry point "
     "(apply_batch, SinrAssessor, snapshot "
     "serialization, the _scalar SIMD twins) touches a nondeterminism "
     "source: unordered/pointer-keyed iteration, raw randomness outside "
     "the entropy homes, or wall-clock reads outside rim/obs/"},
    {kProjectLockOrder,
     "[--project] mutex acquisitions that invert the declared "
     "RIM_ACQUIRED_AFTER/RIM_ACQUIRED_BEFORE partial order (DESIGN.md §9 "
     "manager->session), or an annotated mutex acquired lexically inside a "
     "ThreadPool submit() task lambda"},
    {kProjectCoverage,
     "[--project] shared-state audit over src/rim: a mutable static whose "
     "type is not an internally-synchronized (mutex-bearing) class, or a "
     "plain-data member of a mutex-bearing class carrying neither "
     "RIM_GUARDED_BY nor std::atomic nor const"},
    {kAllowFormat,
     "malformed or dangling RIM_LINT_ALLOW suppression; the form is "
     "// RIM_LINT_ALLOW(rule-name): reason"},
};

// ---------------------------------------------------------------------------
// Rule matchers
// ---------------------------------------------------------------------------

[[nodiscard]] bool path_contains(std::string_view path, std::string_view part) {
  return path.find(part) != std::string_view::npos;
}

[[nodiscard]] bool is_float_literal(const std::string& tok) {
  if (tok.empty()) return false;
  if (!detail::digit(tok[0]) && tok[0] != '.') return false;
  if (tok.size() > 1 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X')) {
    return tok.find_first_of("pP") != std::string::npos;
  }
  return tok.find('.') != std::string::npos ||
         tok.find_first_of("eE") != std::string::npos;
}

/// Module of a source path: "src/rim/<module>/..." -> "<module>", "" outside.
[[nodiscard]] std::string module_of(std::string_view path) {
  const auto pos = path.find("rim/");
  if (pos == std::string_view::npos) return "";
  const std::size_t from = pos + 4;
  const auto slash = path.find('/', from);
  if (slash == std::string_view::npos) return "";
  return std::string(path.substr(from, slash - from));
}

void check_tokens(std::string_view path, const ScanResult& scan_result,
                  std::vector<Violation>& out) {
  const std::vector<Token>& toks = scan_result.tokens;
  // The rule-aware sanction for seeded-entropy entry points: sim/rng (the
  // PRNG itself) and sim/random_deployment (whose entropy_seed() is the
  // library's one documented std::random_device door). Extending this list
  // is the supported way to bless a new entry point — ad-hoc RIM_LINT_ALLOW
  // suppressions for raw-random would scatter unaudited entropy sites.
  const bool rng_home = path_contains(path, "sim/rng") ||
                        path_contains(path, "sim/random_deployment");
  const bool serialization_path = path_contains(path, "rim/io/") ||
                                  path_contains(path, "rim/obs/") ||
                                  path_contains(path, "rim/core/snapshot");
  const bool geom_home = path_contains(path, "rim/geom/");

  const auto next_is = [&](std::size_t i, std::string_view text) {
    return i + 1 < toks.size() && toks[i + 1].text == text;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    const std::size_t ln = toks[i].line;

    if (!rng_home) {
      if ((t == "rand" || t == "srand") && next_is(i, "(")) {
        out.push_back({std::string(path), ln, std::string(kRawRandom),
                       t + "() is non-deterministic; draw from sim::Rng"});
      } else if (t == "random_device") {
        out.push_back({std::string(path), ln, std::string(kRawRandom),
                       "std::random_device is non-deterministic; seed "
                       "sim::Rng explicitly"});
      } else if (t == "time" && next_is(i, "(") && i + 2 < toks.size() &&
                 (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL")) {
        out.push_back({std::string(path), ln, std::string(kRawRandom),
                       "time(nullptr) makes runs unreplayable; thread a seed "
                       "or obs::now_ns through the caller"});
      }
    }

    if (serialization_path &&
        (t == "unordered_map" || t == "unordered_set" ||
         t == "unordered_multimap" || t == "unordered_multiset")) {
      out.push_back({std::string(path), ln, std::string(kUnordered),
                     "std::" + t +
                         " in a serialization/checksum path; iteration order "
                         "is non-deterministic — use std::map or a sorted "
                         "vector"});
    }

    // eval-options-designated-init: `EvalOptions` `{` `.` is the shape of a
    // designated initializer (EvalOptions{.strategy = ...}). The sanctioned
    // EvalOptions{}.with_*(...) chain tokenizes as `{` `}` `.`, so it never
    // matches. The definition itself (interference.hpp) declares members,
    // never brace-initializes with designators, so no path carve-out needed.
    if (t == "EvalOptions" && next_is(i, "{") && i + 2 < toks.size() &&
        toks[i + 2].text == ".") {
      out.push_back({std::string(path), ln, std::string(kEvalOptionsInit),
                     "designated-initializer EvalOptions construction; chain "
                     "the with_* builder setters instead "
                     "(EvalOptions{}.with_strategy(...))"});
    }

    if (!geom_home && (t == "==" || t == "!=")) {
      const bool lhs = i > 0 && is_float_literal(toks[i - 1].text);
      const bool rhs = i + 1 < toks.size() && is_float_literal(toks[i + 1].text);
      if (lhs || rhs) {
        out.push_back({std::string(path), ln, std::string(kFloatEquality),
                       "exact floating-point comparison against a literal; "
                       "use a geom tolerance helper or justify exactness"});
      }
    }
  }

  // wave-vector-scratch: in batch files, a task lambda handed straight to
  // ThreadPool::submit runs per wave on the hottest path in the engine;
  // std::vector scratch there is a heap allocation (and a free) per task.
  // Batch scratch belongs in the scenario's arena, captured as raw
  // pointers (scenario_batch.cpp documents the lifetime rules).
  if (path_contains(path, "batch")) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text != "submit" || !next_is(i, "(")) continue;
      std::size_t j = i + 2;
      if (j >= toks.size() || toks[j].text != "[") continue;
      // Capture list, then optional (params) / qualifiers, then the body.
      std::size_t depth = 1;
      for (++j; j < toks.size() && depth > 0; ++j) {
        if (toks[j].text == "[") ++depth;
        if (toks[j].text == "]") --depth;
      }
      if (j < toks.size() && toks[j].text == "(") {
        depth = 1;
        for (++j; j < toks.size() && depth > 0; ++j) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
        }
      }
      while (j < toks.size() && toks[j].text != "{") ++j;
      if (j >= toks.size()) continue;
      depth = 1;
      for (++j; j < toks.size() && depth > 0; ++j) {
        if (toks[j].text == "{") {
          ++depth;
        } else if (toks[j].text == "}") {
          --depth;
        } else if (toks[j].text == "vector") {
          out.push_back(
              {std::string(path), toks[j].line, std::string(kWaveScratch),
               "std::vector scratch inside a submit() task lambda; "
               "bump-allocate from the batch arena and capture the pointer "
               "instead"});
        }
      }
    }
  }

  const std::string own_module = module_of(path);
  for (const auto& [ln, include] : scan_result.quoted_includes) {
    const auto detail_pos = include.find("/detail/");
    if (detail_pos == std::string::npos) continue;
    const std::string target_module = module_of(include);
    if (target_module.empty() || target_module == own_module) continue;
    out.push_back({std::string(path), ln, std::string(kDetailInclude),
                   "#include \"" + include + "\" reaches into rim/" +
                       target_module +
                       "'s private detail/ headers across a module boundary"});
  }
}

[[nodiscard]] bool is_cpp_source(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx" || ext == ".hxx";
}

[[nodiscard]] std::string normalize(const std::filesystem::path& p) {
  return p.generic_string();
}

[[nodiscard]] std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_violation_json(std::ostringstream& out, const Violation& v,
                           bool suppressed) {
  out << "    {\"file\": \"" << json_escape(v.file) << "\", \"line\": "
      << v.line << ", \"rule\": \"" << json_escape(v.rule)
      << "\", \"message\": \"" << json_escape(v.message)
      << "\", \"suppressed\": " << (suppressed ? "true" : "false") << "}";
}

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

bool is_known_rule(std::string_view name) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.name == name; });
}

bool is_project_rule(std::string_view name) {
  return name.rfind("project-", 0) == 0;
}

bool looks_binary(std::string_view contents) {
  const std::size_t window = std::min<std::size_t>(contents.size(), 8192);
  return contents.substr(0, window).find('\0') != std::string_view::npos;
}

LintReport lint_source_report(std::string_view path, std::string_view source) {
  ScanResult scanned = detail::scan(path, source);
  std::vector<Violation> violations;
  check_tokens(path, scanned, violations);
  detail::SuppressionOutcome outcome = detail::apply_suppressions(
      scanned, std::move(violations), path, detail::SuppressionMode::kFile);
  LintReport report;
  report.active = std::move(outcome.active);
  report.active.insert(report.active.end(), outcome.dangling.begin(),
                       outcome.dangling.end());
  report.active.insert(report.active.end(), scanned.comment_violations.begin(),
                       scanned.comment_violations.end());
  report.suppressed = std::move(outcome.suppressed);
  detail::sort_violations(report.active);
  detail::sort_violations(report.suppressed);
  return report;
}

std::vector<Violation> lint_source(std::string_view path,
                                   std::string_view source) {
  return lint_source_report(path, source).active;
}

std::vector<Violation> check_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string head(8192, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(std::max<std::streamsize>(in.gcount(), 0)));
  std::vector<Violation> out;
  if (looks_binary(head)) {
    out.push_back({path, 1, std::string(kBinaryFile),
                   "file contains NUL bytes; binaries must not be tracked "
                   "(build trees are git-ignored via build*/)"});
  }
  return out;
}

namespace {

[[nodiscard]] LintReport lint_file_report(const std::string& path) {
  LintReport report;
  report.active = check_binary(path);
  if (!report.active.empty()) return report;  // binary: token rules meaningless
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();
  return lint_source_report(normalize(std::filesystem::path(path)), source);
}

}  // namespace

std::vector<Violation> lint_file(const std::string& path) {
  return lint_file_report(path).active;
}

LintReport lint_tree_report(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (fs::is_regular_file(p)) {
      files.push_back(normalize(p));
      continue;
    }
    if (!fs::is_directory(p)) continue;
    for (auto it = fs::recursive_directory_iterator(p);
         it != fs::recursive_directory_iterator(); ++it) {
      const std::string name = it->path().filename().string();
      if (it->is_directory() &&
          (name.rfind("build", 0) == 0 || name == ".git" ||
           name == "testdata")) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && is_cpp_source(it->path())) {
        files.push_back(normalize(it->path()));
      }
    }
  }
  std::sort(files.begin(), files.end());
  LintReport all;
  for (const std::string& file : files) {
    LintReport one = lint_file_report(file);
    all.active.insert(all.active.end(), one.active.begin(), one.active.end());
    all.suppressed.insert(all.suppressed.end(), one.suppressed.begin(),
                          one.suppressed.end());
  }
  detail::sort_violations(all.active);
  detail::sort_violations(all.suppressed);
  return all;
}

std::vector<Violation> lint_tree(const std::vector<std::string>& roots) {
  return lint_tree_report(roots).active;
}

std::string report_json(const LintReport& report, std::string_view mode) {
  std::ostringstream out;
  out << "{\n  \"generator\": \"rim_lint\",\n  \"mode\": \"" << mode
      << "\",\n  \"violations\": [\n";
  bool first = true;
  for (const Violation& v : report.active) {
    if (!first) out << ",\n";
    first = false;
    append_violation_json(out, v, false);
  }
  for (const Violation& v : report.suppressed) {
    if (!first) out << ",\n";
    first = false;
    append_violation_json(out, v, true);
  }
  out << "\n  ],\n  \"unused\": [";
  first = true;
  for (const UnusedSymbol& u : report.unused) {
    out << (first ? "\n" : ",\n") << "    {\"file\": \"" << json_escape(u.file)
        << "\", \"line\": " << u.line << ", \"symbol\": \""
        << json_escape(u.symbol) << "\", \"kind\": \"" << json_escape(u.kind)
        << "\"}";
    first = false;
  }
  out << (report.unused.empty() ? "" : "\n  ")
      << "],\n  \"counts\": {\"active\": " << report.active.size()
      << ", \"suppressed\": " << report.suppressed.size() << "}\n}\n";
  return out.str();
}

}  // namespace rim::lint
