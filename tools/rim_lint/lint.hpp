#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

/// \file lint.hpp
/// rim_lint: a structural linter for the project's determinism and layering
/// invariants (DESIGN.md §8, §13).
///
/// Deliberately NOT a libclang tool: the rules below are token-shaped, and a
/// dependency-free tokenizer keeps the linter buildable everywhere the
/// library builds (it compiles with the same toolchain, links nothing, and
/// runs as the `lint` CTest target). The tokenizer strips comments, string
/// and char literals (so rule patterns inside strings never fire) and keeps
/// line numbers; each rule is a small matcher over the token stream or the
/// raw include lines.
///
/// Two modes share the rule catalog:
///  - per-file rules (this header): lexical matchers over one TU at a time;
///  - project passes (project.hpp): cross-TU analyses (determinism taint,
///    lock order, annotation coverage) over the compile_commands.json TU
///    set, reported under `project-*` rule names.
///
/// Suppression: a violation on line N is suppressed by
///     // RIM_LINT_ALLOW(rule-name): reason why this is safe
/// on line N or N-1. The reason is mandatory and the rule name must exist —
/// a malformed or dangling suppression is itself a violation
/// (`allow-format`), so suppressions cannot rot silently. Suppressions for
/// `project-*` rules are checked for dangling only by `--project` (the
/// per-file pass cannot see project violations).

namespace rim::lint {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

/// The rule catalog, in reporting order (per-file rules and project rules).
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// True when \p name is in the catalog.
[[nodiscard]] bool is_known_rule(std::string_view name);

/// True for rules produced by the project-wide passes (`project-*`).
[[nodiscard]] bool is_project_rule(std::string_view name);

/// One hit of the project unused-symbol pass (project.hpp): a function or
/// type a src/rim header declares publicly that no product TU references.
struct UnusedSymbol {
  std::string file;
  std::size_t line = 0;
  std::string symbol;  ///< scope-qualified, without the leading "rim::"
  std::string kind;    ///< "unreferenced", "test-only" or "own-file-only"
};

/// A lint result that keeps the suppression state: `active` violations
/// fail the run; `suppressed` ones were covered by a RIM_LINT_ALLOW and are
/// reported (with their reason'd state) in the JSON output only. `unused`
/// is the project unused-symbol report: JSON only, and it never fails a run.
struct LintReport {
  std::vector<Violation> active;
  std::vector<Violation> suppressed;
  std::vector<UnusedSymbol> unused;
};

/// Lint one translation unit given as an in-memory string. \p path is the
/// repo-relative path used for path-scoped rules (forward slashes).
[[nodiscard]] std::vector<Violation> lint_source(std::string_view path,
                                                 std::string_view source);

/// Like lint_source, but keeps the suppressed violations for reporting.
[[nodiscard]] LintReport lint_source_report(std::string_view path,
                                            std::string_view source);

/// Lint one file from disk (text rules for C++ sources, plus the
/// binary-file rule for every file).
[[nodiscard]] std::vector<Violation> lint_file(const std::string& path);

/// Apply only the binary-file rule to \p path (CI runs this over every
/// git-tracked file, not just C++ sources).
[[nodiscard]] std::vector<Violation> check_binary(const std::string& path);

/// Recursively lint \p roots (files or directories; directories are walked
/// for .hpp/.cpp/.h/.cc/.cxx/.hxx sources). Violations are sorted by
/// (file, line).
[[nodiscard]] std::vector<Violation> lint_tree(
    const std::vector<std::string>& roots);

/// Like lint_tree, but keeps the suppressed violations for reporting.
[[nodiscard]] LintReport lint_tree_report(const std::vector<std::string>& roots);

/// True when \p contents looks binary (a NUL byte in the leading window).
[[nodiscard]] bool looks_binary(std::string_view contents);

/// Serialize a report as deterministic JSON (sorted violations, escaped
/// strings): {"generator","mode","violations":[{file,line,rule,message,
/// suppressed}],"unused":[{file,line,symbol,kind}],"counts":{active,
/// suppressed}}. \p mode is "files" or "project". The schema is consumed by
/// tools/check_lint.py, which gates on "violations" only.
[[nodiscard]] std::string report_json(const LintReport& report,
                                      std::string_view mode);

}  // namespace rim::lint
