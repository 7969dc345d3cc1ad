#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "lint.hpp"
#include "project.hpp"

/// rim_lint CLI (DESIGN.md §8, §13).
///
///   rim_lint [paths...]            lint C++ sources under paths
///                                  (default: src tests bench examples)
///   rim_lint --project [build]     cross-TU passes (taint, lock order,
///                                  annotation coverage) over the TU set in
///                                  <build>/compile_commands.json
///                                  (default build dir: "build"), plus the
///                                  unused-symbol report (--json only)
///   rim_lint --binary-check f...   only the binary-file rule, any file type
///                                  (CI pipes `git ls-files` through this)
///   rim_lint --json                emit the machine-readable report on
///                                  stdout instead of the text lines
///                                  (consumed by tools/check_lint.py)
///   rim_lint --list-rules          print the rule catalog
///
/// Exit status: 0 clean, 1 active violations found, 2 usage/setup error.
/// The text format is byte-stable ("file:line: [rule] message"): greps and
/// editor integrations parse it, so format changes go through --json.

namespace {

void print(const std::vector<rim::lint::Violation>& violations) {
  for (const rim::lint::Violation& v : violations) {
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool binary_only = false;
  bool list_rules = false;
  bool project = false;
  bool json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--binary-check") {
      binary_only = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--project") {
      project = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: rim_lint [--binary-check | --list-rules | --project] "
          "[--json] [paths...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "rim_lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (binary_only && project) {
    std::fprintf(stderr, "rim_lint: --binary-check and --project conflict\n");
    return 2;
  }

  if (list_rules) {
    for (const rim::lint::RuleInfo& rule : rim::lint::rules()) {
      std::printf("%-28s %s\n", std::string(rule.name).c_str(),
                  std::string(rule.summary).c_str());
    }
    return 0;
  }

  rim::lint::LintReport report;
  const char* mode = "files";
  if (binary_only) {
    for (const std::string& path : paths) {
      const std::vector<rim::lint::Violation> v = rim::lint::check_binary(path);
      report.active.insert(report.active.end(), v.begin(), v.end());
    }
  } else if (project) {
    mode = "project";
    const std::string where = paths.empty() ? "build" : paths.front();
    if (paths.size() > 1) {
      std::fprintf(stderr, "rim_lint: --project takes one build dir or "
                           "compile_commands.json path\n");
      return 2;
    }
    try {
      report = rim::lint::analyze_project(where);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rim_lint: %s\n", e.what());
      return 2;
    }
  } else {
    if (paths.empty()) paths = {"src", "tests", "bench", "examples"};
    report = rim::lint::lint_tree_report(paths);
  }

  if (json) {
    std::fputs(rim::lint::report_json(report, mode).c_str(), stdout);
  } else {
    print(report.active);
  }
  if (!report.active.empty()) {
    std::fprintf(stderr, "rim_lint: %zu violation(s)\n", report.active.size());
    return 1;
  }
  return 0;
}
