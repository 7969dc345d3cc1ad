#include "project.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

// Fixture-backed tests for the four --project passes (DESIGN.md §13).
// Each fixture under testdata/project/<case>/ is a miniature src/rim tree
// handed straight to analyze_project_files; every analysis is exercised
// with both a violation and a sanctioned suppression.

namespace rim::lint {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> fixture_files(const std::string& name) {
  const fs::path root = fs::path(RIM_LINT_TESTDATA) / "project" / name;
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") {
      files.push_back(entry.path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty()) << "fixture not found: " << name;
  return files;
}

std::vector<Violation> with_rule(const std::vector<Violation>& all,
                                 std::string_view rule) {
  std::vector<Violation> out;
  for (const Violation& v : all) {
    if (v.rule == rule) out.push_back(v);
  }
  return out;
}

TEST(RimLintProject, TaintReachesAcrossTranslationUnits) {
  const LintReport report = analyze_project_files(fixture_files("taint"));
  const auto taint = with_rule(report.active, "project-taint");
  ASSERT_EQ(taint.size(), 2u);
  // Cross-TU: the seed (apply_batch in pinned.cpp) reaches the unordered
  // iteration defined in gridish.cpp, and the message carries the witness
  // chain.
  const auto grid = std::find_if(
      taint.begin(), taint.end(), [](const Violation& v) {
        return v.file == "src/rim/geom/gridish.cpp";
      });
  ASSERT_NE(grid, taint.end());
  EXPECT_NE(grid->message.find("apply_batch -> Gridish::fold"),
            std::string::npos)
      << grid->message;
  EXPECT_NE(grid->message.find("'cells_'"), std::string::npos);
  // Same-chain randomness: the random_device helper in the seed's own TU.
  const auto rng = std::find_if(
      taint.begin(), taint.end(), [](const Violation& v) {
        return v.file == "src/rim/core/pinned.cpp";
      });
  ASSERT_NE(rng, taint.end());
  EXPECT_NE(rng->message.find("random_device"), std::string::npos);
}

TEST(RimLintProject, TaintSuppressionAtDefinitionSiteCoversCrossTu) {
  const LintReport report =
      analyze_project_files(fixture_files("taint_suppressed"));
  EXPECT_TRUE(with_rule(report.active, "project-taint").empty());
  // No dangling allow-format either: the suppression matched.
  EXPECT_TRUE(with_rule(report.active, "allow-format").empty());
  ASSERT_EQ(with_rule(report.suppressed, "project-taint").size(), 1u);
}

TEST(RimLintProject, LockOrderInversionAndPoolLambdaAreFlagged) {
  const LintReport report = analyze_project_files(fixture_files("lock"));
  const auto locks = with_rule(report.active, "project-lock-order");
  ASSERT_EQ(locks.size(), 2u);
  const bool has_inversion = std::any_of(
      locks.begin(), locks.end(), [](const Violation& v) {
        return v.message.find("inverting the declared order") !=
               std::string::npos;
      });
  const bool has_lambda = std::any_of(
      locks.begin(), locks.end(), [](const Violation& v) {
        return v.message.find("task lambda") != std::string::npos;
      });
  EXPECT_TRUE(has_inversion);
  EXPECT_TRUE(has_lambda);
  // The inversion names both mutexes with their owning classes.
  for (const Violation& v : locks) {
    if (v.message.find("inverting") == std::string::npos) continue;
    EXPECT_NE(v.message.find("Managerish::reg_mutex_"), std::string::npos);
    EXPECT_NE(v.message.find("Sessionish::mutex"), std::string::npos);
  }
}

TEST(RimLintProject, LockOrderSuppressionIsHonored) {
  const LintReport report =
      analyze_project_files(fixture_files("lock_suppressed"));
  EXPECT_TRUE(with_rule(report.active, "project-lock-order").empty());
  EXPECT_TRUE(with_rule(report.active, "allow-format").empty());
  ASSERT_EQ(with_rule(report.suppressed, "project-lock-order").size(), 1u);
}

TEST(RimLintProject, CoverageAuditFlagsPlainMemberAndMutableStatic) {
  const LintReport report = analyze_project_files(fixture_files("coverage"));
  const auto cov = with_rule(report.active, "project-annotation-coverage");
  ASSERT_EQ(cov.size(), 2u);
  const bool member = std::any_of(cov.begin(), cov.end(), [](const Violation& v) {
    return v.message.find("'Shared::hits_'") != std::string::npos;
  });
  const bool global = std::any_of(cov.begin(), cov.end(), [](const Violation& v) {
    return v.message.find("'global_hits'") != std::string::npos;
  });
  EXPECT_TRUE(member);
  EXPECT_TRUE(global);
  // The guarded and atomic members stay clean.
  for (const Violation& v : cov) {
    EXPECT_EQ(v.message.find("guarded_hits_"), std::string::npos);
    EXPECT_EQ(v.message.find("fast_hits_"), std::string::npos);
  }
}

TEST(RimLintProject, CoverageSuppressionsAreHonored) {
  const LintReport report =
      analyze_project_files(fixture_files("coverage_suppressed"));
  EXPECT_TRUE(with_rule(report.active, "project-annotation-coverage").empty());
  EXPECT_TRUE(with_rule(report.active, "allow-format").empty());
  EXPECT_EQ(with_rule(report.suppressed, "project-annotation-coverage").size(),
            2u);
}

TEST(RimLintProject, DanglingProjectSuppressionFlaggedOnlyInProjectMode) {
  const std::vector<std::string> files = fixture_files("dangling");
  const LintReport project = analyze_project_files(files);
  const auto dangling = with_rule(project.active, "allow-format");
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_NE(dangling.front().message.find("project-taint"), std::string::npos);
  // The per-file mode cannot produce project violations, so the same
  // suppression is out of scope there — not dangling.
  for (const std::string& f : files) {
    EXPECT_TRUE(lint_file(f).empty()) << f;
  }
}

TEST(RimLintProject, AnalyzeProjectReadsCompileCommands) {
  // Build a miniature build-dir + source-dir pair on disk and check the
  // compile_commands.json driver end to end (TU filter + header closure).
  const fs::path root =
      fs::temp_directory_path() / "rim_lint_cc_test" / "repo";
  fs::remove_all(root.parent_path());
  fs::create_directories(root / "src/rim/core");
  fs::create_directories(root / "build");
  {
    std::ofstream src(root / "src/rim/core/seeded.cpp");
    src << "#include \"rim/core/helper.hpp\"\n"
           "namespace rim::core {\n"
           "int apply_batch() { return helper(); }\n"
           "}\n";
    std::ofstream hdr(root / "src/rim/core/helper.hpp");
    hdr << "#pragma once\n"
           "#include <random>\n"
           "namespace rim::core {\n"
           "inline int helper() { std::random_device rd; return int(rd()); }\n"
           "}\n";
    std::ofstream cc(root / "build/compile_commands.json");
    cc << "[\n{\n  \"directory\": \"" << (root / "build").generic_string()
       << "\",\n  \"command\": \"c++ -I" << (root / "src").generic_string()
       << " -c " << (root / "src/rim/core/seeded.cpp").generic_string()
       << "\",\n  \"file\": \""
       << (root / "src/rim/core/seeded.cpp").generic_string()
       << "\"\n}\n]\n";
  }
  const LintReport report =
      analyze_project((root / "build").generic_string());
  // The header was pulled in via the quoted-include closure and its
  // random_device flagged through the apply_batch seed.
  const auto taint = with_rule(report.active, "project-taint");
  ASSERT_EQ(taint.size(), 1u);
  EXPECT_EQ(taint.front().file, "src/rim/core/helper.hpp");
  fs::remove_all(root.parent_path());
}

TEST(RimLintProject, ReportJsonCarriesSuppressionState) {
  LintReport report;
  report.active.push_back({"a.cpp", 3, "project-taint", "msg \"quoted\""});
  report.suppressed.push_back({"b.hpp", 7, "project-lock-order", "ok"});
  const std::string json = report_json(report, "project");
  EXPECT_NE(json.find("\"mode\": \"project\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": true"), std::string::npos);
  EXPECT_NE(json.find("msg \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\": {\"active\": 1, \"suppressed\": 1}"),
            std::string::npos);
}

/// The unused-symbol report of the `unused` fixture: its src/ tree as the
/// TU set, and the fixture directory as the repo root whose tests/, bench/
/// and perfbench/src/ the pass walks.
std::vector<UnusedSymbol> unused_fixture_report() {
  const fs::path root = fs::path(RIM_LINT_TESTDATA) / "project" / "unused";
  return analyze_project_files(fixture_files("unused/src"),
                               root.generic_string())
      .unused;
}

const UnusedSymbol* find_unused(const std::vector<UnusedSymbol>& unused,
                                std::string_view symbol) {
  const auto it = std::find_if(
      unused.begin(), unused.end(),
      [&](const UnusedSymbol& u) { return u.symbol == symbol; });
  return it == unused.end() ? nullptr : &*it;
}

TEST(RimLintProject, UnusedPassClassifiesByWhoNamesTheSymbol) {
  const std::vector<UnusedSymbol> unused = unused_fixture_report();
  const UnusedSymbol* none = find_unused(unused, "demo::unreferenced_fn");
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->kind, "unreferenced");
  EXPECT_EQ(none->file, "src/rim/demo/widget.hpp");
  EXPECT_EQ(none->line, 8u);
  const UnusedSymbol* type = find_unused(unused, "demo::UnusedType");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->kind, "unreferenced");
  const UnusedSymbol* tests = find_unused(unused, "demo::test_only_fn");
  ASSERT_NE(tests, nullptr);
  EXPECT_EQ(tests->kind, "test-only");
  const UnusedSymbol* own = find_unused(unused, "demo::own_only_fn");
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(own->kind, "own-file-only");
  EXPECT_EQ(unused.size(), 4u);
}

TEST(RimLintProject, UnusedPassCountsBenchAndPerfbenchAsProduct) {
  const std::vector<UnusedSymbol> unused = unused_fixture_report();
  EXPECT_EQ(find_unused(unused, "demo::used_by_product"), nullptr);
  EXPECT_EQ(find_unused(unused, "demo::bench_only_fn"), nullptr);
  // perfbench is a CMake project of its own, outside compile_commands.json:
  // the pass walks it from the repo root.
  EXPECT_EQ(find_unused(unused, "demo::perfbench_only_fn"), nullptr);
}

TEST(RimLintProject, UnusedPassSkipsPrivateMembers) {
  const std::vector<UnusedSymbol> unused = unused_fixture_report();
  EXPECT_EQ(find_unused(unused, "demo::Widget::hidden"), nullptr);
  EXPECT_EQ(find_unused(unused, "demo::Widget::api"), nullptr);
  EXPECT_EQ(find_unused(unused, "demo::Widget"), nullptr);
}

TEST(RimLintProject, UnusedReportIsJsonOnlyAndNeverFails) {
  const fs::path root = fs::path(RIM_LINT_TESTDATA) / "project" / "unused";
  const LintReport report =
      analyze_project_files(fixture_files("unused/src"), root.generic_string());
  EXPECT_TRUE(report.active.empty());
  const std::string json = report_json(report, "project");
  EXPECT_NE(json.find("\"unused\": ["), std::string::npos);
  EXPECT_NE(json.find("{\"file\": \"src/rim/demo/widget.hpp\", \"line\": 8, "
                      "\"symbol\": \"demo::unreferenced_fn\", \"kind\": "
                      "\"unreferenced\"}"),
            std::string::npos)
      << json;
}

TEST(RimLintProject, ProjectRulesAreInCatalog) {
  EXPECT_TRUE(is_known_rule("project-taint"));
  EXPECT_TRUE(is_known_rule("project-lock-order"));
  EXPECT_TRUE(is_known_rule("project-annotation-coverage"));
  EXPECT_TRUE(is_project_rule("project-taint"));
  EXPECT_FALSE(is_project_rule("raw-random"));
}

}  // namespace
}  // namespace rim::lint
