#pragma once

#include <string>
#include <vector>

#include "lint.hpp"

/// \file project.hpp
/// rim_lint --project: the cross-TU passes (DESIGN.md §13).
///
/// Where lint.cpp judges one translation unit at a time, this analyzer reads
/// the whole TU set out of compile_commands.json, builds a symbol index and
/// an approximate (name-based) call graph, and runs three passes on top:
///
///  - project-taint: reachability from the checksum-pinned entry points
///    (Scenario::apply_batch, SinrAssessor, snapshot serialization, the
///    `_scalar` SIMD twins) to any nondeterminism source
///    (unordered/pointer-keyed iteration, raw randomness outside the entropy
///    homes, wall-clock reads outside rim/obs/).
///  - project-lock-order: acquisition sequences checked against the partial
///    order declared by RIM_ACQUIRED_AFTER / RIM_ACQUIRED_BEFORE (plus
///    RIM_REQUIRES as held-at-entry), and lexical MutexLock acquisitions
///    inside a ThreadPool submit() task lambda.
///  - project-annotation-coverage: plain-data members of mutex-bearing
///    classes under src/rim/ carrying neither RIM_GUARDED_BY nor std::atomic
///    nor const, and mutable statics whose type is not an internally
///    synchronized class.
///
/// Soundness: the call graph links by bare function name over the same token
/// stream the per-file rules use — no overload resolution, no virtual
/// dispatch, no function pointers. That makes the taint pass an
/// over-approximation on name collisions and an under-approximation through
/// indirect calls; both caveats are documented in DESIGN.md §13 and are the
/// price of staying dependency-free. Violations carry the witness chain in
/// the message so a human can confirm or suppress at the source line.

namespace rim::lint {

/// The TU list --project analyzes: every "file" entry in
/// \p compile_commands_path (a compile_commands.json file) that lives under
/// a src/ directory, plus the transitive closure of their quoted #includes,
/// deduplicated and sorted. Throws std::runtime_error when the file cannot
/// be read or parsed.
[[nodiscard]] std::vector<std::string> project_files(
    const std::string& compile_commands_path);

/// Run the three project passes over exactly \p files (absolute or
/// cwd-relative paths; tests hand fixture trees straight to this).
/// Suppressions apply per source line with SuppressionMode::kProject, so a
/// RIM_LINT_ALLOW(project-*) at a definition site covers violations reached
/// from any TU, and a project suppression that matches nothing is reported
/// dangling here (not by the per-file mode).
[[nodiscard]] LintReport analyze_project_files(
    const std::vector<std::string>& files);

/// project_files() + analyze_project_files().
[[nodiscard]] LintReport analyze_project(
    const std::string& compile_commands_path);

}  // namespace rim::lint
