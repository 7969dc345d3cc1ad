#pragma once

#include <vector>

#include "mirror.hpp"
#include "stats.hpp"
#include "trace.hpp"

/// \file workloads.hpp
/// The three workloads. Each builds its inputs from RunOptions::seed,
/// measures for RunOptions::seconds, checks the program's outputs, and
/// returns every metric it measured.

namespace perfbench {

[[nodiscard]] Report run_point_edits(const RunOptions& options);
[[nodiscard]] Report run_routed_churn(const RunOptions& options);
[[nodiscard]] Report run_deployment_scale(const RunOptions& options);

/// Writes the traced run's spans to RunOptions::span_path (bounded).
void write_span_dump(Report& report, const std::vector<Span>& spans,
                     const RunOptions& options);

}  // namespace perfbench
