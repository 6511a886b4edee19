// The four benchmark workloads. Each returns the raw-result document for
// one run; perfbench/perf_stats.py turns it into the reported metrics.
#pragma once

#include <string>

#include "harness.h"

namespace perfbench {

/// True for enterprise1-exact, multiperiod-t4 and federal-heuristic.
[[nodiscard]] bool is_solver_workload(const std::string& name);

/// One plan() per call, repeated on every allowed CPU (at most 4 threads).
[[nodiscard]] json::Value run_solver_workload(const RunArgs& args);

/// daemon-mixed: an in-process etransformd driven by two closed-loop
/// clients.
[[nodiscard]] json::Value run_daemon_workload(const RunArgs& args);

/// At most this many measuring threads per run.
inline constexpr int kMaxThreads = 4;

}  // namespace perfbench
