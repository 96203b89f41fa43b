// The three benchmark workloads.  Each runs in its own process, builds its
// inputs from the seed before timing starts, drives the library through its
// public functions only, and checks every answer it times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  Tracer* tracer = nullptr;  // null in the untraced run
  CpuPicker* cpu = nullptr;  // re-pins the client between timed phases
};

/// What one workload run reports.  End-to-end values are meaningful only
/// for the untraced run; the traced run's per-layer numbers come from the
/// tracer's document.
struct RunResult {
  Tally tally;
  double setup_s = 0;
  double build_s = 0;
  std::uint64_t builds = 0;  ///< samples behind build_s
  double qps = 0;
  LatencyHistogram latency;  ///< per-query latency (ns), rebuilds excluded
  std::uint64_t rounds = 0;    ///< grid-apsp only
  std::uint64_t messages = 0;  ///< grid-apsp only
  std::vector<std::string> errors;  ///< first few failure descriptions
  void fail(const std::string& what);
};

RunResult run_grid_apsp(const RunConfig& cfg);
RunResult run_rmat_serve(const RunConfig& cfg);
RunResult run_grid_paths(const RunConfig& cfg);

}  // namespace perfbench
