// The three workloads, their metrics, and the run that measures them.
#pragma once

#include <cstdint>
#include <string>

namespace fleetbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string inputs;     ///< directory prepare wrote
  std::string trace_out;  ///< span file of a traced run
};

/// Runs one workload and prints the result object as the last stdout
/// line. Returns 0 only when every operation succeeded and every check
/// held.
int run_workload(const RunArgs& args);

/// Prints every workload and metric name with its unit and direction as
/// JSON (what BENCHMARK.json must list).
void print_metric_table();

}  // namespace fleetbench
