#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: engine profiling on, benchmark spans recorded, per-layer
  /// metrics reported instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
};

struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines: resolved configuration, sample counts, and
  /// every check that failed.
  std::vector<std::string> notes;
};

/// Builds three graphs with the workload's views, replays on them a fixed
/// amount of work sized from `seconds`, and checks every view after each
/// replay, outside the timed region.
RunOutcome RunWorkload(const RunConfig& config);

/// Shows that the view check rejects a bag with one row dropped and a bag
/// with one multiplicity changed, and accepts the unchanged bag. Empty on
/// success, else what went wrong.
std::string OracleSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
