// Repository benchmark driver. Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
// Prints notes, then one JSON line: correct, attempted, failed and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// perfbench/run.py builds this binary and runs it in a clean environment.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void PrintJson(const perfbench::RunOutcome& out,
               const std::vector<perfbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage();
    }
    if (end != nullptr && (*end != '\0' || end == value)) return Usage();
  }
  if (argc % 2 != 1 || !have_workload || !(config.seconds > 0)) return Usage();
  if (config.trace && config.trace_path.empty()) return Usage();

  std::printf("build: compiler=%s build_type=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  perfbench::RunOutcome out;
  const std::string self_test = perfbench::OracleSelfTest();
  if (!self_test.empty()) {
    out.correct = false;
    out.notes.push_back("oracle self-test failed: " + self_test);
  } else {
    std::printf("oracle self-test: ok\n");
    out = perfbench::RunWorkload(config);
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  if (out.end_to_end.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: run did not complete\n");
    return 1;
  }
  PrintJson(out, config.trace ? out.per_layer : out.end_to_end);
  return 0;
}
