// Timing, samples and span tracing shared by the benchmark workloads. All
// timing is taken from outside the program, around its public calls.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact nearest-rank percentile of raw samples (0 when empty).
inline double Percentile(std::vector<int64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return static_cast<double>(samples[rank - 1]);
}

inline double Sum(const std::vector<int64_t>& samples) {
  double total = 0.0;
  for (int64_t s : samples) total += static_cast<double>(s);
  return total;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// One span per public call the benchmark makes into a layer, tagged with
/// the id of the operation that made it. Spans live in memory and are
/// written as a Chrome trace when the run ends. Only the traced run records
/// them; `Add` is a no-op otherwise. Single-threaded: each client thread
/// owns its own tracer.
class Tracer {
 public:
  Tracer(bool enabled, int tid) : enabled_(enabled), tid_(tid) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  void Add(const char* name, int64_t op, int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    covered_ns_ += end_ns - start_ns;
    if (spans_.size() < kMaxSpans) spans_.push_back({name, op, start_ns, end_ns});
  }

  /// Total duration of every span added, kept or not. Spans never overlap:
  /// one thread makes one call at a time.
  int64_t covered_ns() const { return covered_ns_; }

  /// Writes the spans of every tracer as one Chrome tracing JSON file.
  static bool Write(const std::string& path,
                    const std::vector<const Tracer*>& tracers) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const char* sep = "";
    for (const Tracer* tracer : tracers) {
      for (const Span& s : tracer->spans_) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"perfbench\","
                     "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"op\":%lld}}\n",
                     sep, s.name, tracer->tid_,
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<long long>(s.op));
        sep = ",";
      }
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  // Caps trace memory (32 B a span) on long runs.
  static constexpr size_t kMaxSpans = 1 << 20;

  struct Span {
    const char* name;
    int64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_;
  int tid_;
  int64_t covered_ns_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
