// Shared pieces of the benchmark driver: the seeded generator every
// workload draws its inputs from, wall-clock timing, the in-memory span
// log that gives the traced per-layer split, and the per-run result the
// workloads fill in.

#ifndef PERFBENCH_DRIVER_HARNESS_H_
#define PERFBENCH_DRIVER_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark owns its generator, so inputs depend only on
/// the seed and on this file, never on generators inside the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); bound > 0.
  std::size_t Below(std::size_t bound) {
    return static_cast<std::size_t>(Next() % bound);
  }

  /// A uniformly random permutation of 0..n-1 (Fisher-Yates).
  std::vector<std::size_t> Permutation(std::size_t n);

 private:
  std::uint64_t state_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Spans recorded by the driver around each call into a layer of the
/// library. A span names its layer, the operation (set-up or request) it
/// belongs to, and its parent span. The per-layer figures come from leaf
/// spans, whose self time is their duration. Spans stay in memory and are
/// written out once, when the run ends. Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t op;  // operation id shared by the spans of one request
    int parent;        // index of the enclosing span, -1 at the root
    double start_s;    // seconds since the log was created
    double end_s;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  int Open(const char* name, std::uint64_t op);
  void Close(int index);

  /// Appends another log's spans (one per client thread), keeping their
  /// parent links and placing them on this log's time axis.
  void Absorb(const SpanLog& other);

  /// The 90th percentile of the durations in ms of the spans named `name`
  /// (0 when disabled), the percentile the end-to-end latency uses.
  double P90Ms(const char* name) const;

  /// Writes the spans as JSON lines to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on End() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t op)
      : log_(log), index_(log.Open(name, op)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (index_ >= 0) log_.Close(index_);
    index_ = -1;
  }

 private:
  SpanLog& log_;
  int index_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the span log is written when tracing
};

/// What one workload run measured. Latencies are per operation in ms; a
/// set-up is timed from input text to the first correct answer.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_ms;
  double measured_s = 0;
  std::vector<double> setup_s;
  /// Per-layer figures, reported when tracing (see driver/main.cc).
  std::map<std::string, double> layers;

  /// Records a failed check with its reason on stderr.
  void Fail(const std::string& why);
};

RunResult RunTcRandom(const RunOptions& options, SpanLog& spans);
RunResult RunCyclicClique(const RunOptions& options, SpanLog& spans);
RunResult RunServerRw(const RunOptions& options, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HARNESS_H_
