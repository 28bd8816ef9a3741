#ifndef OPENBG_PERFBENCH_COMMON_H_
#define OPENBG_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace openbg::perfbench {

/// Input size of a run. kFull is what the benchmark measures; kTiny shrinks
/// every workload so the smoke tests finish in seconds. Only the tests set
/// it: the command line always runs kFull.
enum class Size { kFull, kTiny };

/// What one invocation of the benchmark asks for. Everything a workload
/// depends on comes from here: the workload code derives its inputs from
/// `seed` alone.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  Size size = Size::kFull;
  /// Scratch directory for on-disk state (the graph_rw store). Must exist.
  std::string workdir = ".";
  /// Source revision for the provenance line; the binary cannot learn it.
  std::string commit = "unknown";
};

/// Parses the command line strictly: every flag takes exactly one value,
/// unknown flags, missing values, repeats and malformed numbers are errors.
util::Status ParseArgs(int argc, const char* const* argv, RunOptions* out);
const char* Usage();

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run. `metrics` holds the end-to-end metrics in
/// an untraced run and the per-layer metrics in a traced one.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t threads = 0;  // threads the workload runs, all layers counted
  std::map<std::string, Metric> metrics;
  std::vector<std::string> gate_errors;  // why `correct` is false
  std::string rounds_json;               // per-round values, for the record

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed correctness check: one failed operation.
  void Fail(std::string why);
};

// ---- statistics ---------------------------------------------------------

/// Exact percentile, p in [0, 100], by linear interpolation between order
/// statistics (numpy's default). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Samples of one timed window (latencies, microseconds) in a fixed-size
/// reservoir (Vitter's algorithm R, seeded): memory, and so the process's
/// peak RSS, stays the same whatever the throughput, while percentiles stay
/// unbiased over the whole window.
class Samples {
 public:
  static constexpr size_t kCapacity = 1 << 17;

  Samples();
  void Add(double v);
  /// Samples offered, kept or not.
  uint64_t count() const { return count_; }
  double Percentile(double p) const;
  /// Offers another window's kept samples (one caller thread's share).
  void Merge(const Samples& other);

 private:
  std::vector<double> kept_;
  size_t size_ = 0;  // kept_[0, size_) are live
  uint64_t count_ = 0;
  uint64_t rng_state_ = 0x5EED;
};

/// A run repeats its workload in rounds, each with a fresh set-up (new
/// threads, new allocations), and reports every end-to-end metric as the
/// median over the rounds: one round that lands in a bad state (thread
/// placement, a busy neighbour) cannot move the run's result.
class RoundMedians {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Sets each metric's median on `r`, and every round's values on
  /// r->rounds_json.
  void Report(RunResult* r) const;

 private:
  std::map<std::string, std::pair<std::vector<double>, std::string>> values_;
};

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMib();

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// 64-bit FNV-1a over bytes; `h` continues an earlier digest.
uint64_t Digest(std::string_view bytes, uint64_t h = 0xCBF29CE484222325ull);

// ---- tracing ------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded around
/// the benchmark's own calls into the program's public functions; one
/// Trace belongs to one thread (give each caller thread its own and Merge
/// at the end). When disabled, Begin/End cost one branch.
class Trace {
 public:
  static constexpr int64_t kNoParent = -1;

  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (kNoParent when disabled).
  int64_t Begin(std::string_view name, uint64_t request = 0,
                int64_t parent = kNoParent);
  void End(int64_t span);
  /// Records a span whose times were taken elsewhere (e.g. epoch hooks).
  int64_t Add(std::string_view name, Clock::time_point start,
              Clock::time_point end, uint64_t request = 0,
              int64_t parent = kNoParent);

  /// Appends `other`'s spans (re-indexing parents).
  void Merge(const Trace& other);

  /// Durations, microseconds, of every span with this name.
  std::vector<double> Durations(std::string_view name) const;
  /// Self times, microseconds: each span's duration minus the part of it
  /// its children cover.
  std::vector<double> SelfTimes(std::string_view name) const;

  /// Writes one tab-separated line per span (name, request, parent, start
  /// and end in ns since the first span, self time in ns), for at most the
  /// first 200k spans.
  util::Status Write(const std::string& path) const;

 private:
  struct Span {
    uint32_t name = 0;
    uint64_t request = 0;
    int64_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
  };
  uint32_t Intern(std::string_view name);
  int FindName(std::string_view name) const;
  std::vector<double> AllSelfTimes() const;

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Duration of one RAII-scoped span.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string_view name, uint64_t request = 0,
             int64_t parent = Trace::kNoParent)
      : trace_(trace), span_(trace->Begin(name, request, parent)) {}
  ~ScopedSpan() { trace_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int64_t span_;
};

/// Traced throughput against untraced throughput, percent.
inline double TraceOverheadPct(double untraced_rate, double traced_rate) {
  return traced_rate > 0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0;
}

}  // namespace openbg::perfbench

#endif  // OPENBG_PERFBENCH_COMMON_H_
