// Shared plumbing for the repository benchmark: command-line arguments,
// exact order statistics, the metric sink, correctness accounting, process
// resource usage, and the benchmark's own span tracer.
//
// Everything here lives outside src/: the benchmark drives the library only
// through its public entry points and times them from the outside.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace reptile {
class TraceContext;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans ("" = nowhere)
};

/// Seconds elapsed since `since`.
double SecondsSince(Clock::time_point since);

/// Exact median (mean of the two middle samples for an even count).
double Median(std::vector<double> values);

/// The highest-percentile sample that still has at least `beyond` samples
/// strictly above it: the (n - beyond)-th smallest. `percentile` receives
/// its rank as a fraction of n.
double Tail(std::vector<double> values, size_t beyond, double* percentile);

/// Ordered metric sink; renders the "metrics" object of the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values_;
};

/// Counts answers checked against their expected value. A failed check is
/// logged (the first few) and counted; it is never dropped.
class Checks {
 public:
  bool Expect(bool ok, const std::string& what);
  int64_t attempted() const;
  int64_t failed() const;

 private:
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// getrusage(RUSAGE_SELF) snapshot plus the wall clock.
struct Usage {
  double cpu_seconds = 0.0;
  int64_t involuntary_switches = 0;
  Clock::time_point wall;

  static Usage Now();
};

/// Process high-water resident set size in MB.
double PeakRssMb();

/// The benchmark's own spans: one per public call it makes, each with a
/// name, start, end, parent span and the id of the operation it belongs
/// to. Kept in memory; written out once at the end. Thread-safe.
class Tracer {
 public:
  static constexpr int kNoParent = -1;

  Tracer();

  /// Opens a span and returns its index.
  int Begin(const std::string& name, uint64_t op, int parent);
  void End(int index);

  /// Imports the engine's own stage spans (plan / fit / rank) recorded in
  /// `trace` as children of `parent`. `trace_epoch` is the instant the
  /// TraceContext was constructed.
  void ImportEngineSpans(const reptile::TraceContext& trace, Clock::time_point trace_epoch,
                         uint64_t op, int parent);

  uint64_t NewOp();

  /// Total duration and self time (duration minus the part covered by
  /// child spans) per span name, in seconds, with the span count.
  struct NameTotals {
    double total_seconds = 0.0;
    double self_seconds = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every span, then the per-name totals and self times, as one
  /// JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t op = 0;
    int parent = kNoParent;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };
  int64_t NowNs() const;

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_op_ = 1;
};

/// RAII span; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t op, int parent = Tracer::kNoParent)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, op, parent) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

/// What a workload hands back to main().
struct Outcome {
  Metrics metrics;
  Checks checks;
};

void RunAbsenteeDrill(const Args& args, Tracer* tracer, Outcome* out);
void RunCompasDrill(const Args& args, Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
