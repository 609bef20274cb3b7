// The observability tax in numbers: the fig08 complaint panel through
// Session::RecommendAll with the full instrumentation path attached (a
// TraceContext recording stage spans, fed into latency histograms the way
// ReptileService::Handle does) versus detached (BatchOptions::trace null, the
// shipped default for in-process callers) — emitted as
// BENCH_observability.json.
//
// The contract scripts/check.sh asserts: the instrumented arm records spans
// (the pipeline is actually traced, not silently skipped) and tracing costs
// less than 2% of the untraced latency. The panel request takes about a
// millisecond, so the traced-minus-untraced wall delta is mostly scheduling
// jitter and cannot carry the gate; it is reported as `overhead_pct` only.
// The gate instead measures the instrumentation directly: a fixed loop of
// span recordings (ElapsedSeconds + TraceContext::AddSpan +
// Histogram::Observe, what one traced stage costs) gives the per-span cost,
// and spans-per-request x per-span cost must stay under 2% of the untraced
// min-of-repeats latency. Both request arms run over a pre-warmed dataset
// and take the minimum of several repeats: overhead is a steady-state
// property, and min-of-N is the noise-robust estimator for it.
//
// Benchmark-free (no google-benchmark dependency) like the other gate
// benches: it must build and run wherever the library builds.
//
// Usage: obs_overhead [output.json]   (default ./BENCH_observability.json)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/panel_gen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

constexpr int kRepeats = 9;
constexpr double kMaxOverheadPct = 2.0;
constexpr int kSpanLoop = 4096;  // span recordings per timed repeat

Dataset MakePanel() {
  PanelSpec spec;
  spec.districts = 8;
  spec.villages_per_district = 6;
  spec.years = 8;
  spec.rows_per_group = 4;
  return MakeSeverityPanel(spec);
}

Session OpenOrDie(const DatasetHandle& handle) {
  Result<Session> session = Session::Open(handle);
  if (!session.ok() || !session->Commit("time").ok()) {
    std::fprintf(stderr, "session open failed\n");
    std::exit(1);
  }
  return std::move(session).value();
}

std::vector<ComplaintSpec> PanelComplaints() {
  std::vector<ComplaintSpec> complaints;
  for (int y = 0; y < 8; ++y) {
    complaints.push_back(
        ComplaintSpec::TooHigh("std", "severity").Where("year", "y" + std::to_string(y)));
  }
  return complaints;
}

// Min-of-repeats cost of recording one span the way a traced request does:
// clock reads for start and duration, TraceContext::AddSpan with a stage
// name and a formatted detail, and the stage histogram's Observe. A fresh
// context per repeat keeps the span vector from growing across repeats.
double MeasurePerSpanNs(Histogram* histogram) {
  double best_ns = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    TraceContext trace(MintTraceId());
    Timer timer;
    for (int i = 0; i < kSpanLoop; ++i) {
      const double start = trace.ElapsedSeconds();
      const double duration = trace.ElapsedSeconds() - start;
      trace.AddSpan("fit", start, duration, "hits=" + std::to_string(i));
      histogram->Observe(duration);
    }
    best_ns = std::min(best_ns, timer.Seconds() * 1e9 / kSpanLoop);
  }
  return best_ns;
}

void RunOrDie(Session& session, const std::vector<ComplaintSpec>& complaints,
              const BatchOptions& options) {
  Result<BatchExploreResponse> batch =
      session.RecommendAll(std::span<const ComplaintSpec>(complaints), options);
  if (!batch.ok()) {
    std::fprintf(stderr, "recommend failed: %s\n", batch.status().ToString().c_str());
    std::exit(1);
  }
}

int Run(const char* output_path) {
  Result<DatasetHandle> handle = PreparedDataset::Prepare(MakePanel());
  if (!handle.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", handle.status().ToString().c_str());
    std::exit(1);
  }
  Session session = OpenOrDie(*handle);
  std::vector<ComplaintSpec> complaints = PanelComplaints();

  // Warm everything once — aggregate cache, fitted models — so both arms
  // measure the steady-state request path, not one-time fit cost.
  RunOrDie(session, complaints, BatchOptions());

  // The histograms the instrumented arm feeds, mirroring the service's
  // per-stage and overall series.
  MetricsRegistry registry;
  Histogram* overall = registry.GetHistogram(
      "reptile_http_request_duration_seconds", "bench overall latency");
  std::map<std::string, Histogram*> stages;
  for (const char* stage : {"validate", "plan", "fit", "rank"}) {
    stages[stage] = registry.GetHistogram("reptile_request_stage_duration_seconds",
                                          "bench stage latency", {{"stage", stage}});
  }

  double off_ms = 1e300, on_ms = 1e300;
  int64_t spans_recorded = 0;
  // Interleave the arms so drift (thermal, page cache) hits both equally.
  for (int r = 0; r < kRepeats; ++r) {
    {
      Timer timer;
      RunOrDie(session, complaints, BatchOptions());
      off_ms = std::min(off_ms, timer.Seconds() * 1000.0);
    }
    {
      TraceContext trace(MintTraceId());
      Timer timer;
      RunOrDie(session, complaints, BatchOptions().WithTrace(&trace));
      std::vector<TraceSpan> spans = trace.Spans();
      for (const TraceSpan& span : spans) {
        auto it = stages.find(span.name);
        if (it != stages.end()) it->second->Observe(span.duration_seconds);
      }
      overall->Observe(timer.Seconds());
      on_ms = std::min(on_ms, timer.Seconds() * 1000.0);
      spans_recorded = static_cast<int64_t>(spans.size());
    }
  }

  const double overhead_pct = off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
  // Every recorded stage span is one AddSpan + Observe pair; the overall
  // latency Observe is counted as one more.
  const double per_span_ns = MeasurePerSpanNs(stages["fit"]);
  const int64_t spans_per_request = spans_recorded + 1;
  const double instrumentation_ms =
      static_cast<double>(spans_per_request) * per_span_ns / 1e6;
  const double gated_pct = off_ms > 0.0 ? instrumentation_ms / off_ms * 100.0 : 0.0;
  const bool within_budget = spans_recorded > 0 && gated_pct < kMaxOverheadPct;

  char json[640];
  std::snprintf(json, sizeof(json),
                "{\"workload\":\"fig08_panel_8x6x8\",\"repeats\":%d,"
                "\"trace_off_ms\":%.3f,\"trace_on_ms\":%.3f,"
                "\"overhead_pct\":%.2f,\"spans_recorded\":%lld,"
                "\"per_span_ns\":%.1f,\"instrumentation_pct\":%.4f,"
                "\"histogram_count\":%lld,\"within_budget\":%s}\n",
                kRepeats, off_ms, on_ms, overhead_pct,
                static_cast<long long>(spans_recorded), per_span_ns, gated_pct,
                static_cast<long long>(overall->count()),
                within_budget ? "true" : "false");

  std::ofstream out(output_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", output_path);
    return 1;
  }
  out << json;
  out.close();
  std::fputs(json, stdout);

  if (spans_recorded <= 0) {
    std::fprintf(stderr, "FAIL: the traced arm recorded no spans\n");
    return 1;
  }
  if (!within_budget) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.4f%% (%lld spans x %.1fns of a %.3fms "
                 "request) exceeds the %g%% budget\n",
                 gated_pct, static_cast<long long>(spans_per_request), per_span_ns, off_ms,
                 kMaxOverheadPct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace reptile

int main(int argc, char** argv) {
  const char* output = argc > 1 ? argv[1] : "BENCH_observability.json";
  return reptile::Run(output);
}
