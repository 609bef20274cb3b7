// The two drill-down workloads: an analyst's full session on the paper's
// Absentee and COMPAS shapes (Section 5.1.4), run straight against
// reptile::Session with the shipping default engine width.
//
// One run, in order:
//   1. setup     — the CSV text is ingested (LoadCsvText +
//                  DatasetRegistry::Add) as the live dataset, untimed.
//   2. warm-up   — one cold session, untimed, so first-touch page faults
//                  and pool spin-up stay out of the samples. Its answers are
//                  the reference.
//   3. rounds    — a fixed number of rounds, derived from --seconds; each
//                  ingests the CSV three more times (setup_s samples, each
//                  dropped right after, spread over the round), runs a cold
//                  session on a freshly prepared dataset and a warm replay by
//                  a new Session over it, a closed-loop capacity burst (nproc
//                  threads, each with its own Session), and a small append to
//                  the live dataset's version chain followed by a recommend
//                  on the new head.
// Interleaving every phase round by round spreads each median's samples over
// the whole run, so host contention that drifts over seconds weighs on all of
// them alike. Every answer is checked: cold == reference, warm == cold,
// capacity == reference, post-append == a cold prepare of the concatenated
// CSV.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "api/registry.h"
#include "common/rng.h"
#include "datagen/shapes_gen.h"
#include "sim/oracle.h"  // RenderTableCsv
#include "version/append.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTailBeyond = 10;
constexpr int kDeltaRows = 8;

struct Shape {
  const char* name;
  reptile::Dataset (*make)(uint64_t);
  DrillPlan plan;
  std::string new_value_column;  // each delta adds one unseen value here
  double nominal_round_seconds;  // sizes the number of rounds from --seconds
  int capacity_requests;         // per client
};

Shape AbsenteeShape() {
  Shape shape;
  shape.name = "absentee";
  shape.make = &reptile::MakeAbsenteeShaped;
  shape.plan.complaint = reptile::ComplaintSpec::TooHigh("count");
  shape.plan.steps = {"county", "party", "week", "gender"};
  shape.plan.step_views = {{"county"}, {"party"}, {"week"}, {"gender"}};
  shape.plan.measure = "value";
  shape.new_value_column = "week";
  shape.nominal_round_seconds = 2.7;
  shape.capacity_requests = 2;
  return shape;
}

Shape CompasShape() {
  Shape shape;
  shape.name = "compas";
  shape.make = &reptile::MakeCompasShaped;
  shape.plan.complaint = reptile::ComplaintSpec::TooHigh("std", "score");
  shape.plan.steps = {"time", "time", "time", "age", "race", "degree"};
  shape.plan.step_views = {{"year"},      {"year", "month"}, {"year", "month", "day"},
                           {"age_range"}, {"race"},          {"charge_degree"}};
  shape.plan.measure = "score";
  shape.new_value_column = "day";
  shape.nominal_round_seconds = 1.4;
  shape.capacity_requests = 3;
  return shape;
}

// Delta rows for append `round`: copies of existing rows (fresh measures)
// plus one row carrying a value of `new_value_column` never seen before, so
// exactly the subtrees under that attribute are dirtied.
std::string DeltaRows(const reptile::Table& table, const std::string& new_value_column,
                      uint64_t seed, int round) {
  reptile::Rng rng(seed, 1000 + static_cast<uint64_t>(round));
  std::string out;
  char number[64];
  const int fresh_column = table.ColumnIndex(new_value_column);
  for (int i = 0; i < kDeltaRows; ++i) {
    const size_t row = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(table.num_rows()) - 1));
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      if (table.is_dimension(c)) {
        if (c == fresh_column && i == 0) {
          out += "new" + std::to_string(round);
        } else {
          out += table.dict(c).name(table.dim_codes(c)[row]);
        }
      } else {
        std::snprintf(number, sizeof(number), "%.17g", rng.Uniform(1.0, 10.0));
        out += number;
      }
    }
    out += '\n';
  }
  return out;
}

std::string Header(const std::string& csv) { return csv.substr(0, csv.find('\n') + 1); }

std::vector<reptile::HierarchySchema> Hierarchies(const reptile::Dataset& dataset) {
  std::vector<reptile::HierarchySchema> out;
  for (int h = 0; h < dataset.num_hierarchies(); ++h) out.push_back(dataset.hierarchy(h));
  return out;
}

double Mean(const std::vector<double>& values) {
  double total = 0.0;
  for (double value : values) total += value;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

// Appends a session's recommend latencies, each labelled "<kind> step <i>".
void AddRecommends(const SessionResult& session, const std::string& kind,
                   std::vector<double>* samples, std::vector<std::string>* ops) {
  for (size_t step = 0; step < session.recommend_ms.size(); ++step) {
    samples->push_back(session.recommend_ms[step]);
    ops->push_back(kind + " step " + std::to_string(step + 1));
  }
}

// Reports on stderr which operations the samples at and above the tail
// sample are, so what recommend_tail_ms measures can be read off each run.
void DescribeTail(const std::vector<double>& samples, const std::vector<std::string>& ops) {
  const double tail = Tail(samples, kTailBeyond, nullptr);
  std::map<std::string, int> at_or_above;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i] >= tail) ++at_or_above[ops[i]];
  }
  std::fprintf(stderr, "recommend samples at or above the tail:");
  for (const auto& [op, count] : at_or_above) std::fprintf(stderr, " %s x%d", op.c_str(), count);
  std::fprintf(stderr, "\n");
}

reptile::DatasetHandle PrepareCopy(const reptile::Dataset& dataset, Checks* checks) {
  reptile::Result<reptile::DatasetHandle> handle = reptile::PreparedDataset::Prepare(dataset);
  checks->Expect(handle.ok(), "prepare fresh dataset");
  return handle.ok() ? std::move(handle).value() : nullptr;
}

// Root-state recommend on a new Session over `dataset`, zero-timed.
std::string RootAnswer(const reptile::DatasetHandle& dataset, const DrillPlan& plan,
                       double* recommend_ms) {
  reptile::Result<reptile::Session> session = reptile::Session::Open(dataset);
  if (!session.ok()) return "open failed: " + session.status().ToString();
  const Clock::time_point start = Clock::now();
  reptile::Result<reptile::ExploreResponse> rec = session->Recommend(plan.complaint);
  if (recommend_ms != nullptr) *recommend_ms = SecondsSince(start) * 1000.0;
  if (!rec.ok()) return "recommend failed: " + rec.status().ToString();
  return ZeroTimedJson(std::move(rec).value());
}

// One ingest: CSV text -> a registered dataset that answers. Returns its
// wall time, or a negative number when the ingest failed its checks.
double Ingest(reptile::DatasetRegistry& registry, const std::string& name, const std::string& csv,
              const reptile::CsvSpec& spec, const std::vector<reptile::HierarchySchema>& h,
              size_t rows, Tracer* tracer, Checks& checks, reptile::DatasetHandle* handle) {
  const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
  SpanScope root(tracer, "setup.ingest", op);
  const Clock::time_point start = Clock::now();
  reptile::Result<reptile::Table> table = [&] {
    SpanScope span(tracer, "data.csv_parse", op, root.index());
    return reptile::LoadCsvText(csv, spec);
  }();
  if (!checks.Expect(table.ok(), "setup csv parse")) return -1.0;
  reptile::Result<reptile::Dataset> dataset = reptile::Dataset::Make(std::move(table).value(), h);
  if (!checks.Expect(dataset.ok(), "setup dataset make")) return -1.0;
  reptile::Result<reptile::DatasetHandle> added = [&] {
    SpanScope span(tracer, "api.registry_add", op, root.index());
    return registry.Add(name, std::move(dataset).value());
  }();
  const double seconds = SecondsSince(start);
  if (!checks.Expect(added.ok() && (*added)->table().num_rows() == rows,
                     "setup registered row count")) {
    return -1.0;
  }
  *handle = std::move(added).value();
  return seconds;
}

// Closed-loop burst: `clients` threads, each with its own Session over
// `dataset`, issue `requests` root-state recommends. Returns completed / wall.
double CapacityBurst(const reptile::DatasetHandle& dataset, const DrillPlan& plan, int clients,
                     int requests, const std::string& expected, Checks& checks) {
  std::atomic<int64_t> completed{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      reptile::Result<reptile::Session> session = reptile::Session::Open(dataset);
      if (!checks.Expect(session.ok(), "capacity session open")) return;
      for (int i = 0; i < requests; ++i) {
        reptile::Result<reptile::ExploreResponse> rec = session->Recommend(plan.complaint);
        if (checks.Expect(rec.ok() && ZeroTimedJson(*rec) == expected,
                          "capacity answer equals the reference")) {
          ++completed;
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  return completed.load() / SecondsSince(start);
}

void RunDrill(const Shape& shape, const Args& args, Tracer* tracer, Outcome* out) {
  Metrics& m = out->metrics;
  Checks& checks = out->checks;
  const reptile::Dataset base = shape.make(args.seed);
  const size_t rows = base.table().num_rows();
  const std::vector<reptile::HierarchySchema> hierarchies = Hierarchies(base);
  const reptile::CsvSpec csv_spec = CsvSpecFor(base);
  const std::string csv = reptile::RenderTableCsv(base.table());
  const DrillPlan& plan = shape.plan;
  const int clients = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // The live dataset whose version chain the appends extend.
  reptile::DatasetRegistry registry;
  const std::string live_name = shape.name;
  reptile::DatasetHandle head;
  std::vector<double> setup_s;
  if (Ingest(registry, live_name, csv, csv_spec, hierarchies, rows, tracer, checks, &head) < 0) {
    return;
  }

  // Warm-up (untimed): one cold session; its answers are the reference.
  std::vector<std::string> reference;
  {
    reptile::DatasetHandle fresh = PrepareCopy(base, &checks);
    if (fresh == nullptr) return;
    SessionResult cold = RunDrillSession(fresh, plan, nullptr, "session.warmup");
    if (!checks.Expect(cold.ok, "warm-up session: " + cold.error)) return;
    reference = cold.answers;
  }
  const std::string root_reference = reference.front().substr(0, reference.front().find('\n'));

  const int rounds = std::max(3, static_cast<int>(std::lround(args.seconds /
                                                              shape.nominal_round_seconds)));
  std::vector<double> cold_s, warm_s, recommend_ms, view_ms, append_ms, capacity;
  std::vector<std::string> recommend_op;  // which operation each recommend sample is
  std::vector<double> publish_ms, append_only_ms, post_append_ms;
  std::vector<SessionResult> cold_results, warm_results;  // for the traced run
  int64_t invalidated = 0, shared = 0;
  double cold_cpu = 0.0, cold_wall = 0.0;
  int64_t cold_invol = 0;
  std::string concatenated = csv;
  reptile::DatasetHandle warm_dataset;
  // One setup_s sample: an ingest of the same text, dropped right after. A
  // single-threaded ingest runs up to 1.7x slower while the host loads the
  // core it runs on, for seconds at a time, so each round takes three,
  // spread over the round.
  int ingests = 0;
  auto setup_sample = [&] {
    reptile::DatasetHandle scratch;
    const std::string name = live_name + "-" + std::to_string(++ingests);
    const double seconds =
        Ingest(registry, name, csv, csv_spec, hierarchies, rows, tracer, checks, &scratch);
    if (seconds >= 0) setup_s.push_back(seconds);
    registry.Remove(name);
  };
  for (int round = 0; round < rounds; ++round) {
    setup_sample();

    // Cold session on a freshly prepared dataset, then a warm replay.
    reptile::DatasetHandle fresh = PrepareCopy(base, &checks);
    if (fresh == nullptr) continue;
    const Usage before = Usage::Now();
    SessionResult cold = RunDrillSession(fresh, plan, tracer, "session.cold");
    const Usage after = Usage::Now();
    cold_cpu += after.cpu_seconds - before.cpu_seconds;
    cold_wall += std::chrono::duration<double>(after.wall - before.wall).count();
    cold_invol += after.involuntary_switches - before.involuntary_switches;
    if (checks.Expect(cold.ok, "cold session: " + cold.error)) {
      checks.Expect(cold.models_trained > 0 && cold.aggregate_builds > 0,
                    "cold session trains models and builds aggregates");
      checks.Expect(cold.answers == reference, "cold answers equal the reference");
      cold_s.push_back(cold.seconds);
      AddRecommends(cold, "cold", &recommend_ms, &recommend_op);
      view_ms.push_back(Mean(cold.view_ms));
    }
    SessionResult warm = RunDrillSession(fresh, plan, tracer, "session.warm");
    if (checks.Expect(warm.ok, "warm session: " + warm.error)) {
      checks.Expect(warm.models_trained == 0 && warm.aggregate_builds == 0 &&
                        warm.fit_cache_hits > 0,
                    "warm session: zero fits, zero builds, fit-cache hits");
      checks.Expect(warm.answers == cold.answers, "warm answers equal cold answers");
      warm_s.push_back(warm.seconds);
      AddRecommends(warm, "warm", &recommend_ms, &recommend_op);
      view_ms.push_back(Mean(warm.view_ms));
    }
    if (tracer != nullptr && cold.ok && warm.ok) {
      cold_results.push_back(std::move(cold));
      warm_results.push_back(std::move(warm));
    }
    warm_dataset = fresh;

    setup_sample();

    // Capacity sample: closed-loop warm recommends, nproc clients.
    capacity.push_back(CapacityBurst(fresh, plan, clients, shape.capacity_requests,
                                     root_reference, checks));

    // A small append to the live chain, then the first recommend on the
    // new head.
    const std::string delta = DeltaRows(base.table(), shape.new_value_column, args.seed, round);
    const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point built;
    reptile::Result<reptile::AppendResult> appended = reptile::Status::Internal("not run");
    reptile::Result<int64_t> published = reptile::Status::Internal("not run");
    {
      SpanScope append_root(tracer, "version.append_publish", op);
      appended = [&] {
        SpanScope span(tracer, "version.append", op, append_root.index());
        return reptile::AppendRowsCsv(head, Header(csv) + delta, "bench delta");
      }();
      built = Clock::now();
      if (appended.ok()) {
        SpanScope span(tracer, "version.publish", op, append_root.index());
        published =
            registry.AppendVersion(live_name, appended->child, appended->invalidated_entries);
      }
    }
    const Clock::time_point done = Clock::now();
    if (!checks.Expect(appended.ok(), "append rows") ||
        !checks.Expect(published.ok(), "publish version")) {
      continue;
    }
    append_ms.push_back(std::chrono::duration<double, std::milli>(done - start).count());
    append_only_ms.push_back(std::chrono::duration<double, std::milli>(built - start).count());
    publish_ms.push_back(std::chrono::duration<double, std::milli>(done - built).count());
    invalidated = appended->invalidated_entries;
    shared = appended->shared_entries;
    head = appended->child;
    concatenated += delta;

    double post_ms = 0.0;
    const std::string answer = [&] {
      SpanScope span(tracer, "version.post_append_recommend", op);
      return RootAnswer(head, plan, &post_ms);
    }();
    recommend_ms.push_back(post_ms);
    recommend_op.push_back("post-append");
    post_append_ms.push_back(post_ms);
    // Untimed check: a cold prepare of the concatenated CSV answers the same.
    reptile::Result<reptile::Dataset> rebuilt = DatasetFromCsv(concatenated, csv_spec, hierarchies);
    if (checks.Expect(rebuilt.ok(), "rebuild concatenated csv")) {
      reptile::Result<reptile::DatasetHandle> cold_head =
          reptile::PreparedDataset::Prepare(std::move(rebuilt).value());
      checks.Expect(cold_head.ok() && RootAnswer(*cold_head, plan, nullptr) == answer,
                    "post-append recommend equals a cold prepare of the concatenated CSV");
    }
    setup_sample();
  }
  if (warm_dataset == nullptr) return;

  const double sessions = std::max<size_t>(1, cold_s.size());
  if (tracer == nullptr) {
    double percentile = 0.0;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("drill_session_s", Median(cold_s), "s");
    m.Set("warm_session_s", Median(warm_s), "s");
    m.Set("recommend_p50_ms", Median(recommend_ms), "ms");
    m.Set("recommend_tail_ms", Tail(recommend_ms, kTailBeyond, &percentile), "ms");
    m.Set("view_p50_ms", Median(view_ms), "ms");
    m.Set("append_p50_ms", Median(append_ms), "ms");
    m.Set("capacity_rps", Median(capacity), "1/s");
    std::fprintf(stderr, "%s: %d rounds, %zu setup samples, %zu recommend samples, tail = p%.1f\n",
                 shape.name, rounds, setup_s.size(), recommend_ms.size(), percentile * 100.0);
    DescribeTail(recommend_ms, recommend_op);
    return;
  }

  // ---- traced run: per-layer metrics ---------------------------------------
  SetSessionLayerMetrics(cold_results, warm_results, warm_dataset, &m);
  m.Set("version.append_ms", Median(append_only_ms), "ms");
  m.Set("version.publish_ms", Median(publish_ms), "ms");
  m.Set("version.invalidated_entries", static_cast<double>(invalidated), "count");
  m.Set("version.shared_entries", static_cast<double>(shared), "count");
  m.Set("version.post_append_recommend_ms", Median(post_append_ms), "ms");
  m.Set("proc.cpu_s", cold_cpu / sessions, "s");
  m.Set("proc.cpu_per_wall", cold_wall > 0 ? cold_cpu / cold_wall : 0.0, "ratio");
  m.Set("proc.invol_ctx_switches", cold_invol / sessions, "count");

  // Tracing overhead: warm sessions alternately untraced and traced.
  std::vector<double> plain, traced;
  for (int i = 0; i < 3; ++i) {
    plain.push_back(RunDrillSession(warm_dataset, plan, nullptr, "session.warm").seconds);
    traced.push_back(RunDrillSession(warm_dataset, plan, tracer, "session.warm").seconds);
  }
  m.Set("obs.trace_overhead_pct", (Median(traced) / Median(plain) - 1.0) * 100.0, "%");

  ProbeInput probe;
  probe.dataset = warm_dataset;
  probe.name = shape.name;
  probe.csv = csv;
  probe.csv_spec = csv_spec;
  probe.plan = plan;
  ProbeLayers(probe, tracer, out);
}

}  // namespace

void RunAbsenteeDrill(const Args& args, Tracer* tracer, Outcome* out) {
  RunDrill(AbsenteeShape(), args, tracer, out);
}

void RunCompasDrill(const Args& args, Tracer* tracer, Outcome* out) {
  RunDrill(CompasShape(), args, tracer, out);
}

}  // namespace perfbench
