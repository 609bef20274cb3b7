#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/json_util.h"
#include "data/group_by.h"
#include "net/reactor_server.h"
#include "obs/trace.h"
#include "server/http_client.h"
#include "server/service.h"

namespace perfbench {
namespace {

constexpr int kProbeReps = 5;  // samples per probe; the net probe takes twice as many

double MsSince(Clock::time_point since) { return SecondsSince(since) * 1000.0; }

std::string WhereJson(const std::vector<reptile::NamedPredicate>& where) {
  std::string out = "[";
  for (size_t i = 0; i < where.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"column\":" + reptile::JsonQuote(where[i].column) +
           ",\"value\":" + reptile::JsonQuote(where[i].value) + "}";
  }
  return out + "]";
}

// A ComplaintSpec in the wire's JSON spelling.
std::string ComplaintJson(const reptile::ComplaintSpec& complaint) {
  std::string out = "{\"aggregate\":" + reptile::JsonQuote(complaint.aggregate);
  if (!complaint.measure.empty()) out += ",\"measure\":" + reptile::JsonQuote(complaint.measure);
  out += ",\"direction\":" + reptile::JsonQuote(complaint.direction);
  if (!complaint.where.empty()) out += ",\"where\":" + WhereJson(complaint.where);
  return out + "}";
}

}  // namespace

std::string ZeroTimedJson(reptile::ExploreResponse response) {
  for (reptile::HierarchyResponse& candidate : response.candidates) {
    candidate.train_seconds = 0.0;
    candidate.total_seconds = 0.0;
  }
  return response.ToJson();
}

reptile::CsvSpec CsvSpecFor(const reptile::Dataset& dataset) {
  reptile::CsvSpec spec;
  const reptile::Table& table = dataset.table();
  for (int c = 0; c < table.num_columns(); ++c) {
    (table.is_dimension(c) ? spec.dimension_columns : spec.measure_columns)
        .push_back(table.column_name(c));
  }
  return spec;
}

reptile::Result<reptile::Dataset> DatasetFromCsv(
    const std::string& csv, const reptile::CsvSpec& spec,
    const std::vector<reptile::HierarchySchema>& hierarchies) {
  reptile::Result<reptile::Table> table = reptile::LoadCsvText(csv, spec);
  if (!table.ok()) return table.status();
  return reptile::Dataset::Make(std::move(table).value(), hierarchies);
}

SessionResult RunDrillSession(const reptile::DatasetHandle& dataset, const DrillPlan& plan,
                              Tracer* tracer, const char* label) {
  SessionResult result;
  const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
  const Clock::time_point start = Clock::now();
  SpanScope root(tracer, label, op);

  reptile::Result<reptile::Session> opened = [&] {
    SpanScope span(tracer, "api.session_open", op, root.index());
    return reptile::Session::Open(dataset);
  }();
  if (!opened.ok()) {
    result.ok = false;
    result.error = "open: " + opened.status().ToString();
    return result;
  }
  reptile::Session session = std::move(opened).value();

  for (size_t step = 0; step < plan.steps.size(); ++step) {
    // Recommend, with the engine's stage spans when traced.
    std::unique_ptr<reptile::TraceContext> trace;
    Clock::time_point trace_epoch;
    if (tracer != nullptr) {
      trace_epoch = Clock::now();
      trace = std::make_unique<reptile::TraceContext>("op" + std::to_string(op));
    }
    reptile::BatchOptions options;
    options.WithTrace(trace.get());
    const Clock::time_point rec_start = Clock::now();
    int rec_span = -1;
    if (tracer != nullptr) rec_span = tracer->Begin("api.recommend", op, root.index());
    reptile::Result<reptile::ExploreResponse> rec = session.Recommend(plan.complaint, options);
    result.recommend_ms.push_back(MsSince(rec_start));
    if (tracer != nullptr) {
      tracer->End(rec_span);
      tracer->ImportEngineSpans(*trace, trace_epoch, op, rec_span);
      for (const reptile::TraceSpan& span : trace->Spans()) {
        if (span.name == "plan") result.plan_seconds += span.duration_seconds;
        if (span.name == "fit") result.fit_seconds += span.duration_seconds;
        if (span.name == "rank") result.rank_seconds += span.duration_seconds;
      }
    }
    if (!rec.ok()) {
      result.ok = false;
      result.error = "recommend step " + std::to_string(step) + ": " + rec.status().ToString();
      return result;
    }
    for (const reptile::HierarchyResponse& candidate : rec->candidates) {
      result.train_seconds += candidate.train_seconds;
    }
    result.em_iterations += rec->model.em_iterations_run;
    std::string answer = ZeroTimedJson(std::move(rec).value());

    reptile::ViewRequest view;
    view.group_by = plan.step_views[step];
    view.measure = plan.measure;
    const Clock::time_point view_start = Clock::now();
    reptile::Result<reptile::ViewResponse> viewed = [&] {
      SpanScope span(tracer, "core.view", op, root.index());
      return session.View(view);
    }();
    result.view_ms.push_back(MsSince(view_start));
    if (!viewed.ok()) {
      result.ok = false;
      result.error = "view step " + std::to_string(step) + ": " + viewed.status().ToString();
      return result;
    }
    answer += "\n" + viewed->ToJson();
    result.answers.push_back(std::move(answer));

    reptile::Status committed = [&] {
      SpanScope span(tracer, "api.commit", op, root.index());
      return session.Commit(plan.steps[step]);
    }();
    if (!committed.ok()) {
      result.ok = false;
      result.error = "commit step " + std::to_string(step) + ": " + committed.ToString();
      return result;
    }
  }
  result.seconds = SecondsSince(start);
  result.models_trained = session.models_trained();
  result.fit_cache_hits = session.fit_cache_hits();
  result.aggregate_builds = session.aggregate_builds();
  return result;
}

void SetSessionLayerMetrics(const std::vector<SessionResult>& cold,
                            const std::vector<SessionResult>& warm,
                            const reptile::DatasetHandle& dataset, Metrics* m) {
  auto mean = [](const std::vector<SessionResult>& sessions, auto field) {
    double total = 0.0;
    for (const SessionResult& session : sessions) total += static_cast<double>(field(session));
    return sessions.empty() ? 0.0 : total / static_cast<double>(sessions.size());
  };
  m->Set("core.plan_ms_cold", 1000.0 * mean(cold, [](auto& s) { return s.plan_seconds; }), "ms");
  m->Set("core.fit_ms_cold", 1000.0 * mean(cold, [](auto& s) { return s.fit_seconds; }), "ms");
  m->Set("core.fit_ms_warm", 1000.0 * mean(warm, [](auto& s) { return s.fit_seconds; }), "ms");
  m->Set("core.rank_ms_warm", 1000.0 * mean(warm, [](auto& s) { return s.rank_seconds; }), "ms");
  m->Set("factor.agg_builds_cold", mean(cold, [](auto& s) { return s.aggregate_builds; }),
         "count");
  m->Set("factor.agg_builds_warm", mean(warm, [](auto& s) { return s.aggregate_builds; }),
         "count");
  const double agg_lookups = static_cast<double>(dataset->cache_hits() + dataset->cache_misses());
  m->Set("factor.agg_cache_hit_ratio",
         agg_lookups > 0 ? dataset->cache_hits() / agg_lookups : 0.0, "ratio");
  m->Set("factor.agg_cache_bytes", static_cast<double>(dataset->cache_bytes()), "bytes");
  m->Set("model.fits_cold", mean(cold, [](auto& s) { return s.models_trained; }), "count");
  m->Set("model.fits_warm", mean(warm, [](auto& s) { return s.models_trained; }), "count");
  const double model_lookups =
      static_cast<double>(dataset->model_cache_hits() + dataset->model_cache_misses());
  m->Set("model.fit_cache_hit_ratio",
         model_lookups > 0 ? dataset->model_cache_hits() / model_lookups : 0.0, "ratio");
  m->Set("model.train_s", mean(cold, [](auto& s) { return s.train_seconds; }), "s");
  m->Set("model.em_iterations", mean(cold, [](auto& s) { return s.em_iterations; }), "count");
}

void ProbeLayers(const ProbeInput& input, Tracer* tracer, Outcome* out) {
  Metrics& m = out->metrics;
  Checks& checks = out->checks;
  const reptile::Table& table = input.dataset->table();
  const double rows = static_cast<double>(table.num_rows());
  const int reps = kProbeReps;

  // ---- data/: CSV parse and standalone GroupBy ----------------------------
  {
    std::vector<double> parse_ns;
    for (int r = 0; r < reps; ++r) {
      const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
      SpanScope span(tracer, "data.csv_parse", op);
      const Clock::time_point start = Clock::now();
      reptile::Result<reptile::Table> parsed = reptile::LoadCsvText(input.csv, input.csv_spec);
      parse_ns.push_back(SecondsSince(start) * 1e9 / rows);
      checks.Expect(parsed.ok() && parsed->num_rows() == table.num_rows(),
                    "probe csv parse row count");
    }
    m.Set("data.csv_parse_ns_per_row", Median(parse_ns), "ns");

    const reptile::Dataset& data = input.dataset->data();
    const int measure = table.ColumnIndex(input.plan.measure);
    std::vector<int> one_key = {table.ColumnIndex(input.plan.step_views.front().front())};
    std::vector<int> all_keys;
    for (int h = 0; h < data.num_hierarchies(); ++h) {
      for (const std::string& attribute : data.hierarchy(h).attributes) {
        all_keys.push_back(table.ColumnIndex(attribute));
      }
    }
    std::vector<double> one_ns, all_ns;
    size_t groups = 0;
    for (int r = 0; r < reps; ++r) {
      const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
      Clock::time_point start = Clock::now();
      {
        SpanScope span(tracer, "data.groupby_1key", op);
        reptile::GroupByResult result = reptile::GroupBy(table, one_key, measure);
        checks.Expect(result.num_groups() > 0, "probe groupby 1 key");
      }
      one_ns.push_back(SecondsSince(start) * 1e9 / rows);
      start = Clock::now();
      {
        SpanScope span(tracer, "data.groupby_allkeys", op);
        reptile::GroupByResult result = reptile::GroupBy(table, all_keys, measure);
        groups = result.num_groups();
      }
      all_ns.push_back(SecondsSince(start) * 1e9 / rows);
    }
    m.Set("data.groupby_1key_ns_per_row", Median(one_ns), "ns");
    m.Set("data.groupby_allkeys_ns_per_row", Median(all_ns), "ns");
    m.Set("data.groupby_groups", static_cast<double>(groups), "count");
  }

  // ---- api/ and core/: the same requests issued straight to Session --------
  reptile::ExploreResponse direct_answer;
  std::vector<double> api_recommend_ms;
  {
    std::vector<double> open_ms, commit_ms, view_ms;
    reptile::ViewRequest view;
    view.group_by = input.plan.step_views.front();
    view.measure = input.plan.measure;
    for (int r = 0; r < reps; ++r) {
      const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
      Clock::time_point start = Clock::now();
      reptile::Result<reptile::Session> session = [&] {
        SpanScope span(tracer, "api.session_open", op);
        return reptile::Session::Open(input.dataset);
      }();
      open_ms.push_back(MsSince(start));
      if (!checks.Expect(session.ok(), "probe session open")) continue;
      start = Clock::now();
      reptile::Result<reptile::ExploreResponse> rec = [&] {
        SpanScope span(tracer, "api.recommend", op);
        return session->Recommend(input.plan.complaint);
      }();
      api_recommend_ms.push_back(MsSince(start));
      if (checks.Expect(rec.ok(), "probe recommend")) direct_answer = *rec;
      start = Clock::now();
      reptile::Result<reptile::ViewResponse> viewed = [&] {
        SpanScope span(tracer, "core.view", op);
        return session->View(view);
      }();
      view_ms.push_back(MsSince(start));
      checks.Expect(viewed.ok(), "probe view");
      start = Clock::now();
      reptile::Status committed = [&] {
        SpanScope span(tracer, "api.commit", op);
        return session->Commit(input.plan.steps.front());
      }();
      commit_ms.push_back(MsSince(start));
      checks.Expect(committed.ok(), "probe commit");
    }
    m.Set("api.session_open_ms", Median(open_ms), "ms");
    m.Set("api.recommend_ms", Median(api_recommend_ms), "ms");
    m.Set("api.commit_ms", Median(commit_ms), "ms");
    m.Set("core.view_ms", Median(view_ms), "ms");
  }
  const std::string golden = ZeroTimedJson(direct_answer);

  // ---- server/: the same request through ReptileService::Handle ------------
  reptile::ReptileService service;
  checks.Expect(service.AddPreparedDataset(input.name, input.dataset).ok(),
                "probe service dataset");
  reptile::HttpRequest request;
  request.method = "POST";
  request.target = request.path = "/v1/recommend";
  request.http_version = "HTTP/1.1";
  request.body = "{\"dataset\":" + reptile::JsonQuote(input.name) +
                 ",\"complaint\":" + ComplaintJson(input.plan.complaint) +
                 ",\"options\":{\"zero_timings\":true}}";
  std::vector<double> handle_ms;
  for (int r = 0; r < reps; ++r) {
    const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
    const Clock::time_point start = Clock::now();
    reptile::HttpResponse response = [&] {
      SpanScope span(tracer, "server.handle", op);
      return service.Handle(request);
    }();
    handle_ms.push_back(MsSince(start));
    checks.Expect(response.status == 200 && response.body == golden,
                  "probe handle answer equals direct Session answer");
  }
  const double handle = Median(handle_ms);
  m.Set("server.handle_ms", handle, "ms");
  m.Set("server.wire_ms", handle - Median(api_recommend_ms), "ms");

  // ---- net/: keep-alive round trips through the reactor front end ---------
  // Sent on a fixed schedule, one client, period twice the in-process
  // handle time, so the probe never queues behind itself; the lateness of
  // each send against its slot is the generator's dispatch lag.
  reptile::ReactorServer server(
      reptile::ReactorServerOptions{},
      [&service](const reptile::HttpRequest& req) { return service.Handle(req); });
  if (!checks.Expect(server.Start().ok(), "probe reactor start")) return;
  {
    reptile::HttpClient client("127.0.0.1", server.port());
    client.SetTimeoutMs(60000);
    std::vector<double> roundtrip_ms, lag_ms;
    int64_t mismatches = 0;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(2.0 * handle + 0.2));
    const Clock::time_point begin = Clock::now() + period;
    for (int r = 0; r < 2 * reps; ++r) {
      const Clock::time_point slot = begin + r * period;
      std::this_thread::sleep_until(slot);
      const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
      const Clock::time_point start = Clock::now();
      lag_ms.push_back(std::chrono::duration<double, std::milli>(start - slot).count());
      reptile::Result<reptile::HttpClientResponse> response = [&] {
        SpanScope span(tracer, "net.roundtrip", op);
        return client.Post("/v1/recommend", request.body);
      }();
      roundtrip_ms.push_back(MsSince(start));
      const bool ok = response.ok() && response->status == 200 && response->body == golden;
      if (!ok) ++mismatches;
      checks.Expect(ok, "probe round trip answer equals direct Session answer");
    }
    const double roundtrip = Median(roundtrip_ms);
    m.Set("net.roundtrip_ms", roundtrip, "ms");
    m.Set("net.transport_ms", roundtrip - handle, "ms");
    double percentile = 0.0;
    m.Set("sim.dispatch_lag_p90_ms", Tail(lag_ms, lag_ms.size() / 10, &percentile), "ms");
    m.Set("sim.mismatches", static_cast<double>(mismatches), "count");
  }
  server.Stop();
  m.Set("net.dispatched", static_cast<double>(server.requests_dispatched()), "count");
  m.Set("net.rate_limited", static_cast<double>(server.requests_rate_limited()), "count");
  m.Set("net.shed", static_cast<double>(server.requests_shed()), "count");
  checks.Expect(server.requests_rate_limited() == 0 && server.requests_shed() == 0,
                "probe: no 429 or 503 at shipping defaults");
}

}  // namespace perfbench
