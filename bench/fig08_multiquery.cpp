// Figure 8: multi-query execution through the public Session facade —
// Reptile's batched RecommendAll, which plans every complaint over one pass
// of the drill-down caches and trains each shared (hierarchy, primitive)
// model once, vs issuing the same complaints as N independent Recommend
// calls (the LMFAO-style contrast of paper Section 5.1.2: batching many
// aggregate queries behind one planning API).
//
// Setup: a district x village x year severity panel; the batch files one
// STD complaint per year (all sharing the "drill geo to villages" hierarchy
// extension). x-axis: batch size. Expected shape: batched wall-clock stays
// near-flat in the model-training term (3 primitive models total) while
// sequential grows linearly (3 models per complaint); the models_trained
// counters report exactly that sharing.
//
// Every timed iteration opens a fresh session over a freshly prepared
// dataset (setup untimed), so no iteration inherits aggregates or fitted
// models from an earlier one. Calls run with the process-shared fit cache
// off: the sequential arm then really is N independent queries, and the
// only sharing measured is the batch's own.
//
// Both arms fan their work out on the process-wide shared pool. Before the
// benchmarks run, the batched answer at the maximum batch size is verified
// byte-identical to the N sequential answers.
//
// The process exits non-zero unless every batched run fitted exactly 3
// models and every sequential run of N complaints fitted 3N.
//
// Exercises only the public api/ surface (no core/engine.h include);
// common/env.h is shared benchmark-harness plumbing, not engine internals.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/env.h"
#include "datagen/panel_gen.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

constexpr int kYears = 16;
// An STD complaint decomposes into three primitives (COUNT, MEAN, STD), each
// with its own model over the shared geo extension.
constexpr int64_t kFitsPerBatch = 3;

const Dataset& Panel() {
  static const Dataset& panel = *new Dataset([] {
    PanelSpec spec;
    spec.districts = 12;
    spec.villages_per_district = 8;
    spec.years = kYears;
    spec.rows_per_group = 6;
    return MakeSeverityPanel(spec);
  }());
  return panel;
}

// A session over its own freshly prepared copy of the panel: empty aggregate
// and fitted-model caches. Drill state: years committed, geo drillable
// (every complaint shares the geo extension).
Session FreshSession() {
  Result<DatasetHandle> prepared = PreparedDataset::Prepare(Panel());
  Result<Session> session =
      prepared.ok() ? Session::Open(std::move(prepared).value()) : prepared.status();
  Status committed = session.ok() ? session->Commit("time") : session.status();
  if (!committed.ok()) {
    std::fprintf(stderr, "session setup failed: %s\n", committed.ToString().c_str());
    std::abort();
  }
  return std::move(session).value();
}

BatchOptions CallOptions() { return BatchOptions().Model(ModelSpec().FitCache(false)); }

std::vector<ComplaintSpec> MakeComplaints(int64_t n) {
  std::vector<ComplaintSpec> complaints;
  complaints.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    complaints.push_back(ComplaintSpec::TooHigh("std", "severity")
                             .Where("year", "y" + std::to_string(i % kYears)));
  }
  return complaints;
}

// Fit-count gate: every run whose models_trained differs from what Fig 8
// predicts is recorded here and fails the process after the benchmarks.
std::vector<std::string>& FitViolations() {
  static std::vector<std::string> violations;
  return violations;
}
int64_t g_fit_checks = 0;

void CheckFits(const std::string& label, int64_t got, int64_t want) {
  ++g_fit_checks;
  if (got != want && FitViolations().size() < 20) {
    FitViolations().push_back(label + ": models_trained=" + std::to_string(got) +
                              ", expected " + std::to_string(want));
  }
}

// Serialisation of one response with the (legitimately scheduling-
// dependent) timing fields zeroed, so results can be compared byte-for-byte.
std::string TimelessJson(ExploreResponse response) {
  for (HierarchyResponse& candidate : response.candidates) {
    candidate.train_seconds = 0.0;
    candidate.total_seconds = 0.0;
  }
  return response.ToJson();
}

[[noreturn]] void VerifyFailed(const std::string& what) {
  std::fprintf(stderr, "fig08 verify failed: %s\n", what.c_str());
  std::abort();
}

// Aborts unless the batched answer equals the N sequential answers, response
// for response (the Section 5.1.2 requirement: batching shares work, never
// changes the answer).
void VerifyBatchedEqualsSequential(int64_t batch_size) {
  std::vector<ComplaintSpec> complaints = MakeComplaints(batch_size);
  Session batched = FreshSession();
  Result<BatchExploreResponse> batch =
      batched.RecommendAll(std::span<const ComplaintSpec>(complaints), CallOptions());
  if (!batch.ok()) VerifyFailed(batch.status().ToString());
  Session sequential = FreshSession();
  for (size_t i = 0; i < complaints.size(); ++i) {
    Result<ExploreResponse> single = sequential.Recommend(complaints[i], CallOptions());
    if (!single.ok()) VerifyFailed(single.status().ToString());
    if (TimelessJson(batch->responses[i]) != TimelessJson(*single)) {
      VerifyFailed("batched response " + std::to_string(i) + " differs from sequential");
    }
  }
  std::fprintf(stderr, "fig08 verify: batch of %lld equals %lld sequential answers\n",
               static_cast<long long>(batch_size), static_cast<long long>(batch_size));
}

void BM_MultiQuery_Batched(benchmark::State& state) {
  std::vector<ComplaintSpec> complaints = MakeComplaints(state.range(0));
  const std::string label = "Batched/" + std::to_string(state.range(0));
  std::optional<Session> session;
  int64_t models = 0;
  for (auto _ : state) {
    state.PauseTiming();
    session.reset();  // the previous iteration's teardown stays untimed too
    session.emplace(FreshSession());
    state.ResumeTiming();
    Result<BatchExploreResponse> batch =
        session->RecommendAll(std::span<const ComplaintSpec>(complaints), CallOptions());
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    models = batch->models_trained;
    CheckFits(label, models, kFitsPerBatch);
    benchmark::DoNotOptimize(batch);
  }
  state.counters["models_trained"] = static_cast<double>(models);
}

void BM_MultiQuery_Sequential(benchmark::State& state) {
  std::vector<ComplaintSpec> complaints = MakeComplaints(state.range(0));
  const std::string label = "Sequential/" + std::to_string(state.range(0));
  std::optional<Session> session;
  int64_t models = 0;
  for (auto _ : state) {
    state.PauseTiming();
    session.reset();  // the previous iteration's teardown stays untimed too
    session.emplace(FreshSession());
    state.ResumeTiming();
    for (const ComplaintSpec& complaint : complaints) {
      Result<ExploreResponse> response = session->Recommend(complaint, CallOptions());
      if (!response.ok()) {
        state.SkipWithError(response.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(response);
    }
    models = session->models_trained();
    CheckFits(label, models, kFitsPerBatch * state.range(0));
  }
  state.counters["models_trained"] = static_cast<double>(models);
}

void RegisterAll() {
  int64_t max_batch = EnvInt("REPTILE_FIG8_MAX_BATCH", 16);
  if (max_batch <= 0) max_batch = 16;
  VerifyBatchedEqualsSequential(max_batch);
  for (auto fn : {std::make_pair("Fig8/MultiQuery/Batched", BM_MultiQuery_Batched),
                  std::make_pair("Fig8/MultiQuery/Sequential", BM_MultiQuery_Sequential)}) {
    auto* bench = benchmark::RegisterBenchmark(fn.first, fn.second)
                      ->Unit(benchmark::kMillisecond)
                      ->MinTime(0.05);
    for (int64_t n = 1; n <= max_batch; n *= 2) bench->Arg(n);
  }
}

}  // namespace
}  // namespace reptile

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  reptile::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  for (const std::string& violation : reptile::FitViolations()) {
    std::fprintf(stderr, "fig08 FAIL: %s\n", violation.c_str());
  }
  if (reptile::g_fit_checks == 0) {
    std::fprintf(stderr, "fig08 FAIL: no benchmark iteration ran, fit counts unchecked\n");
    return 1;
  }
  if (!reptile::FitViolations().empty()) return 1;
  std::fprintf(stderr,
               "fig08 fits: batched runs %lld per batch, sequential %lld per "
               "complaint (%lld runs checked)\n",
               static_cast<long long>(reptile::kFitsPerBatch),
               static_cast<long long>(reptile::kFitsPerBatch),
               static_cast<long long>(reptile::g_fit_checks));
  return 0;
}
