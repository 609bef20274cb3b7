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
// The Parallel sweep fixes the batch at the maximum size and sweeps the
// per-call worker count over {1, 2, 4, 8} (REPTILE_FIG8_MAX_THREADS caps
// it): model fits and per-complaint rankings fan out, so wall time drops
// while models_trained (fits per batch) stays constant. Recommendations are
// verified byte-identical across thread counts before the benchmarks run.
//
// The process exits non-zero unless every batched and parallel run fitted
// exactly 3 models and every sequential run of N complaints fitted 3N.
//
// Exercises only the public api/ surface (no core/engine.h include);
// common/env.h is shared benchmark-harness plumbing, not engine internals.

#include <cstdio>
#include <cstdlib>
#include <map>
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

BatchOptions CallOptions(int threads) {
  return BatchOptions().Threads(threads).Model(ModelSpec().FitCache(false));
}

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

// Serialisation of a batch with the (legitimately scheduling-dependent)
// timing fields zeroed, so results can be compared byte-for-byte.
std::string TimelessJson(BatchExploreResponse batch) {
  batch.train_seconds = 0.0;
  batch.wall_seconds = 0.0;
  for (ExploreResponse& response : batch.responses) {
    for (HierarchyResponse& candidate : response.candidates) {
      candidate.train_seconds = 0.0;
      candidate.total_seconds = 0.0;
    }
  }
  return batch.ToJson();
}

// Aborts unless the batch produces byte-identical recommendations at every
// swept thread count (the Section 5.1.2 requirement: parallelism changes the
// schedule, never the answer).
void VerifyIdenticalAcrossThreads(int64_t batch_size, int max_threads) {
  std::vector<ComplaintSpec> complaints = MakeComplaints(batch_size);
  std::string expected;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    Session session = FreshSession();
    Result<BatchExploreResponse> batch = session.RecommendAll(
        std::span<const ComplaintSpec>(complaints), CallOptions(threads));
    if (!batch.ok()) {
      std::fprintf(stderr, "verify failed at %d threads: %s\n", threads,
                   batch.status().ToString().c_str());
      std::abort();
    }
    if (threads == 1) {
      expected = TimelessJson(*batch);
    } else if (TimelessJson(*batch) != expected) {
      std::fprintf(stderr,
                   "verify failed: recommendations at %d threads differ from sequential\n",
                   threads);
      std::abort();
    }
  }
  std::fprintf(stderr, "fig08 verify: batch of %lld byte-identical at 1..%d threads\n",
               static_cast<long long>(batch_size), max_threads);
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
        session->RecommendAll(std::span<const ComplaintSpec>(complaints), CallOptions(1));
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
      Result<ExploreResponse> response = session->Recommend(complaint, CallOptions(1));
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

// Fixed batch, swept per-call worker count: the tentpole measurement. The
// "speedup" counter is this run's wall time relative to the 1-thread run of
// the same batch size (measured once up front, outside the timed loop).
double SequentialBaselineSeconds(int64_t batch_size) {
  std::vector<ComplaintSpec> complaints = MakeComplaints(batch_size);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Session session = FreshSession();
    Result<BatchExploreResponse> batch =
        session.RecommendAll(std::span<const ComplaintSpec>(complaints), CallOptions(1));
    if (!batch.ok()) return 0.0;
    if (best == 0.0 || batch->wall_seconds < best) best = batch->wall_seconds;
  }
  return best;
}

void BM_MultiQuery_Parallel(benchmark::State& state) {
  static std::map<int64_t, double> baseline;  // batch size -> 1-thread seconds
  int64_t batch_size = state.range(0);
  int threads = static_cast<int>(state.range(1));
  if (baseline.find(batch_size) == baseline.end()) {
    baseline[batch_size] = SequentialBaselineSeconds(batch_size);
  }
  std::vector<ComplaintSpec> complaints = MakeComplaints(batch_size);
  const std::string label =
      "Parallel/" + std::to_string(batch_size) + "/" + std::to_string(threads);
  std::optional<Session> session;
  int64_t models = 0;
  double wall = 0.0;
  int64_t iters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    session.reset();  // the previous iteration's teardown stays untimed too
    session.emplace(FreshSession());
    state.ResumeTiming();
    Result<BatchExploreResponse> batch = session->RecommendAll(
        std::span<const ComplaintSpec>(complaints), CallOptions(threads));
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    models = batch->models_trained;
    CheckFits(label, models, kFitsPerBatch);
    wall += batch->wall_seconds;
    ++iters;
    benchmark::DoNotOptimize(batch);
  }
  state.counters["threads"] = threads;
  state.counters["models_trained"] = static_cast<double>(models);  // fits per batch
  if (iters > 0 && wall > 0.0 && baseline[batch_size] > 0.0) {
    state.counters["speedup"] =
        baseline[batch_size] / (wall / static_cast<double>(iters));
  }
}

void RegisterAll() {
  int64_t max_batch = EnvInt("REPTILE_FIG8_MAX_BATCH", 16);
  if (max_batch <= 0) max_batch = 16;
  int64_t max_threads = EnvInt("REPTILE_FIG8_MAX_THREADS", 8);
  if (max_threads <= 0) max_threads = 8;
  VerifyIdenticalAcrossThreads(max_batch, static_cast<int>(max_threads));
  for (auto fn : {std::make_pair("Fig8/MultiQuery/Batched", BM_MultiQuery_Batched),
                  std::make_pair("Fig8/MultiQuery/Sequential", BM_MultiQuery_Sequential)}) {
    auto* bench = benchmark::RegisterBenchmark(fn.first, fn.second)
                      ->Unit(benchmark::kMillisecond)
                      ->MinTime(0.05);
    for (int64_t n = 1; n <= max_batch; n *= 2) bench->Arg(n);
  }
  auto* parallel = benchmark::RegisterBenchmark("Fig8/MultiQuery/Parallel", BM_MultiQuery_Parallel)
                       ->Unit(benchmark::kMillisecond)
                       ->MinTime(0.05);
  for (int64_t t = 1; t <= max_threads; t *= 2) parallel->Args({max_batch, t});
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
               "fig08 fits: batched and parallel runs %lld per batch, sequential %lld per "
               "complaint (%lld runs checked)\n",
               static_cast<long long>(reptile::kFitsPerBatch),
               static_cast<long long>(reptile::kFitsPerBatch),
               static_cast<long long>(reptile::g_fit_checks));
  return 0;
}
