// Pieces the drill workloads share: one analyst's drill-down session run
// straight against reptile::Session, and the per-layer probes that time each
// module's public entry point from outside.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "reptile/reptile.h"

namespace perfbench {

/// One analyst's drill-down: at every step recommend, look at the view of
/// the hierarchy about to be drilled (its path down to the new level), then
/// commit `steps[i]`, until every hierarchy is exhausted.
struct DrillPlan {
  reptile::ComplaintSpec complaint;
  std::vector<std::string> steps;  // hierarchy committed at each step
  std::vector<std::vector<std::string>> step_views;  // view group-by per step
  std::string measure;             // view measure
};

/// What one session did, measured from outside.
struct SessionResult {
  bool ok = true;
  std::string error;
  double seconds = 0.0;              // open + every step
  std::vector<double> recommend_ms;  // per step
  std::vector<double> view_ms;       // per step
  std::vector<std::string> answers;  // per step: recommend JSON (timings zeroed) + view JSON
  int64_t models_trained = 0;
  int64_t fit_cache_hits = 0;
  int64_t aggregate_builds = 0;
  double train_seconds = 0.0;        // sum over steps and candidates
  int64_t em_iterations = 0;         // sum over steps
  // Engine stage spans (plan / fit / rank), summed over the session; only
  // filled when a tracer is attached.
  double plan_seconds = 0.0, fit_seconds = 0.0, rank_seconds = 0.0;
};

/// Runs one full session over `dataset`. With a tracer, every public call
/// gets a span (root `session.<label>`) and the engine's stage spans are
/// imported under each recommend.
SessionResult RunDrillSession(const reptile::DatasetHandle& dataset, const DrillPlan& plan,
                              Tracer* tracer, const char* label);

/// Sets the core.*, factor.* and model.* per-layer metrics: per-session
/// means over the `cold` and `warm` sessions (run on `dataset` with a
/// tracer attached), and `dataset`'s shared cache counters.
void SetSessionLayerMetrics(const std::vector<SessionResult>& cold,
                            const std::vector<SessionResult>& warm,
                            const reptile::DatasetHandle& dataset, Metrics* m);

/// A recommend response with its scheduling-dependent fields zeroed, the
/// transform the serving tier's zero_timings option applies.
std::string ZeroTimedJson(reptile::ExploreResponse response);

/// CSV text -> table -> dataset, or an error message.
reptile::Result<reptile::Dataset> DatasetFromCsv(const std::string& csv,
                                                 const reptile::CsvSpec& spec,
                                                 const std::vector<reptile::HierarchySchema>& h);

/// The column typing that parses RenderTableCsv(dataset.table()) back.
reptile::CsvSpec CsvSpecFor(const reptile::Dataset& dataset);

/// Inputs for the per-layer probes.
struct ProbeInput {
  reptile::DatasetHandle dataset;  // prepared, caches warm at the root state
  std::string name;                // registry / wire name
  std::string csv;                 // the dataset as CSV text
  reptile::CsvSpec csv_spec;
  DrillPlan plan;
};

/// Times data/, api/, core/ (view), server/ and net/ entry points on
/// `input` and sets their per-layer metrics.
void ProbeLayers(const ProbeInput& input, Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
