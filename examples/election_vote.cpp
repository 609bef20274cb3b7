// Election case study (paper Appendix N) on the public Session facade:
// county-level vote shares in a Georgia-like swing state. The complaint is
// that the statewide percentage is too low; Reptile ranks counties by the
// margin gained when their statistics are repaired to the model's
// expectation. Registering the 2016 share as an auxiliary dataset turns the
// ranking from "share outliers" into "2016-adjusted anomalies"; repairing
// COUNT alongside MEAN makes the ranking sensitive to missing vote records.
//
// Demonstrates: distributive sets of statistics (share = weighted mean,
// total votes = count), extra repair statistics, auxiliary features.

#include <cstdio>
#include <cstdlib>

#include "datagen/vote_gen.h"
#include "example_util.h"
#include "reptile/reptile.h"

using namespace reptile;

int main() {
  GeorgiaPanel georgia = MakeGeorgia();

  std::printf("Georgia-like panel: 159 counties; missing vote records injected into:");
  for (const std::string& county : georgia.missing_counties) {
    std::printf(" %s", county.c_str());
  }
  std::printf("\n\n");

  Result<Session> session = Session::Create(
      std::move(georgia.dataset_missing),
      ExploreRequest().TopK(8).Model(
          ModelSpec().RepairAlso(AggFn::kCount)));  // repair total votes too
  ExitOnError(session.status());
  AuxiliaryRequest share;
  share.name = "share2016";
  share.table = georgia.aux2016;
  share.join_attributes = {"county"};
  share.measure = "share2016";
  ExitOnError(session->RegisterAuxiliary(std::move(share)));
  AuxiliaryRequest votes;
  votes.name = "votes2016";
  votes.table = georgia.aux2016;
  votes.join_attributes = {"county"};
  votes.measure = "votes2016";
  ExitOnError(session->RegisterAuxiliary(std::move(votes)));

  ComplaintSpec complaint = ComplaintSpec::TooLow("mean", "trump_share");
  std::printf("Complaint: statewide vote percentage is too low.\n\n");
  Result<ExploreResponse> response = session->Recommend(complaint);
  ExitOnError(response.status());
  const HierarchyResponse* best = response->best();
  if (best == nullptr) {
    std::printf("No drill-down recommendation available.\n");
    return 1;
  }

  const Table& table = session->dataset()->table();
  Moments statewide;
  for (double v : table.measure(table.ColumnIndex("trump_share"))) statewide.Observe(v);
  std::printf("Observed statewide share: %.4f\n", statewide.Mean());
  std::printf("Top counties by margin gain after repairing (votes, share):\n");
  for (const GroupResponse& g : best->groups) {
    bool injected = false;
    for (const std::string& county : georgia.missing_counties) {
      if (g.description == "county=" + county) injected = true;
    }
    std::printf("  %-22s gain %+0.4f  share %.3f -> %.3f, votes %4.0f -> %6.1f%s\n",
                g.description.c_str(), g.repaired_complaint_value - statewide.Mean(),
                g.observed.at("mean"), g.predicted.at("mean"), g.observed.at("count"),
                g.predicted.at("count"), injected ? "  [missing records]" : "");
  }
  std::printf("\nCounties with missing vote records gain margin when their totals are\n"
              "restored — the Appendix N behaviour of repairing a distributive *set*\n"
              "of statistics rather than the complained statistic alone.\n");
  return 0;
}
