// Extension study: placement policy x per-node partitioning on a two-node
// fleet. A skewed arrival stream (big insensitive jobs first, then small
// cache-hungry ones) is submitted under each placement policy, with the
// nodes either unmanaged (everything shares the LLC) or running CoPart.
//
// Expected shape: on unmanaged nodes placement is all that stands between
// the fleet and heavy contention, so cache-aware (what-if) placement beats
// first-fit clearly; per-node CoPart then absorbs most of the remaining
// damage, shrinking the gap between placement policies — the controller
// makes the fleet robust to placement mistakes.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "cluster/fleet.h"
#include "common/stats.h"
#include "harness/table_printer.h"

namespace copart {
namespace {

struct FleetOutcome {
  double mean_slowdown = 0.0;
  double worst_slowdown = 0.0;
  double mean_node_unfairness = 0.0;
};

constexpr double kNever = std::numeric_limits<double>::infinity();

FleetOutcome RunFleet(PlacementPolicy policy, bool manage,
                      const ParallelConfig& parallel) {
  // Big insensitive jobs first so core-count balancing and cache-pressure
  // balancing disagree.
  const std::vector<std::pair<WorkloadDescriptor, uint32_t>> arrivals = {
      {Swaptions(), 8}, {WaterNsquared(), 2}, {WaterSpatial(), 2},
      {Sp(), 2},        {Ep(), 8},            {Raytrace(), 2},
      {OceanNcp(), 2},  {Fmm(), 2},           {Ft(), 2},
      {Ep(), 2}};
  // A plain two-node cluster: no faults, no shedding, no migration, and
  // admission refuses only when no node fits.
  FleetParams params;
  params.placement = policy;
  params.manage_nodes = manage;
  params.admission_max_core_utilization = 1.0;
  params.migrate_unfairness_threshold = kNever;
  params.shed_unfairness_threshold = kNever;
  params.parallel = parallel;
  FleetController fleet(2, params);
  for (const auto& [workload, cores] : arrivals) {
    CHECK(fleet.Submit({.workload = workload, .cores = cores}).ok());
  }
  for (int i = 0; i < 200; ++i) {
    fleet.RunEpoch();
  }
  const std::vector<double> slowdowns = fleet.AllSlowdowns();
  return FleetOutcome{
      Mean(slowdowns),
      *std::max_element(slowdowns.begin(), slowdowns.end()),
      fleet.MeanNodeUnfairness()};
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  using namespace copart;
  const ParallelConfig parallel = ParseThreadsFlag(argc, argv);
  std::printf(
      "== Extension: placement policy x per-node partitioning "
      "(2 nodes) ==\n\n");
  for (bool manage : {false, true}) {
    std::printf("-- nodes %s --\n",
                manage ? "running CoPart" : "unmanaged (shared LLC)");
    std::vector<std::vector<std::string>> rows;
    for (PlacementPolicy policy :
         {PlacementPolicy::kFirstFit, PlacementPolicy::kLeastLoaded,
          PlacementPolicy::kWhatIfBest}) {
      const FleetOutcome outcome = RunFleet(policy, manage, parallel);
      rows.push_back({PlacementPolicyName(policy),
                      FormatFixed(outcome.mean_slowdown, 3),
                      FormatFixed(outcome.worst_slowdown, 3),
                      FormatFixed(outcome.mean_node_unfairness, 4)});
    }
    PrintTable({"placement", "mean slowdown", "worst slowdown",
                "mean node unfairness"},
               rows);
    std::printf("\n");
  }
  return 0;
}
