// Fleet-level consolidation: three simulated servers, each running its own
// CoPart instance, receiving a stream of jobs. Placement quality and
// partitioning quality compose: the what-if placement keeps cache pressure
// balanced across nodes, and per-node CoPart partitions whatever lands.
//
// Usage:  ./build/examples/cluster_scheduler [first-fit|least-loaded|
//                                             what-if-best]
#include <cstdio>
#include <cstring>
#include <limits>

#include "cluster/fleet.h"
#include "common/stats.h"
#include "harness/table_printer.h"

int main(int argc, char** argv) {
  using namespace copart;
  PlacementPolicy policy = PlacementPolicy::kWhatIfBest;
  if (argc > 1) {
    if (std::strcmp(argv[1], "first-fit") == 0) {
      policy = PlacementPolicy::kFirstFit;
    } else if (std::strcmp(argv[1], "least-loaded") == 0) {
      policy = PlacementPolicy::kLeastLoaded;
    } else if (std::strcmp(argv[1], "what-if-best") != 0) {
      std::fprintf(stderr, "unknown policy '%s'\n", argv[1]);
      return 1;
    }
  }

  // Fleet behaviour (faults, shedding, migration) stays off: this is a
  // plain three-node cluster whose admission refuses only when no node fits.
  FleetParams params;
  params.placement = policy;
  params.admission_max_core_utilization = 1.0;
  params.migrate_unfairness_threshold = std::numeric_limits<double>::infinity();
  params.shed_unfairness_threshold = std::numeric_limits<double>::infinity();
  FleetController fleet(3, params);

  // A mixed arrival stream: cache-hungry, bandwidth-hungry, and filler.
  const std::vector<WorkloadDescriptor> arrivals = {
      WaterNsquared(), Cg(), Sp(),        Swaptions(), WaterSpatial(),
      OceanCp(),       Ep(), OceanNcp(),  Raytrace(),  Ft(),
      Fmm(),           Ep()};

  std::printf("placement policy: %s\n\n", PlacementPolicyName(policy));
  for (const WorkloadDescriptor& workload : arrivals) {
    Result<FleetJobId> placed =
        fleet.Submit({.workload = workload, .cores = 4});
    if (!placed.ok()) {
      std::printf("  %-16s -> REJECTED (%s)\n", workload.name.c_str(),
                  placed.status().ToString().c_str());
      continue;
    }
    std::printf("  %-16s -> %s\n", workload.name.c_str(),
                fleet.node(fleet.jobs()[*placed].node)->name().c_str());
    // Let the fleet settle a little between arrivals, as it would live.
    fleet.RunEpoch();
  }

  // Converge every node's controller.
  for (int i = 0; i < 160; ++i) {
    fleet.RunEpoch();
  }

  std::printf("\nfleet after convergence:\n");
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < fleet.NumNodes(); ++i) {
    ClusterNode* node = fleet.node(i);
    std::string jobs;
    for (const WorkloadDescriptor& workload : node->ResidentWorkloads()) {
      jobs += (jobs.empty() ? "" : " ") + workload.short_name;
    }
    rows.push_back({node->name(), std::to_string(node->NumJobs()),
                    ResourceManager::PhaseName(node->manager().phase()),
                    FormatFixed(node->CurrentUnfairness(), 4), jobs});
  }
  PrintTable({"node", "jobs", "copart", "unfairness", "resident"}, rows);

  const std::vector<double> slowdowns = fleet.AllSlowdowns();
  std::printf("\ncluster-wide slowdowns: mean %.3f, worst %.3f\n",
              Mean(slowdowns),
              *std::max_element(slowdowns.begin(), slowdowns.end()));
  std::printf("mean node unfairness: %.4f\n", fleet.MeanNodeUnfairness());
  return 0;
}
