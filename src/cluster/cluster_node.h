// One node of a multi-node deployment: a simulated server running its own
// CoPart instance.
//
// The paper's setting is a single consolidated server; datacenters run
// fleets of them, and the operator's first decision — *which node gets the
// job* — determines how much unfairness each node's CoPart has to fix.
//
//   ClusterNode     = SimulatedMachine + Resctrl + PerfMonitor +
//                     ResourceManager, ticked together.
//   PlacementPolicy = how the fleet front door (cluster/fleet.h) picks a
//                     node for an incoming job:
//     kFirstFit    — first node that can host the job,
//     kLeastLoaded — most free cores,
//     kWhatIfBest  — the node where the what-if model (harness/whatif.h)
//                    predicts the least marginal harm from the job.
//
// Per-node CoPart then partitions LLC/MBA among whatever landed there.
// bench_cluster_placement quantifies how much placement quality the
// what-if model buys on top of per-node CoPart.
#ifndef COPART_CLUSTER_CLUSTER_NODE_H_
#define COPART_CLUSTER_CLUSTER_NODE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/resource_manager.h"
#include "slo/slo_governor.h"
#include "machine/simulated_machine.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {

namespace fault_points {
// The machine-level terminate of a half-admitted app fails during the
// Admit() rollback path — the app is quarantined as a zombie instead of
// taking the node (and the fleet above it) down.
inline constexpr std::string_view kClusterAdmitRollback =
    "cluster.admit.rollback_terminate";
}  // namespace fault_points

class ClusterNode {
 public:
  // manage = false runs the node WITHOUT a partitioning controller (all
  // apps share the full LLC at MBA 100) — the baseline that isolates how
  // much damage placement alone can cause or avoid.
  ClusterNode(std::string name, const MachineConfig& machine_config,
              const ResourceManagerParams& manager_params,
              bool manage = true);

  // Launches the job and hands it to this node's CoPart instance.
  Result<AppId> Admit(const WorkloadDescriptor& workload, uint32_t cores);

  // Launches a latency-critical job and registers it with the node's SLO
  // governor instead of the batch fairness set (requires the manager to run
  // with params.slo.enabled). Unmanaged nodes degrade to a plain Admit.
  Result<AppId> AdmitLatencyCritical(const WorkloadDescriptor& workload,
                                     uint32_t cores, const LcAppModel& model);

  // Evicts a resident job (batch or latency-critical; the manager reaps an
  // LC app's CLOS on its next tick after the machine-level terminate).
  Status Evict(AppId app);

  // One control period: machine time plus the controller tick.
  void Tick(double dt);

  const std::string& name() const { return name_; }
  uint32_t FreeCores() const { return machine_.FreeCores(); }
  size_t NumJobs() const {
    return manage_ ? manager_.NumApps() : machine_.ListApps().size();
  }
  // Workload descriptors of everything currently resident.
  std::vector<WorkloadDescriptor> ResidentWorkloads() const;

  // Ground-truth metrics from the machine model. AppSlowdown is one
  // resident app's slowdown over its last epoch, 0 before it has run one;
  // CurrentSlowdowns lists every app that has.
  double AppSlowdown(AppId app) const;
  std::vector<double> CurrentSlowdowns() const;
  double CurrentUnfairness() const;

  SimulatedMachine& machine() { return machine_; }
  const SimulatedMachine& machine() const { return machine_; }
  ResourceManager& manager() { return manager_; }
  bool managed() const { return manage_; }

  // Apps whose Admit() rollback could not terminate them: the manager never
  // accepted them, the machine-level kill failed, and they now squat on
  // their cores until the node is rebooted. Accounted for by the fleet's
  // conservation invariant (DESIGN.md §13).
  const std::vector<AppId>& quarantined_apps() const {
    return quarantined_apps_;
  }

 private:
  // Terminates a half-admitted app; quarantines it if the kill fails.
  void RollbackLaunch(AppId app);

  std::string name_;
  bool manage_ = true;
  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
  std::vector<AppId> quarantined_apps_;
};

enum class PlacementPolicy {
  kFirstFit,
  kLeastLoaded,
  kWhatIfBest,
};

const char* PlacementPolicyName(PlacementPolicy policy);

}  // namespace copart

#endif  // COPART_CLUSTER_CLUSTER_NODE_H_
