// Experiment runner: executes a workload mix under a resource allocation
// policy for a fixed duration and reports the paper's metrics.
//
// Methodology mirrors §3.3/§6.1: each mix runs for `duration_sec` (50 s in
// the paper); per-app IPS is instructions executed over the whole run
// divided by the duration (profiling/exploration transients included, as on
// real hardware); Slowdown_i uses the machine's solo-full-resource IPS as
// the Eq. 1 reference; Unfairness is Eq. 2; throughput is the geometric
// mean of per-app IPS (Fig. 17).
#ifndef COPART_HARNESS_EXPERIMENT_H_
#define COPART_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/policies.h"
#include "obs/obs.h"
#include "core/system_state.h"
#include "harness/mix.h"
#include "machine/machine_config.h"
#include "machine/simulated_machine.h"

namespace copart {

struct ExperimentConfig {
  MachineConfig machine;
  ResourcePool pool{.first_way = 0, .num_ways = 11, .max_mba_percent = 100};
  double duration_sec = 50.0;
  double control_period_sec = 0.5;
  // Cores per app; 0 = derive from the mix size (16 / count).
  uint32_t cores_per_app = 0;
  // Fan-out width for sweeps built on top of RunExperiment (the replication
  // matrix and the figure benches). A single experiment's control loop is
  // inherently sequential and ignores this.
  ParallelConfig parallel;
  // Optional observability bundle (DESIGN.md §8): attached to the
  // resource manager of a ManagedPartitionPolicy (CoPart, CAT-only,
  // MBA-only, the partition-policy registry); the static policies, NoPart
  // and dCat have no manager to trace. Manager metrics are exported into it
  // when the run ends. Not owned; null = observability off.
  Observability* obs = nullptr;
};

// Creates the policy once machine/apps exist. Receives the resctrl and
// monitor instances that will drive the run.
using PolicyFactory = std::function<std::unique_ptr<ConsolidationPolicy>(
    Resctrl* resctrl, PerfMonitor* monitor, std::vector<AppId> apps,
    const ResourcePool& pool)>;

struct ExperimentResult {
  std::string policy_name;
  std::string mix_name;
  std::vector<std::string> app_names;
  std::vector<double> avg_ips;        // Whole-run per-app IPS.
  std::vector<double> solo_full_ips;  // Eq. 1 reference.
  std::vector<double> slowdowns;
  double unfairness = 0.0;
  double throughput_geomean = 0.0;
  // Mean getNextSystemState wall time (0 for static policies) — Fig. 16.
  double avg_exploration_us = 0.0;
  // Apps the policy declined to manage (ManagedPartitionPolicy only, i.e.
  // every ResourceManager-driven policy): they ran in the default group.
  // Per-app CoPart, CAT-only and MBA-only hit this past their way/CLOS
  // budget; clustered policies keep it at zero.
  size_t unmanaged_apps = 0;
};

// Runs `mix` under the policy produced by `factory`.
ExperimentResult RunExperiment(const WorkloadMix& mix,
                               const PolicyFactory& factory,
                               const ExperimentConfig& config);

// Standard policy factories, keyed by the paper's names.
PolicyFactory EqFactory();
PolicyFactory NoPartFactory();
// CoPart and its single-resource ablations: one ManagedPartitionPolicy,
// with enable_mba_partitioning (CAT-only) or enable_llc_partitioning
// (MBA-only) switched off.
PolicyFactory CoPartFactory(ResourceManagerParams params = {});
PolicyFactory CatOnlyFactory(ResourceManagerParams params = {});
PolicyFactory MbaOnlyFactory(ResourceManagerParams params = {});
// ST: runs the offline search (harness/static_oracle.h) at Start() time
// against a noise-free clone of the machine.
PolicyFactory StaticOracleFactory();
// UCP: the miss-minimizing utility-based partitioner (core/ucp_policy.h) —
// an extension baseline beyond the paper's four. Like ST, the allocation is
// computed at factory time and installed by a StaticStatePolicy.
PolicyFactory UcpFactory();
// dCat: the feedback-driven dynamic LLC-only partitioner
// (core/dcat_policy.h), distilled from the paper's closest related work.
PolicyFactory DcatFactory();

// A ResourceManager driven by the named partition policy in
// params.partition_policy ("copart", "lfoc", "lfoc+", "cbp" — see
// core/partition_policy.h). Admission failures leave apps unmanaged in the
// default group (ExperimentResult::unmanaged_apps) instead of aborting, so
// per-app CoPart can be A/B'd on scenarios past its CLOS budget.
PolicyFactory PartitionPolicyFactory(ResourceManagerParams params);

// The paper's five policies in Fig. 12 order: EQ, ST, CAT-only, MBA-only,
// CoPart.
std::vector<std::pair<std::string, PolicyFactory>> StandardPolicies();

}  // namespace copart

#endif  // COPART_HARNESS_EXPERIMENT_H_
