#include "harness/experiment.h"

#include <cmath>

#include "common/logging.h"
#include "core/dcat_policy.h"
#include "core/ucp_policy.h"
#include "harness/static_oracle.h"
#include "metrics/fairness.h"

namespace copart {

ExperimentResult RunExperiment(const WorkloadMix& mix,
                               const PolicyFactory& factory,
                               const ExperimentConfig& config) {
  CHECK(!mix.apps.empty());
  const uint32_t cores =
      config.cores_per_app > 0 ? config.cores_per_app
                               : config.machine.num_cores /
                                     static_cast<uint32_t>(mix.apps.size());
  CHECK_GE(cores, 1u);

  SimulatedMachine machine(config.machine);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);

  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : mix.apps) {
    Result<AppId> app = machine.LaunchApp(descriptor, cores);
    CHECK(app.ok()) << app.status().ToString();
    apps.push_back(*app);
  }

  std::unique_ptr<ConsolidationPolicy> policy =
      factory(&resctrl, &monitor, apps, config.pool);
  auto* managed = dynamic_cast<ManagedPartitionPolicy*>(policy.get());
  if (managed != nullptr) {
    managed->manager().SetObservability(config.obs);
  }
  policy->Start();

  const int periods = static_cast<int>(
      std::llround(config.duration_sec / config.control_period_sec));
  for (int period = 0; period < periods; ++period) {
    machine.AdvanceTime(config.control_period_sec);
    policy->Tick();
  }

  ExperimentResult result;
  result.policy_name = policy->name();
  result.mix_name = mix.name;
  const double elapsed = machine.now();
  for (size_t i = 0; i < apps.size(); ++i) {
    result.app_names.push_back(mix.apps[i].short_name);
    const double avg_ips = machine.Counters(apps[i]).instructions / elapsed;
    result.avg_ips.push_back(avg_ips);
    result.solo_full_ips.push_back(
        machine.SoloFullResourceIps(mix.apps[i], cores));
    result.slowdowns.push_back(
        Slowdown(result.solo_full_ips.back(), avg_ips));
  }
  result.unfairness = Unfairness(result.slowdowns);
  result.throughput_geomean = GeoMeanThroughput(result.avg_ips);
  if (managed != nullptr) {
    result.avg_exploration_us =
        managed->manager().exploration_time_stats().mean();
    result.unmanaged_apps = managed->unmanaged_apps();
    managed->manager().ExportMetrics(ObsMetrics(config.obs));
  }
  return result;
}

PolicyFactory EqFactory() {
  return [](Resctrl* resctrl, PerfMonitor*, std::vector<AppId> apps,
            const ResourcePool& pool) {
    return MakeEqualPolicy(resctrl, std::move(apps), pool);
  };
}

PolicyFactory NoPartFactory() {
  return [](Resctrl* resctrl, PerfMonitor*, std::vector<AppId> apps,
            const ResourcePool&) {
    return std::make_unique<NoPartitionPolicy>(resctrl, std::move(apps));
  };
}

namespace {

// A ResourceManager-driven policy shown under `name`.
PolicyFactory ManagedFactory(ResourceManagerParams params, std::string name) {
  return [params, name](Resctrl* resctrl, PerfMonitor* monitor,
                        std::vector<AppId> apps, const ResourcePool& pool) {
    return std::make_unique<ManagedPartitionPolicy>(
        resctrl, monitor, std::move(apps), pool, params, name);
  };
}

}  // namespace

PolicyFactory CoPartFactory(ResourceManagerParams params) {
  return ManagedFactory(params, "CoPart");
}

PolicyFactory CatOnlyFactory(ResourceManagerParams params) {
  params.enable_mba_partitioning = false;
  return ManagedFactory(params, "CAT-only");
}

PolicyFactory MbaOnlyFactory(ResourceManagerParams params) {
  params.enable_llc_partitioning = false;
  return ManagedFactory(params, "MBA-only");
}

PolicyFactory StaticOracleFactory() {
  return [](Resctrl* resctrl, PerfMonitor*, std::vector<AppId> apps,
            const ResourcePool& pool) {
    // Serial: the factory can run inside a parallel replication fan-out,
    // where a nested parallel region is rejected.
    StaticOracleResult oracle = FindStaticOracleState(
        resctrl->machine(), apps, pool, ParallelConfig{.num_threads = 1});
    return MakeStaticOraclePolicy(resctrl, std::move(apps),
                                  std::move(oracle.best_state));
  };
}

PolicyFactory UcpFactory() {
  return [](Resctrl* resctrl, PerfMonitor*, std::vector<AppId> apps,
            const ResourcePool& pool) {
    SystemState state = ComputeUcpAllocation(resctrl->machine(), apps, pool);
    return std::make_unique<StaticStatePolicy>(resctrl, std::move(apps),
                                               std::move(state), "UCP");
  };
}

PolicyFactory DcatFactory() {
  return [](Resctrl* resctrl, PerfMonitor* monitor, std::vector<AppId> apps,
            const ResourcePool& pool) {
    return std::make_unique<DcatPolicy>(resctrl, monitor, std::move(apps),
                                        pool);
  };
}

PolicyFactory PartitionPolicyFactory(ResourceManagerParams params) {
  const std::string name =
      params.partition_policy.empty() ? "copart" : params.partition_policy;
  return ManagedFactory(std::move(params), name);
}

std::vector<std::pair<std::string, PolicyFactory>> StandardPolicies() {
  return {{"EQ", EqFactory()},
          {"ST", StaticOracleFactory()},
          {"CAT-only", CatOnlyFactory()},
          {"MBA-only", MbaOnlyFactory()},
          {"CoPart", CoPartFactory()}};
}

}  // namespace copart
