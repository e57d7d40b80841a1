// Multi-node cluster layer: admission, placement policies, fleet metrics.
#include "cluster/fleet.h"

#include <gtest/gtest.h>

#include <limits>

#include "cluster/cluster_node.h"
#include "common/fault_injector.h"
#include "common/stats.h"
#include "harness/fleet.h"
#include "obs/metrics_registry.h"

namespace copart {
namespace {

MachineConfig QuietConfig() {
  MachineConfig config;
  config.ips_noise_sigma = 0.005;
  return config;
}

FleetParams QuietFleetParams() {
  FleetParams params;
  params.machine = QuietConfig();
  params.parallel.num_threads = 1;
  return params;
}

// A plain multi-node cluster placing by `placement`: no faults, no
// shedding, no migration, and admission refuses only when no node fits.
FleetParams ClusterParams(PlacementPolicy placement) {
  FleetParams params = QuietFleetParams();
  params.placement = placement;
  params.admission_max_core_utilization = 1.0;
  params.migrate_unfairness_threshold = std::numeric_limits<double>::infinity();
  params.shed_unfairness_threshold = std::numeric_limits<double>::infinity();
  return params;
}

FleetJobSpec BatchJob(const WorkloadDescriptor& workload, uint32_t cores,
                      int lifetime_epochs = 0) {
  FleetJobSpec spec;
  spec.workload = workload;
  spec.cores = cores;
  spec.lifetime_epochs = lifetime_epochs;
  return spec;
}

TEST(ClusterNodeTest, AdmitEvictLifecycle) {
  ClusterNode node("n0", QuietConfig(), {});
  Result<AppId> app = node.Admit(Cg(), 4);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(node.NumJobs(), 1u);
  EXPECT_EQ(node.FreeCores(), 12u);
  EXPECT_EQ(node.ResidentWorkloads().size(), 1u);
  EXPECT_EQ(node.ResidentWorkloads()[0].name, "CG");
  ASSERT_TRUE(node.Evict(*app).ok());
  EXPECT_EQ(node.NumJobs(), 0u);
  EXPECT_EQ(node.FreeCores(), 16u);
}

TEST(ClusterNodeTest, AdmitRollsBackOnManagerFailure) {
  ClusterNode node("n0", QuietConfig(), {});
  // CAT grants at least one way per managed app: the 11-way node accepts
  // 11 jobs, then admission control refuses — without leaking the app the
  // failed admission had already launched.
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(node.Admit(Swaptions(), 1).ok()) << i;
  }
  Result<AppId> overflow = node.Admit(Swaptions(), 1);
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(node.NumJobs(), 11u);
  // No orphaned app was left behind by the failed admission.
  EXPECT_EQ(node.machine().ListApps().size(), 11u);
}

TEST(ClusterNodeTest, TickDrivesControllerToConvergence) {
  ClusterNode node("n0", QuietConfig(), {});
  ASSERT_TRUE(node.Admit(WaterNsquared(), 4).ok());
  ASSERT_TRUE(node.Admit(Cg(), 4).ok());
  ASSERT_TRUE(node.Admit(Swaptions(), 4).ok());
  for (int i = 0; i < 120; ++i) {
    node.Tick(0.5);
  }
  EXPECT_EQ(node.manager().phase(), ResourceManager::Phase::kIdle);
  EXPECT_EQ(node.CurrentSlowdowns().size(), 3u);
  EXPECT_GE(node.CurrentUnfairness(), 0.0);
}

TEST(ClusterTest, SubmitRespectsCapacity) {
  FleetController fleet(2, ClusterParams(PlacementPolicy::kFirstFit));
  // 8 jobs x 4 cores fill both 16-core nodes.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 4)).ok()) << i;
  }
  Result<FleetJobId> overflow = fleet.Submit(BatchJob(Swaptions(), 4));
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
}

TEST(ClusterTest, FirstFitPacksLeastLoadedSpreads) {
  FleetController first_fit(2, ClusterParams(PlacementPolicy::kFirstFit));
  Result<FleetJobId> a = first_fit.Submit(BatchJob(Swaptions(), 4));
  Result<FleetJobId> b = first_fit.Submit(BatchJob(Swaptions(), 4));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(first_fit.jobs()[*a].node, 0);
  EXPECT_EQ(first_fit.jobs()[*b].node, 0);  // First fit keeps packing node 0.

  FleetController least_loaded(2,
                               ClusterParams(PlacementPolicy::kLeastLoaded));
  Result<FleetJobId> c = least_loaded.Submit(BatchJob(Swaptions(), 4));
  Result<FleetJobId> d = least_loaded.Submit(BatchJob(Swaptions(), 4));
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(least_loaded.jobs()[*c].node, 0);
  EXPECT_EQ(least_loaded.jobs()[*d].node, 1);  // Spreads to the empty node.
}

TEST(ClusterTest, WhatIfPlacementAvoidsCacheContention) {
  FleetController fleet(2, ClusterParams(PlacementPolicy::kWhatIfBest));
  // Node 0 gets a cache-hungry job and node 1 an insensitive one (same
  // core load on both).
  Result<FleetJobId> sp = fleet.Submit(BatchJob(Sp(), 4));
  Result<FleetJobId> swaptions = fleet.Submit(BatchJob(Swaptions(), 4));
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(swaptions.ok());
  ASSERT_EQ(fleet.jobs()[*sp].node, 0);
  ASSERT_EQ(fleet.jobs()[*swaptions].node, 1);
  // A second cache-hungry job: the what-if model must route it AWAY from
  // the node already full of cache pressure.
  Result<FleetJobId> placed = fleet.Submit(BatchJob(WaterNsquared(), 4));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(fleet.jobs()[*placed].node, 1);
}

TEST(ClusterTest, FleetMetricsAggregate) {
  FleetController fleet(2, ClusterParams(PlacementPolicy::kLeastLoaded));
  ASSERT_TRUE(fleet.Submit(BatchJob(WaterNsquared(), 4)).ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Cg(), 4)).ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Sp(), 4)).ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 4)).ok());
  fleet.RunEpoch();
  EXPECT_EQ(fleet.AllSlowdowns().size(), 4u);
  EXPECT_GE(fleet.MeanNodeUnfairness(), 0.0);
}

TEST(ClusterTest, ExportMetricsPublishesPlacementAndFairnessCounters) {
  FleetController fleet(2, ClusterParams(PlacementPolicy::kWhatIfBest));
  ASSERT_TRUE(fleet.Submit(BatchJob(WaterNsquared(), 4)).ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Cg(), 4)).ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Sp(), 4)).ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 4)).ok());
  // Sixteen cores can no longer be free on either node: guaranteed reject.
  EXPECT_FALSE(fleet.Submit(BatchJob(Ep(), 16)).ok());

  EXPECT_EQ(fleet.counters().submitted, 5u);
  EXPECT_EQ(fleet.counters().shed_admission, 1u);

  for (int i = 0; i < 10; ++i) {
    fleet.RunEpoch();
  }
  MetricsRegistry metrics;
  fleet.ExportMetrics(&metrics);
  // Placements = submitted - shed at admission.
  EXPECT_EQ(metrics.GetCounter("copart.fleet.jobs.submitted")->value(), 5u);
  EXPECT_EQ(metrics.GetCounter("copart.fleet.jobs.shed_admission")->value(),
            1u);
  EXPECT_EQ(metrics.GetGauge("copart.fleet.node.n0.jobs")->value() +
                metrics.GetGauge("copart.fleet.node.n1.jobs")->value(),
            4.0);
  EXPECT_EQ(metrics.GetGauge("copart.fleet.node.n0.free_cores")->value() +
                metrics.GetGauge("copart.fleet.node.n1.free_cores")->value(),
            16.0);
  EXPECT_GE(metrics.GetGauge("copart.fleet.mean_node_unfairness")->value(),
            0.0);
  EXPECT_GE(metrics.GetGauge("copart.fleet.node.n0.unfairness")->value(), 0.0);
  // Null registry: a no-op, not a crash.
  fleet.ExportMetrics(nullptr);
}

TEST(ClusterNodeTest, EvictUnknownAppReturnsNotFound) {
  ClusterNode node("n0", QuietConfig(), {});
  const Status evicted = node.Evict(AppId{424242});
  EXPECT_EQ(evicted.code(), StatusCode::kNotFound);
}

TEST(ClusterNodeTest, UnmanagedNodeAdmitsAndEvicts) {
  ClusterNode node("n0", QuietConfig(), {}, /*manage=*/false);
  Result<AppId> app = node.Admit(Cg(), 4);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(node.NumJobs(), 1u);
  ASSERT_TRUE(node.Evict(*app).ok());
  EXPECT_EQ(node.NumJobs(), 0u);
  EXPECT_EQ(node.Evict(*app).code(), StatusCode::kNotFound);
}

TEST(ClusterNodeTest, AdmitRollbackQuarantinesWhenTerminateFails) {
  FaultInjector injector(7);
  FaultSpec always;
  always.probability = 1.0;
  injector.Arm(fault_points::kClusterAdmitRollback, always);
  MachineConfig config = QuietConfig();
  config.fault_injector = &injector;
  ClusterNode node("n0", config, {});
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(node.Admit(Swaptions(), 1).ok()) << i;
  }
  Result<AppId> overflow = node.Admit(Swaptions(), 1);
  ASSERT_FALSE(overflow.ok());
  // The caller sees the ORIGINAL admission error, not the terminate
  // failure the rollback swallowed.
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  // The unkillable app is quarantined, still squatting on the machine,
  // and the manager never accepted it.
  ASSERT_EQ(node.quarantined_apps().size(), 1u);
  EXPECT_EQ(node.machine().ListApps().size(), 12u);
  EXPECT_EQ(node.NumJobs(), 11u);
}

TEST(FleetTest, JobsRunToCompletionAndConservationHolds) {
  FleetController fleet(4, QuietFleetParams());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 2, 10)).ok()) << i;
  }
  EXPECT_EQ(fleet.ResidentJobs(), 8u);
  for (int e = 0; e < 30; ++e) {
    fleet.RunEpoch();
  }
  EXPECT_EQ(fleet.counters().completed, 8u);
  EXPECT_EQ(fleet.ResidentJobs(), 0u);
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
  EXPECT_TRUE(fleet.first_violation().empty()) << fleet.first_violation();
  // All four nodes ticked every epoch.
  EXPECT_EQ(fleet.node_ticks(), 30u * 4u);
}

TEST(FleetTest, AdmissionControlShedsAtTheUtilizationCeiling) {
  FleetController fleet(1, QuietFleetParams());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 4)).ok()) << i;
  }
  // 16/16 cores used >= the 95% ceiling: the front door sheds.
  Result<FleetJobId> shed = fleet.Submit(BatchJob(Swaptions(), 4));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fleet.counters().shed_admission, 1u);
  fleet.RunEpoch();
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
}

TEST(FleetTest, CrashLosesResidentsAndRebootsEmpty) {
  FleetParams params = QuietFleetParams();
  params.crash_recovery_epochs = 3;
  FleetController fleet(2, params);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 2)).ok()) << i;
  }
  size_t on_node0 = 0;
  for (const FleetJob& job : fleet.jobs()) {
    on_node0 += job.node == 0 ? 1 : 0;
  }
  ASSERT_GT(on_node0, 0u);
  fleet.CrashNode(0);
  EXPECT_EQ(fleet.counters().crashes, 1u);
  EXPECT_EQ(fleet.counters().lost_to_crash, on_node0);
  EXPECT_EQ(fleet.AliveNodes(), 1u);
  EXPECT_EQ(fleet.ResidentJobs(), 4u - on_node0);
  for (int e = 0; e < 4; ++e) {
    fleet.RunEpoch();
  }
  // Recovered: the node is back, empty, on a fresh incarnation.
  EXPECT_EQ(fleet.AliveNodes(), 2u);
  EXPECT_EQ(fleet.counters().reboots, 1u);
  EXPECT_EQ(fleet.node_status(0).reboots, 1u);
  EXPECT_EQ(fleet.node(0)->NumJobs(), 0u);
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
}

TEST(FleetTest, LatencyCriticalJobKeepsTheGovernorWayFloor) {
  FleetParams params = QuietFleetParams();
  params.manager.slo.enabled = true;
  FleetController fleet(1, params);
  FleetJobSpec lc;
  lc.workload = Memcached();
  lc.cores = 4;
  lc.latency_critical = true;
  lc.offered_rps = 20000.0;
  Result<FleetJobId> id = fleet.Submit(lc);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Cg(), 4)).ok());
  for (int e = 0; e < 20; ++e) {
    fleet.RunEpoch();
  }
  const FleetJob& job = fleet.jobs()[*id];
  ASSERT_EQ(job.state, JobState::kResident);
  EXPECT_GE(fleet.node(0)->manager().LcWays(job.app),
            params.manager.slo.lc_way_floor);
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
}

TEST(FleetScenarioTest, RobustnessScenarioMigratesRecoversAndConserves) {
  // The copartctl `fleet` demo at 1/4 scale: diurnal arrivals, background
  // faults, one 10% crash wave. Everything notable must occur at least
  // once, and the books must balance on every epoch.
  FleetScenarioConfig config;
  config.num_nodes = 64;
  config.epochs = 120;
  config.job_arrivals.base_rate_rps = 0.15 * 64.0;
  config.crash_wave_epoch = 30;
  config.crash_probability = 0.0002;
  config.slow_probability = 0.002;
  config.blackout_probability = 0.002;
  const FleetScenarioResult result = RunFleetScenario(config);
  EXPECT_EQ(result.counters.invariant_violations, 0u);
  EXPECT_TRUE(result.first_violation.empty()) << result.first_violation;
  EXPECT_GE(result.counters.crashes, 6u);  // The wave alone kills 6.
  EXPECT_GE(result.counters.reboots, 6u);
  EXPECT_GE(result.counters.migrations_completed, 1u);
  EXPECT_GE(result.counters.migration_rollbacks, 1u);
  EXPECT_GE(result.recovery_epochs, 0);
  EXPECT_EQ(result.counters.submitted,
            result.resident_jobs + result.counters.completed +
                result.counters.shed_total() + result.counters.lost_to_crash);
}

TEST(FleetScenarioTest, SummaryIsBitIdenticalAcrossThreadCounts) {
  auto run = [](uint32_t threads) {
    FleetScenarioConfig config;
    config.num_nodes = 16;
    config.epochs = 50;
    config.crash_wave_epoch = 15;
    config.slow_probability = 0.004;
    config.blackout_probability = 0.004;
    config.parallel.num_threads = threads;
    return RunFleetScenario(config).DeterministicSummary();
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_FALSE(serial.empty());
}

TEST(ClusterTest, WhatIfBeatsFirstFitOnASkewedArrivalSequence) {
  // Small 2-core jobs so first-fit stacks EIGHT jobs — five of them
  // cache-hungry, with way demand far beyond one node's 11 ways — onto
  // node 0 while node 1 idles with the insensitive tail. Per-node CoPart
  // cannot conjure capacity; placement has to. What-if interleaves the
  // hungry jobs across nodes.
  const std::vector<WorkloadDescriptor> arrivals = {
      WaterNsquared(), WaterSpatial(), Sp(),  OceanNcp(), Raytrace(),
      Swaptions(),     Ep(),           Ep(),  Swaptions(), Ep()};
  auto run = [&](PlacementPolicy policy) {
    FleetController fleet(2, ClusterParams(policy));
    for (const WorkloadDescriptor& workload : arrivals) {
      CHECK(fleet.Submit(BatchJob(workload, 2)).ok());
    }
    for (int i = 0; i < 200; ++i) {
      fleet.RunEpoch();
    }
    return Mean(fleet.AllSlowdowns());
  };
  const double first_fit_mean = run(PlacementPolicy::kFirstFit);
  const double whatif_mean = run(PlacementPolicy::kWhatIfBest);
  EXPECT_LT(whatif_mean, first_fit_mean)
      << "what-if " << whatif_mean << " vs first-fit " << first_fit_mean;
}

TEST(ClusterTest, WhatIfAdmissionIsBitIdenticalAcrossThreadCounts) {
  // One arrival sequence under what-if admission, with bounded lifetimes
  // so later arrivals land on a churning fleet: the job -> node map, the
  // outcome summary and the metrics must not depend on the scoring
  // fan-out width.
  const std::vector<WorkloadDescriptor> arrivals = {
      WaterNsquared(), Cg(),  Sp(),       Swaptions(), WaterSpatial(),
      OceanCp(),       Ep(),  OceanNcp(), Raytrace(),  Ft(),
      Fmm(),           Ep()};
  auto run = [&](uint32_t threads) {
    FleetParams params = QuietFleetParams();
    params.placement = PlacementPolicy::kWhatIfBest;
    params.parallel.num_threads = threads;
    FleetController fleet(4, params);
    std::string placements;
    for (size_t k = 0; k < arrivals.size(); ++k) {
      const Result<FleetJobId> id = fleet.Submit(BatchJob(
          arrivals[k], k % 2 == 0 ? 2 : 4, 8 + static_cast<int>(k)));
      placements += std::to_string(k) + "->" +
                    (id.ok() ? std::to_string(fleet.jobs()[*id].node)
                             : std::string("shed")) +
                    "\n";
      fleet.RunEpoch();
    }
    for (int e = 0; e < 10; ++e) {
      fleet.RunEpoch();
    }
    EXPECT_TRUE(fleet.first_violation().empty()) << fleet.first_violation();
    FleetScenarioResult result;
    result.counters = fleet.counters();
    result.alive_nodes = fleet.AliveNodes();
    result.resident_jobs = fleet.ResidentJobs();
    result.node_ticks = fleet.node_ticks();
    result.mean_node_unfairness = fleet.MeanNodeUnfairness();
    result.fleet_p99_slowdown = Percentile(fleet.AllSlowdowns(), 99.0);
    MetricsRegistry metrics;
    fleet.ExportMetrics(&metrics);
    return placements + result.DeterministicSummary() +
           metrics.DumpJson(/*deterministic_only=*/true);
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(4));
  // Every job was placed and the fleet spread them over several nodes.
  EXPECT_EQ(serial.find("shed\n"), std::string::npos) << serial;
  EXPECT_NE(serial.find("->3\n"), std::string::npos) << serial;
}

}  // namespace
}  // namespace copart
