// Multi-phase workloads: phase programs, machine-side scaling, and the
// controller's drift-triggered re-adaptation (paper §5.4.3).
#include <gtest/gtest.h>

#include "cache/miss_ratio_curve.h"
#include "common/units.h"
#include "core/resource_manager.h"
#include "machine/simulated_machine.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

TEST(WorkloadPhaseTest, EmptyProgramIsIdentity) {
  const WorkloadDescriptor d = Cg();
  const WorkloadPhase phase = d.PhaseAt(123.4);
  EXPECT_DOUBLE_EQ(phase.access_intensity_scale, 1.0);
  EXPECT_DOUBLE_EQ(phase.streaming_scale, 1.0);
  EXPECT_DOUBLE_EQ(phase.cpi_exec_scale, 1.0);
}

TEST(WorkloadPhaseTest, ProgramCycles) {
  const WorkloadDescriptor d = PhasedScanCompute(10.0);
  ASSERT_EQ(d.phases.size(), 2u);
  // Phase A for t in [0,10), phase B for [10,20), then wrap.
  EXPECT_DOUBLE_EQ(d.PhaseAt(0.0).streaming_scale, 1.0);
  EXPECT_DOUBLE_EQ(d.PhaseAt(9.9).streaming_scale, 1.0);
  EXPECT_GT(d.PhaseAt(10.1).streaming_scale, 1.0);
  EXPECT_GT(d.PhaseAt(19.9).streaming_scale, 1.0);
  EXPECT_DOUBLE_EQ(d.PhaseAt(20.1).streaming_scale, 1.0);
  EXPECT_GT(d.PhaseAt(31.0).streaming_scale, 1.0);
  // Negative times clamp to the first phase.
  EXPECT_DOUBLE_EQ(d.PhaseAt(-5.0).streaming_scale, 1.0);
}

TEST(WorkloadPhaseTest, MachineAppliesPhaseScaling) {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(config);
  Result<AppId> app = machine.LaunchApp(PhasedScanCompute(10.0), 4);
  ASSERT_TRUE(app.ok());

  machine.AdvanceTime(5.0);  // Mid phase A.
  const AppEpochSnapshot compute_phase = machine.LastEpoch(*app);
  machine.AdvanceTime(10.0);  // t = 15: mid phase B (scan).
  const AppEpochSnapshot scan_phase = machine.LastEpoch(*app);

  // The scan phase misses more, pulls more bandwidth, and runs slower.
  EXPECT_GT(scan_phase.miss_ratio, compute_phase.miss_ratio * 2.0);
  EXPECT_GT(scan_phase.bandwidth_demand_bytes_per_sec,
            compute_phase.bandwidth_demand_bytes_per_sec * 2.0);
  EXPECT_LT(scan_phase.ips, compute_phase.ips);

  machine.AdvanceTime(10.0);  // t = 25: back in phase A.
  EXPECT_NEAR(machine.LastEpoch(*app).ips, compute_phase.ips,
              compute_phase.ips * 1e-9);
}

TEST(WorkloadPhaseTest, PhaseClockStartsAtLaunch) {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(config);
  machine.AdvanceTime(7.0);  // Machine time is not app time.
  Result<AppId> app = machine.LaunchApp(PhasedScanCompute(10.0), 4);
  ASSERT_TRUE(app.ok());
  machine.AdvanceTime(5.0);  // App-relative t = 5: still phase A.
  const double phase_a_miss = machine.LastEpoch(*app).miss_ratio;
  machine.AdvanceTime(10.0);  // App-relative t = 15: phase B.
  EXPECT_GT(machine.LastEpoch(*app).miss_ratio, phase_a_miss * 2.0);
}

TEST(WorkloadPhaseTest, StreamingScaleIsCappedByResidualWeight) {
  // A profile with components summing to 0.9 and stream 0.05: even a 100x
  // phase scale must keep total weight <= 1 (stream capped at 0.1).
  WorkloadDescriptor d;
  d.name = "capped";
  d.reuse_profile = ReuseProfile({{0.90, MiB(4)}}, 0.05);
  d.accesses_per_instr = 0.01;
  d.phases = {WorkloadPhase{.duration_sec = 1.0, .streaming_scale = 100.0}};
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(config);
  Result<AppId> app = machine.LaunchApp(d, 4);
  ASSERT_TRUE(app.ok());
  machine.AdvanceTime(0.5);  // Must not CHECK-fail in ReuseProfile.
  EXPECT_LE(machine.LastEpoch(*app).miss_ratio, 1.0);
}

TEST(WorkloadPhaseTest, MemcachedPhasedRotationDegradesCapability) {
  const WorkloadDescriptor d = MemcachedPhased(15.0);
  ASSERT_EQ(d.phases.size(), 2u);
  // LC identity (service-demand parameters) survives the phase program.
  EXPECT_EQ(d.category, WorkloadCategory::kLatencyCritical);
  EXPECT_GT(d.instructions_per_request, 0.0);
  EXPECT_GT(d.slo_p95_ms, 0.0);

  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(config);
  Result<AppId> app = machine.LaunchApp(d, 8);
  ASSERT_TRUE(app.ok());
  machine.AdvanceTime(7.0);  // Mid steady phase.
  const AppEpochSnapshot steady = machine.LastEpoch(*app);
  machine.AdvanceTime(15.0);  // t = 22: mid hot-set rotation.
  const AppEpochSnapshot rotation = machine.LastEpoch(*app);
  // The rotation phase misses more and retires fewer instructions — the
  // capability dip the phase-blind analytic model cannot see.
  EXPECT_GT(rotation.miss_ratio, steady.miss_ratio * 2.0);
  EXPECT_LT(rotation.ips, steady.ips * 0.9);
}

TEST(WorkloadPhaseTest, CorrelatedPairSharesOnePhaseClock) {
  const CorrelatedPair pair = CorrelatedLcBatchPair(10.0);
  ASSERT_EQ(pair.lc.phases.size(), 2u);
  ASSERT_EQ(pair.batch.phases.size(), 2u);
  EXPECT_EQ(pair.lc.category, WorkloadCategory::kLatencyCritical);
  EXPECT_EQ(pair.batch.category, WorkloadCategory::kBatch);
  // Aligned programs: both halves flip phase at the same boundaries, and
  // the batch scan fires exactly when the LC rotation fires.
  for (double t : {0.0, 5.0, 10.0, 15.0, 20.0, 25.0}) {
    EXPECT_EQ(pair.lc.PhaseIndexAt(t), pair.batch.PhaseIndexAt(t)) << t;
  }
  // Heavy phases coincide: both put more pressure on the memory system.
  EXPECT_GT(pair.lc.PhaseAt(15.0).streaming_scale,
            pair.lc.PhaseAt(5.0).streaming_scale);
  EXPECT_GT(pair.batch.PhaseAt(15.0).streaming_scale,
            pair.batch.PhaseAt(5.0).streaming_scale);
}

TEST(WorkloadPhaseTest, CorrelatedPairPressureCoincidesOnMachine) {
  const CorrelatedPair pair = CorrelatedLcBatchPair(10.0);
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(config);
  Result<AppId> lc = machine.LaunchApp(pair.lc, 8);
  Result<AppId> batch = machine.LaunchApp(pair.batch, 4);
  ASSERT_TRUE(lc.ok());
  ASSERT_TRUE(batch.ok());
  machine.AdvanceTime(5.0);  // Quiet phase for both.
  const double lc_quiet_bw =
      machine.LastEpoch(*lc).bandwidth_demand_bytes_per_sec;
  const double batch_quiet_bw =
      machine.LastEpoch(*batch).bandwidth_demand_bytes_per_sec;
  machine.AdvanceTime(10.0);  // t = 15: heavy phase for both.
  EXPECT_GT(machine.LastEpoch(*lc).bandwidth_demand_bytes_per_sec,
            lc_quiet_bw * 1.5);
  EXPECT_GT(machine.LastEpoch(*batch).bandwidth_demand_bytes_per_sec,
            batch_quiet_bw * 1.5);
}

TEST(WorkloadPhaseTest, ManagerReAdaptsOnPhaseChange) {
  // A phased app shares the machine with a steady app. After CoPart settles
  // in idle during the compute phase, the switch to the scan phase drifts
  // the IPS past the idle threshold and must trigger re-adaptation.
  MachineConfig config;
  config.ips_noise_sigma = 0.005;
  SimulatedMachine machine(config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  // Long phases so the controller fully converges inside one phase.
  Result<AppId> phased = machine.LaunchApp(PhasedScanCompute(60.0), 4);
  Result<AppId> steady = machine.LaunchApp(WaterNsquared(), 4);
  ASSERT_TRUE(phased.ok());
  ASSERT_TRUE(steady.ok());

  ResourceManagerParams params;
  ResourceManager manager(&resctrl, &monitor, params);
  ASSERT_TRUE(manager.AddApp(*phased).ok());
  ASSERT_TRUE(manager.AddApp(*steady).ok());

  // Converge within phase A (60 s of 0.5 s periods = phase A entirely).
  auto run = [&](int periods) {
    for (int i = 0; i < periods; ++i) {
      machine.AdvanceTime(params.control_period_sec);
      manager.Tick();
    }
  };
  run(100);  // t = 50 s, still phase A.
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  const uint64_t adaptations_before = manager.adaptations_started();

  run(40);  // Crosses into phase B at t = 60 s.
  EXPECT_GT(manager.adaptations_started(), adaptations_before)
      << "phase change did not re-trigger adaptation";
}

TEST(WorkloadPhaseTest, ResidentPhasedAppCompilesEachPhaseCurveOnce) {
  // A resident phased app crosses a phase boundary every second while a
  // neighbor launches and exits beside it (each launch or exit rebuilds
  // every app's phase params) and one Snapshot/Restore rewinds it across a
  // boundary. Once both phases and the neighbor have been seen, nothing
  // compiles a miss-ratio curve again: the app keeps one profile per phase
  // and every refresh copies it, table included.
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(config);
  Result<AppId> resident = machine.LaunchApp(PhasedScanCompute(1.0), 4);
  ASSERT_TRUE(resident.ok());
  const WorkloadDescriptor neighbor = Sp();
  auto cycle_neighbor = [&] {
    Result<AppId> app = machine.LaunchApp(neighbor, 2);
    ASSERT_TRUE(app.ok());
    machine.AdvanceTime(0.25);
    ASSERT_TRUE(machine.TerminateApp(*app).ok());
  };
  // First full phase cycle: compute (t < 1), scan (1 <= t < 2).
  cycle_neighbor();
  for (int step = 0; step < 7; ++step) {
    machine.AdvanceTime(0.25);
  }
  const uint64_t builds = ReuseProfile::CompiledBuildCount();

  // Thirteen more crossings (t = 2 .. 15), with the neighbor coming and
  // going in each phase.
  for (int crossing = 0; crossing < 13; ++crossing) {
    cycle_neighbor();
    machine.AdvanceTime(0.75);
  }
  // Rewind across a boundary: snapshot in the scan phase, advance into the
  // compute phase, restore.
  machine.AdvanceTime(0.5);  // t = 15.5: scan phase.
  const MachineSnapshot snapshot = machine.Snapshot();
  machine.AdvanceTime(0.75);  // t = 16.25: compute phase.
  const double compute_miss_ratio = machine.LastEpoch(*resident).miss_ratio;
  machine.Restore(snapshot);
  machine.AdvanceTime(0.1);  // t = 15.6: scan phase again.
  EXPECT_GT(machine.LastEpoch(*resident).miss_ratio, compute_miss_ratio * 2.0);
  EXPECT_EQ(ReuseProfile::CompiledBuildCount(), builds);
}

}  // namespace
}  // namespace copart
