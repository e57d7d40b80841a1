// Properties of the incremental epoch kernel (DESIGN.md §12).
//
// The machine exposes full_solves() / partial_solves() so these tests can
// observe which tier an epoch took, and the contract is exact:
//   - clean epochs (no observable mutation since the last solve) replay the
//     cached fixed point and increment neither counter;
//   - mutations touching only the bandwidth tier (MBA levels, required-IPS
//     caps) take a partial solve that reuses the cached capacity fixed
//     point;
//   - capacity-tier mutations (way masks, CLOS membership, launch/terminate,
//     phase crossings) force a full solve, which the vectorized incremental
//     kernel scopes to the way-groups that moved (capacity_app_solves());
//   - value-identical mutator writes dirty nothing;
//   - the scalar reference kernel and incremental_epochs=false always solve
//     in full.
// Whatever tier an epoch takes, the outputs must be bit-identical across all
// kernel configurations — the twin-machine tests at the bottom lock that in
// over randomized mutation schedules: mask, MBA and required-IPS churn with
// a phased workload and noise, and a way-scoped schedule of CLOS moves,
// shared ways, emptying CLOSes, phase crossings, snapshot/restore and
// launch/terminate.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/way_mask.h"
#include "common/rng.h"
#include "machine/machine_config.h"
#include "machine/simulated_machine.h"
#include "membw/mba.h"
#include "workload/workload.h"

namespace copart {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<AppId> LaunchThreeSteadyApps(SimulatedMachine& machine) {
  const std::vector<WorkloadDescriptor> workloads = {Sp(), Raytrace(),
                                                     AllTable2Benchmarks()[0]};
  std::vector<AppId> apps;
  for (size_t i = 0; i < workloads.size(); ++i) {
    Result<AppId> app = machine.LaunchApp(workloads[i], 2);
    EXPECT_TRUE(app.ok());
    apps.push_back(*app);
    machine.AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
  }
  return apps;
}

MachineConfig VectorizedIncremental() {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  config.epoch_kernel = EpochKernel::kVectorized;
  config.incremental_epochs = true;
  return config;
}

TEST(MachineIncrementalTest, CleanEpochsReplayWithoutSolving) {
  SimulatedMachine machine(VectorizedIncremental());
  LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 0u);
  for (int i = 0; i < 50; ++i) {
    machine.AdvanceTime(0.1);
  }
  EXPECT_EQ(machine.full_solves(), 1u)
      << "steady-state epochs must not re-solve";
  EXPECT_EQ(machine.partial_solves(), 0u);
}

TEST(MachineIncrementalTest, BandwidthOnlyMutationsTakePartialSolve) {
  SimulatedMachine machine(VectorizedIncremental());
  const std::vector<AppId> apps = LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);

  machine.SetClosMbaLevel(1, MbaLevel::FromPercentChecked(40));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 1u)
      << "an MBA-only change must reuse the capacity fixed point";

  machine.SetAppRequiredIps(apps[0], 1e9);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 2u);

  machine.SetAppRequiredIps(apps[0], std::nullopt);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 3u);
}

TEST(MachineIncrementalTest, CapacityMutationsForceFullSolve) {
  SimulatedMachine machine(VectorizedIncremental());
  const std::vector<AppId> apps = LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);

  machine.SetClosWayMask(1, WayMask::Contiguous(0, 4));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 2u)
      << "a way-mask change invalidates the capacity fixed point";
  EXPECT_EQ(machine.partial_solves(), 0u);

  machine.AssignAppToClos(apps[2], 1);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 3u);

  Result<AppId> extra = machine.LaunchApp(Raytrace(), 2);
  ASSERT_TRUE(extra.ok());
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 4u);

  ASSERT_TRUE(machine.TerminateApp(*extra).ok());
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 5u);
  EXPECT_EQ(machine.partial_solves(), 0u);
}

TEST(MachineIncrementalTest, MixedMutationsEscalateToFullSolve) {
  // When one epoch sees both a bandwidth-tier and a capacity-tier mutation,
  // the capacity tier wins: the epoch must solve in full.
  SimulatedMachine machine(VectorizedIncremental());
  LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);

  machine.SetClosMbaLevel(2, MbaLevel::FromPercentChecked(30));
  machine.SetClosWayMask(2, WayMask::Contiguous(2, 5));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 2u);
  EXPECT_EQ(machine.partial_solves(), 0u);
}

TEST(MachineIncrementalTest, ValueIdenticalWritesStayClean) {
  SimulatedMachine machine(VectorizedIncremental());
  const std::vector<AppId> apps = LaunchThreeSteadyApps(machine);
  machine.SetClosWayMask(1, WayMask::Contiguous(0, 4));
  machine.SetClosMbaLevel(1, MbaLevel::FromPercentChecked(40));
  machine.SetAppRequiredIps(apps[0], 1e9);
  machine.AdvanceTime(0.1);
  const uint64_t full = machine.full_solves();
  const uint64_t partial = machine.partial_solves();

  // Rewriting the exact same state must not dirty anything.
  machine.SetClosWayMask(1, WayMask::Contiguous(0, 4));
  machine.SetClosMbaLevel(1, MbaLevel::FromPercentChecked(40));
  machine.SetAppRequiredIps(apps[0], 1e9);
  machine.AssignAppToClos(apps[0], machine.AppClos(apps[0]));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), full)
      << "no-op mutator writes must leave the epoch clean";
  EXPECT_EQ(machine.partial_solves(), partial);
}

TEST(MachineIncrementalTest, IncrementalOffSolvesEveryEpoch) {
  MachineConfig config = VectorizedIncremental();
  config.incremental_epochs = false;
  SimulatedMachine machine(config);
  LaunchThreeSteadyApps(machine);
  for (int i = 0; i < 10; ++i) {
    machine.AdvanceTime(0.1);
  }
  EXPECT_EQ(machine.full_solves(), 10u);
  EXPECT_EQ(machine.partial_solves(), 0u)
      << "the partial tier requires incremental_epochs";
}

TEST(MachineIncrementalTest, ScalarKernelNeverTakesPartialTier) {
  MachineConfig config = VectorizedIncremental();
  config.epoch_kernel = EpochKernel::kScalar;
  SimulatedMachine machine(config);
  LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);

  // Clean epochs still replay (the dirty set is kernel-independent)...
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);

  // ...but bandwidth-only dirt re-solves in full: the scalar kernel is the
  // bit-identity reference and takes no shortcuts.
  machine.SetClosMbaLevel(1, MbaLevel::FromPercentChecked(40));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 2u);
  EXPECT_EQ(machine.partial_solves(), 0u);
}

TEST(MachineIncrementalTest, DisjointWayGroupsResolveAlone) {
  // Three CLOSes on disjoint masks form three way-groups: moving one
  // group's mask re-solves only that group's app; widening it onto a
  // neighbour's ways pulls the neighbour in.
  SimulatedMachine machine(VectorizedIncremental());
  LaunchThreeSteadyApps(machine);
  machine.SetClosWayMask(1, WayMask::Contiguous(0, 3));
  machine.SetClosWayMask(2, WayMask::Contiguous(3, 3));
  machine.SetClosWayMask(3, WayMask::Contiguous(6, 3));
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);
  ASSERT_EQ(machine.capacity_app_solves(), 3u);

  machine.SetClosWayMask(3, WayMask::Contiguous(7, 3));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 2u);
  EXPECT_EQ(machine.capacity_app_solves(), 4u)
      << "only CLOS 3's app shares a way with the moved mask";

  machine.SetClosWayMask(3, WayMask::Contiguous(5, 3));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 3u);
  EXPECT_EQ(machine.capacity_app_solves(), 6u)
      << "way 5 is shared with CLOS 2, whose app joins the re-solve";
}

TEST(MachineIncrementalTest, ForcedDirtyAlwaysResolves) {
  // Alternating a CLOS mask between two values every epoch defeats the
  // cache entirely: every tick must be a fresh full solve, and the counter
  // must track epochs 1:1.
  SimulatedMachine machine(VectorizedIncremental());
  LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);
  for (int i = 0; i < 20; ++i) {
    machine.SetClosWayMask(1, WayMask::Contiguous(i % 2 == 0 ? 0 : 4, 4));
    machine.AdvanceTime(0.1);
  }
  EXPECT_EQ(machine.full_solves(), 21u);
}

// The four kernel configurations, in KernelTwins order.
constexpr const char* kTwinNames[] = {"vectorized_incremental",
                                      "vectorized_full", "scalar_incremental",
                                      "scalar_full"};

// One machine per kernel configuration, all on `base` otherwise.
std::vector<SimulatedMachine> KernelTwins(const MachineConfig& base) {
  std::vector<SimulatedMachine> machines;
  for (const EpochKernel kernel :
       {EpochKernel::kVectorized, EpochKernel::kScalar}) {
    for (const bool incremental : {true, false}) {
      MachineConfig config = base;
      config.epoch_kernel = kernel;
      config.incremental_epochs = incremental;
      machines.emplace_back(config);
    }
  }
  return machines;
}

// Asserts every output of every app matches machines[0] bit for bit.
void ExpectTwinsBitIdentical(const std::vector<SimulatedMachine>& machines,
                             const std::vector<std::vector<AppId>>& apps,
                             int epoch) {
  for (size_t m = 1; m < machines.size(); ++m) {
    ASSERT_EQ(apps[m].size(), apps[0].size());
    for (size_t i = 0; i < apps[0].size(); ++i) {
      const AppEpochSnapshot& ref = machines[0].LastEpoch(apps[0][i]);
      const AppEpochSnapshot& got = machines[m].LastEpoch(apps[m][i]);
      const AppCounters& ref_counters = machines[0].Counters(apps[0][i]);
      const AppCounters& got_counters = machines[m].Counters(apps[m][i]);
      ASSERT_TRUE(SameBits(ref.ips, got.ips) &&
                  SameBits(ref.ips_capability, got.ips_capability) &&
                  SameBits(ref.miss_ratio, got.miss_ratio) &&
                  SameBits(ref.effective_capacity_bytes,
                           got.effective_capacity_bytes) &&
                  SameBits(ref.bandwidth_demand_bytes_per_sec,
                           got.bandwidth_demand_bytes_per_sec) &&
                  SameBits(ref.bandwidth_grant_bytes_per_sec,
                           got.bandwidth_grant_bytes_per_sec) &&
                  SameBits(ref_counters.instructions,
                           got_counters.instructions) &&
                  SameBits(ref_counters.llc_misses, got_counters.llc_misses))
          << "epoch " << epoch << " app " << i << ": " << kTwinNames[m]
          << " diverged from " << kTwinNames[0];
    }
  }
}

// Twin-machine bit-identity: four machines with every kernel configuration
// run the same randomized schedule (mask/MBA/required-IPS churn, a phased
// workload crossing boundaries, multiplicative noise) and must agree
// bitwise on every output of every epoch.
class MachineIncrementalTwinTest : public ::testing::TestWithParam<MrcMode> {};

TEST_P(MachineIncrementalTwinTest, AllKernelConfigsBitIdentical) {
  MachineConfig base;
  base.mrc_mode = GetParam();
  base.ips_noise_sigma = 0.01;

  std::vector<SimulatedMachine> machines = KernelTwins(base);
  std::vector<std::vector<AppId>> apps(machines.size());
  const std::vector<WorkloadDescriptor> workloads = {
      Sp(), Raytrace(), PhasedScanCompute(/*period_sec=*/1.0)};
  for (size_t m = 0; m < machines.size(); ++m) {
    for (size_t i = 0; i < workloads.size(); ++i) {
      Result<AppId> app = machines[m].LaunchApp(workloads[i], 2);
      ASSERT_TRUE(app.ok());
      apps[m].push_back(*app);
      machines[m].AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
    }
  }

  Rng rng(0xBEEFCAFEULL);
  const uint32_t num_ways = base.llc.num_ways;
  bool cap_on = false;
  for (int epoch = 0; epoch < 400; ++epoch) {
    if (rng.NextBool(0.05)) {
      const uint32_t clos = static_cast<uint32_t>(rng.NextInt(1, 3));
      const uint32_t width = static_cast<uint32_t>(rng.NextInt(2, 5));
      const uint32_t start = static_cast<uint32_t>(
          rng.NextInt(0, static_cast<int64_t>(num_ways - width)));
      for (SimulatedMachine& machine : machines) {
        machine.SetClosWayMask(clos, WayMask::Contiguous(start, width));
      }
    }
    if (rng.NextBool(0.1)) {
      const uint32_t clos = static_cast<uint32_t>(rng.NextInt(1, 3));
      const MbaLevel level = MbaLevel::FromPercentChecked(
          10u * static_cast<uint32_t>(rng.NextInt(1, 10)));
      for (SimulatedMachine& machine : machines) {
        machine.SetClosMbaLevel(clos, level);
      }
    }
    if (rng.NextBool(0.03)) {
      cap_on = !cap_on;
      for (size_t m = 0; m < machines.size(); ++m) {
        machines[m].SetAppRequiredIps(
            apps[m][0], cap_on ? std::optional<double>(2e9) : std::nullopt);
      }
    }
    for (SimulatedMachine& machine : machines) {
      machine.AdvanceTime(0.01);
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectTwinsBitIdentical(machines, apps, epoch));
  }

  // The schedule must actually have exercised all three tiers on the
  // incremental vectorized machine, or the bit-identity claim above is
  // vacuous.
  EXPECT_GT(machines[0].full_solves(), 0u);
  EXPECT_GT(machines[0].partial_solves(), 0u);
  EXPECT_LT(machines[0].full_solves() + machines[0].partial_solves(), 400u)
      << "expected some clean replay epochs";
  // The full-solve variants solve every epoch.
  EXPECT_EQ(machines[1].full_solves(), 400u);
  EXPECT_EQ(machines[3].full_solves(), 400u);
}

// The way-scoped capacity tier: several apps per CLOS, apps hopping between
// CLOSes (so CLOSes empty and refill), masks that overlap across CLOSes (so
// dirty ways must be closed over sharing), phase crossings, a snapshot
// restored mid-schedule and an app launched and terminated — all four
// kernel configurations must still agree bit for bit.
TEST_P(MachineIncrementalTwinTest, WayScopedScheduleBitIdentical) {
  MachineConfig base;
  base.mrc_mode = GetParam();
  base.ips_noise_sigma = 0.01;

  constexpr uint32_t kClosCount = 6;  // CLOS 1..6 host apps.

  std::vector<SimulatedMachine> machines = KernelTwins(base);
  std::vector<std::vector<AppId>> apps(machines.size());
  const std::vector<WorkloadDescriptor> workloads = {
      Sp(),
      Raytrace(),
      PhasedScanCompute(/*period_sec=*/0.7),
      Cg(),
      Ft(),
      PhasedScanCompute(/*period_sec=*/1.3),
      Swaptions(),
      Fmm(),
      Ep(),
      Kmeans()};
  const uint32_t num_ways = base.llc.num_ways;
  for (size_t m = 0; m < machines.size(); ++m) {
    for (uint32_t c = 1; c <= kClosCount; ++c) {
      // Three-way masks stepping by two: neighbours share one way.
      machines[m].SetClosWayMask(
          c, WayMask::Contiguous(std::min(2 * (c - 1), num_ways - 3), 3));
    }
    for (size_t i = 0; i < workloads.size(); ++i) {
      Result<AppId> app = machines[m].LaunchApp(workloads[i], 1);
      ASSERT_TRUE(app.ok());
      apps[m].push_back(*app);
      machines[m].AssignAppToClos(
          *app, 1 + static_cast<uint32_t>(i % kClosCount));
    }
  }

  Rng rng(0x5C0BEDULL);
  std::vector<MachineSnapshot> snapshots;
  // Upper bound on the apps a whole-machine capacity solve would touch.
  uint64_t full_solve_apps = 0;
  for (int epoch = 0; epoch < 600; ++epoch) {
    // Scripted epochs carry a single capacity-tier event each, so a dirty
    // set that misses it cannot be covered by random churn.
    if (epoch == 150) {
      // Snapshot with a CLOS move still pending.
      const uint32_t clos = machines[0].AppClos(apps[0][0]) % kClosCount + 1;
      snapshots.clear();
      for (size_t m = 0; m < machines.size(); ++m) {
        machines[m].AssignAppToClos(apps[m][0], clos);
        snapshots.push_back(machines[m].Snapshot());
      }
    } else if (epoch == 250) {
      for (size_t m = 0; m < machines.size(); ++m) {
        machines[m].Restore(snapshots[m]);
      }
    } else if (epoch == 350) {
      // Launched into CLOS 0 and solved there for one epoch.
      for (size_t m = 0; m < machines.size(); ++m) {
        Result<AppId> app = machines[m].LaunchApp(Stream(), 1);
        ASSERT_TRUE(app.ok());
        apps[m].push_back(*app);
      }
    } else if (epoch == 351) {
      for (size_t m = 0; m < machines.size(); ++m) {
        machines[m].AssignAppToClos(apps[m].back(), 3);
      }
    } else if (epoch == 450) {
      for (size_t m = 0; m < machines.size(); ++m) {
        ASSERT_TRUE(machines[m].TerminateApp(apps[m][1]).ok());
        apps[m].erase(apps[m].begin() + 1);
      }
    } else {
      if (rng.NextBool(0.3)) {
        const size_t app =
            static_cast<size_t>(rng.NextUint64(apps[0].size()));
        const auto clos = static_cast<uint32_t>(rng.NextInt(1, kClosCount));
        for (size_t m = 0; m < machines.size(); ++m) {
          machines[m].AssignAppToClos(apps[m][app], clos);
        }
      }
      if (rng.NextBool(0.08)) {
        const auto clos = static_cast<uint32_t>(rng.NextInt(1, kClosCount));
        const auto width = static_cast<uint32_t>(rng.NextInt(1, 4));
        const auto start = static_cast<uint32_t>(
            rng.NextInt(0, static_cast<int64_t>(num_ways - width)));
        for (SimulatedMachine& machine : machines) {
          machine.SetClosWayMask(clos, WayMask::Contiguous(start, width));
        }
      }
      if (rng.NextBool(0.05)) {
        const auto clos = static_cast<uint32_t>(rng.NextInt(1, kClosCount));
        const MbaLevel level = MbaLevel::FromPercentChecked(
            10u * static_cast<uint32_t>(rng.NextInt(1, 10)));
        for (SimulatedMachine& machine : machines) {
          machine.SetClosMbaLevel(clos, level);
        }
      }
    }
    const uint64_t full_before = machines[0].full_solves();
    for (SimulatedMachine& machine : machines) {
      machine.AdvanceTime(0.01);
    }
    full_solve_apps +=
        (machines[0].full_solves() - full_before) * apps[0].size();
    ASSERT_NO_FATAL_FAILURE(
        ExpectTwinsBitIdentical(machines, apps, epoch));
  }

  // The way-scoped tier must have skipped clean groups, or the bit-identity
  // above says nothing about it; the whole-machine variant never skips.
  EXPECT_GT(machines[0].full_solves(), 100u);
  EXPECT_LT(machines[0].capacity_app_solves(), full_solve_apps)
      << "no capacity solve was scoped to the way-groups that moved";
  EXPECT_EQ(machines[1].full_solves(), 600u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, MachineIncrementalTwinTest,
                         ::testing::Values(MrcMode::kExact, MrcMode::kCompiled),
                         [](const ::testing::TestParamInfo<MrcMode>& info) {
                           return info.param == MrcMode::kExact ? "exact"
                                                                : "compiled";
                         });

}  // namespace
}  // namespace copart
