// The policy layer: EQ/ST/UCP static policies, NoPart, and CoPart with
// its single-resource ablations.
#include "core/policies.h"

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "harness/experiment.h"
#include "workload/workload.h"

namespace copart {
namespace {

class PoliciesTest : public ::testing::Test {
 protected:
  PoliciesTest() : machine_(MakeConfig()), resctrl_(&machine_),
                   monitor_(&machine_) {
    for (const WorkloadDescriptor& descriptor :
         {WaterNsquared(), Cg(), Sp(), Swaptions()}) {
      Result<AppId> app = machine_.LaunchApp(descriptor, 4);
      CHECK(app.ok());
      apps_.push_back(*app);
    }
  }

  static MachineConfig MakeConfig() {
    MachineConfig config;
    config.ips_noise_sigma = 0.0;
    return config;
  }

  ResourcePool FullPool() const {
    return ResourcePool{.first_way = 0, .num_ways = 11,
                        .max_mba_percent = 100};
  }

  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  std::vector<AppId> apps_;
};

TEST_F(PoliciesTest, EqualPolicyAppliesEqualDisjointPartitions) {
  auto policy = MakeEqualPolicy(&resctrl_, apps_, FullPool());
  EXPECT_EQ(policy->name(), "EQ");
  policy->Start();
  // (3,3,3,2) ways, MBA 30 (= round10(100/4)) each, disjoint masks.
  uint64_t seen = 0;
  for (AppId app : apps_) {
    const uint32_t clos = machine_.AppClos(app);
    EXPECT_NE(clos, 0u);
    const uint64_t bits = machine_.ClosWayMask(clos).bits();
    EXPECT_EQ(seen & bits, 0u) << "masks overlap";
    seen |= bits;
    EXPECT_EQ(machine_.ClosMbaLevel(clos).percent(), 30u);
  }
  EXPECT_EQ(seen, 0x7FFu);
}

TEST_F(PoliciesTest, NoPartitionPolicyLeavesDefaults) {
  NoPartitionPolicy policy(&resctrl_, apps_);
  policy.Start();
  for (AppId app : apps_) {
    EXPECT_EQ(machine_.AppClos(app), 0u);
  }
  EXPECT_EQ(machine_.ClosWayMask(0).bits(), 0x7FFu);
  EXPECT_EQ(machine_.ClosMbaLevel(0).percent(), 100u);
}

TEST_F(PoliciesTest, StaticOraclePolicyAppliesGivenState) {
  std::vector<AppAllocation> allocations(4);
  allocations[0] = {.llc_ways = 5,
                    .mba_level = MbaLevel::FromPercentChecked(100)};
  allocations[1] = {.llc_ways = 3,
                    .mba_level = MbaLevel::FromPercentChecked(80)};
  allocations[2] = {.llc_ways = 2,
                    .mba_level = MbaLevel::FromPercentChecked(60)};
  allocations[3] = {.llc_ways = 1,
                    .mba_level = MbaLevel::FromPercentChecked(10)};
  const SystemState state(FullPool(), allocations);
  auto policy = MakeStaticOraclePolicy(&resctrl_, apps_, state);
  EXPECT_EQ(policy->name(), "ST");
  policy->Start();
  EXPECT_EQ(machine_.ClosWayMask(machine_.AppClos(apps_[0])).bits(), 0x01Fu);
  EXPECT_EQ(machine_.ClosWayMask(machine_.AppClos(apps_[3])).bits(), 0x400u);
  EXPECT_EQ(machine_.ClosMbaLevel(machine_.AppClos(apps_[3])).percent(), 10u);
}

// Drift repair runs for every StaticStatePolicy, whichever factory built
// it.
class StaticPolicyDriftTest
    : public PoliciesTest,
      public ::testing::WithParamInterface<
          std::pair<std::string, PolicyFactory>> {};

TEST_P(StaticPolicyDriftTest, TickRepairsDriftedState) {
  auto policy = GetParam().second(&resctrl_, &monitor_, apps_, FullPool());
  EXPECT_EQ(policy->name(), GetParam().first);
  auto* static_policy = dynamic_cast<StaticStatePolicy*>(policy.get());
  ASSERT_NE(static_policy, nullptr);
  policy->Start();
  const uint32_t clos = machine_.AppClos(apps_[0]);
  const uint64_t mask = machine_.ClosWayMask(clos).bits();
  const uint32_t mba = machine_.ClosMbaLevel(clos).percent();
  ASSERT_EQ(mask & 1u, 1u) << "app 0 holds the pool's first way";

  // A drift-free tick is a no-op.
  policy->Tick();
  EXPECT_EQ(static_policy->drifts_detected(), 0u);

  // External drift (a fault rolled back a write, an operator fat-fingered
  // the schemata): the next tick must detect and repair it.
  machine_.SetClosWayMask(clos, WayMask::Contiguous(10, 1));
  machine_.SetClosMbaLevel(clos, MbaLevel::FromPercentChecked(10));
  policy->Tick();
  EXPECT_EQ(static_policy->drifts_detected(), 1u);
  EXPECT_EQ(static_policy->drifts_repaired(), 1u);
  EXPECT_EQ(machine_.ClosWayMask(clos).bits(), mask);
  EXPECT_EQ(machine_.ClosMbaLevel(clos).percent(), mba);
}

INSTANTIATE_TEST_SUITE_P(
    Factories, StaticPolicyDriftTest,
    ::testing::Values(std::make_pair(std::string("EQ"), EqFactory()),
                      std::make_pair(std::string("UCP"), UcpFactory())),
    [](const auto& info) { return info.param.first; });

TEST(StaticPolicyFaultTest, TickRetriesRepairUntilTheSubstrateRecovers) {
  FaultInjector injector(0xE44ULL);
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  config.fault_injector = &injector;
  SimulatedMachine machine(config);
  Resctrl resctrl(&machine);
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : {WaterNsquared(), Cg()}) {
    Result<AppId> app = machine.LaunchApp(descriptor, 4);
    CHECK(app.ok());
    apps.push_back(*app);
  }
  std::vector<AppAllocation> allocations(2);
  allocations[0] = {.llc_ways = 8,
                    .mba_level = MbaLevel::FromPercentChecked(100)};
  allocations[1] = {.llc_ways = 3,
                    .mba_level = MbaLevel::FromPercentChecked(100)};
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  auto policy =
      MakeStaticOraclePolicy(&resctrl, apps, SystemState(pool, allocations));
  auto* static_policy = static_cast<StaticStatePolicy*>(policy.get());
  policy->Start();
  const uint32_t clos = machine.AppClos(apps[0]);

  // Drift the mask while schemata writes are hard-failing: Tick() must
  // count the drift but cannot repair it yet — and must not crash.
  machine.SetClosWayMask(clos, WayMask::Contiguous(0, 1));
  FaultSpec down;
  down.probability = 1.0;
  injector.Arm(fault_points::kResctrlSetL3, down);
  policy->Tick();
  EXPECT_EQ(static_policy->drifts_detected(), 1u);
  EXPECT_EQ(static_policy->drifts_repaired(), 0u);
  EXPECT_EQ(machine.ClosWayMask(clos).bits(), 0x001u);

  // Substrate recovers: the next tick completes the repair.
  injector.DisarmAll();
  policy->Tick();
  EXPECT_EQ(static_policy->drifts_detected(), 2u);
  EXPECT_EQ(static_policy->drifts_repaired(), 1u);
  EXPECT_EQ(machine.ClosWayMask(clos).bits(), 0x0FFu);
}

TEST_F(PoliciesTest, CoPartModesGateTheirResources) {
  {
    auto policy = CatOnlyFactory()(&resctrl_, &monitor_, apps_, FullPool());
    auto* managed = dynamic_cast<ManagedPartitionPolicy*>(policy.get());
    ASSERT_NE(managed, nullptr);
    EXPECT_EQ(policy->name(), "CAT-only");
    policy->Start();
    for (int i = 0; i < 200; ++i) {
      machine_.AdvanceTime(0.5);
      policy->Tick();
    }
    // MBA frozen at the equal static share for every app.
    for (size_t i = 0; i < apps_.size(); ++i) {
      EXPECT_EQ(managed->manager().current_state().allocation(i).mba_level
                    .percent(),
                30u);
    }
  }
}

TEST_F(PoliciesTest, MbaOnlyKeepsWaysEqual) {
  auto policy = MbaOnlyFactory()(&resctrl_, &monitor_, apps_, FullPool());
  auto* managed = dynamic_cast<ManagedPartitionPolicy*>(policy.get());
  ASSERT_NE(managed, nullptr);
  EXPECT_EQ(policy->name(), "MBA-only");
  policy->Start();
  for (int i = 0; i < 200; ++i) {
    machine_.AdvanceTime(0.5);
    policy->Tick();
  }
  const SystemState& state = managed->manager().current_state();
  EXPECT_EQ(state.allocation(0).llc_ways, 3u);
  EXPECT_EQ(state.allocation(3).llc_ways, 2u);
}

TEST_F(PoliciesTest, CoordinatedModeMovesBothResources) {
  auto policy = CoPartFactory()(&resctrl_, &monitor_, apps_, FullPool());
  auto* managed = dynamic_cast<ManagedPartitionPolicy*>(policy.get());
  ASSERT_NE(managed, nullptr);
  EXPECT_EQ(policy->name(), "CoPart");
  policy->Start();
  for (int i = 0; i < 200; ++i) {
    machine_.AdvanceTime(0.5);
    policy->Tick();
  }
  const SystemState& state = managed->manager().current_state();
  // The insensitive app (index 3) must have been drained of ways and the
  // LLC split differentiated away from the equal (3,3,3,2) start. (MBA may
  // legitimately stay uniform: with ample bandwidth the fairest levels are
  // all at the ceiling.)
  EXPECT_EQ(state.allocation(3).llc_ways, 1u);
  EXPECT_NE(state.allocation(0).llc_ways, state.allocation(3).llc_ways);
  EXPECT_TRUE(state.Valid());
}

}  // namespace
}  // namespace copart
