#include "core/policies.h"

#include "common/logging.h"

namespace copart {

StaticStatePolicy::StaticStatePolicy(Resctrl* resctrl, std::vector<AppId> apps,
                                     SystemState state, std::string name)
    : resctrl_(resctrl),
      apps_(std::move(apps)),
      state_(std::move(state)),
      name_(std::move(name)) {
  CHECK_NE(resctrl, nullptr);
  CHECK_EQ(apps_.size(), state_.NumApps());
}

void StaticStatePolicy::Start() {
  CHECK(state_.Valid());
  groups_.clear();
  for (size_t i = 0; i < apps_.size(); ++i) {
    Result<ResctrlGroupId> group = resctrl_->CreateGroup(
        name_ + "_app_" + std::to_string(apps_[i].value()));
    CHECK(group.ok()) << group.status().ToString();
    groups_.push_back(*group);
    Status status = resctrl_->AssignApp(*group, apps_[i]);
    CHECK(status.ok()) << status.ToString();
    status = resctrl_->SetCacheMask(*group, state_.WayMaskBits(i));
    CHECK(status.ok()) << status.ToString();
    status = resctrl_->SetMbaPercent(*group,
                                     state_.allocation(i).mba_level.percent());
    CHECK(status.ok()) << status.ToString();
  }
}

void StaticStatePolicy::Tick() {
  const SimulatedMachine& machine = resctrl_->machine();
  for (size_t i = 0; i < apps_.size(); ++i) {
    // An app the machine no longer knows (terminated mid-run) has nothing
    // to verify.
    if (!machine.AppExists(apps_[i])) {
      continue;
    }
    const uint32_t clos = machine.AppClos(apps_[i]);
    const uint32_t group_clos = groups_[i].clos();
    const bool assignment_ok = clos == group_clos;
    const bool mask_ok =
        machine.ClosWayMask(group_clos).bits() == state_.WayMaskBits(i);
    const bool mba_ok = machine.ClosMbaLevel(group_clos) ==
                        state_.allocation(i).mba_level;
    if (assignment_ok && mask_ok && mba_ok) {
      continue;
    }
    ++drifts_detected_;
    // Best-effort re-apply: the same fault window that rolled the state
    // back may still be open, so a failed repair is retried next tick
    // rather than escalated.
    bool repaired = true;
    if (!assignment_ok) {
      repaired &= resctrl_->AssignApp(groups_[i], apps_[i]).ok();
    }
    if (!mask_ok) {
      repaired &=
          resctrl_->SetCacheMask(groups_[i], state_.WayMaskBits(i)).ok();
    }
    if (!mba_ok) {
      repaired &= resctrl_
                      ->SetMbaPercent(groups_[i],
                                      state_.allocation(i).mba_level.percent())
                      .ok();
    }
    if (repaired) {
      ++drifts_repaired_;
    }
  }
}

std::unique_ptr<ConsolidationPolicy> MakeEqualPolicy(
    Resctrl* resctrl, std::vector<AppId> apps, const ResourcePool& pool) {
  SystemState state = SystemState::EqualShareThrottled(pool, apps.size());
  return std::make_unique<StaticStatePolicy>(resctrl, std::move(apps),
                                             std::move(state), "EQ");
}

std::unique_ptr<ConsolidationPolicy> MakeStaticOraclePolicy(
    Resctrl* resctrl, std::vector<AppId> apps, SystemState best_state) {
  return std::make_unique<StaticStatePolicy>(resctrl, std::move(apps),
                                             std::move(best_state), "ST");
}

NoPartitionPolicy::NoPartitionPolicy(Resctrl* resctrl, std::vector<AppId> apps)
    : resctrl_(resctrl), apps_(std::move(apps)) {
  CHECK_NE(resctrl, nullptr);
}

void NoPartitionPolicy::Start() {
  // Leave every app in the default group: full mask, MBA 100 — exactly how
  // an unmanaged machine runs.
  for (AppId app : apps_) {
    Status status = resctrl_->AssignApp(resctrl_->DefaultGroup(), app);
    CHECK(status.ok()) << status.ToString();
  }
}

ManagedPartitionPolicy::ManagedPartitionPolicy(Resctrl* resctrl,
                                               PerfMonitor* monitor,
                                               std::vector<AppId> apps,
                                               const ResourcePool& pool,
                                               ResourceManagerParams params,
                                               std::string name)
    : apps_(std::move(apps)), pool_(pool), name_(std::move(name)) {
  manager_ = std::make_unique<ResourceManager>(resctrl, monitor, params);
}

void ManagedPartitionPolicy::Start() {
  manager_->SetResourcePool(pool_);
  unmanaged_apps_ = 0;
  for (AppId app : apps_) {
    if (!manager_->AddApp(app).ok()) {
      // Rejected (way/CLOS budget exhausted): the app keeps running in the
      // default group, unpartitioned.
      ++unmanaged_apps_;
    }
  }
}

void ManagedPartitionPolicy::Tick() {
  if (manager_->NumApps() > 0) {
    manager_->Tick();
  }
}

}  // namespace copart
