// The resource allocation policies evaluated in the paper (§6.1):
//
//   EQ        — equal LLC ways and equal MBA share per app, static.
//   ST        — the best static state found by extensive offline search
//               (the state is computed by harness/static_oracle.h).
//   CAT-only  — dynamic LLC partitioning (CoPart machinery restricted to
//               LLC moves), equal static MBA.
//   MBA-only  — dynamic MBA partitioning, equal static LLC.
//   CoPart    — coordinated dynamic partitioning of both resources.
//   NoPart    — no partitioning at all (every app in a full-mask group at
//               MBA 100); the normalization baseline of Figs. 4-6.
//
// One wrapper per mechanism: StaticStatePolicy installs a fixed
// SystemState (EQ, ST, UCP, the serve harness's EqualShare) and
// ManagedPartitionPolicy drives a ResourceManager (CoPart, CAT-only,
// MBA-only and the partition-policy registry). NoPart and dCat
// (core/dcat_policy.h) are the only other implementations.
//
// All policies actuate through resctrl only, and share a common driving
// convention: Start() once after the apps are launched, then Tick() after
// every control period.
#ifndef COPART_CORE_POLICIES_H_
#define COPART_CORE_POLICIES_H_

#include <memory>
#include <string>
#include <vector>

#include "core/resource_manager.h"
#include "core/system_state.h"
#include "machine/app_id.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"

namespace copart {

class ConsolidationPolicy {
 public:
  virtual ~ConsolidationPolicy() = default;

  virtual std::string name() const = 0;
  virtual void Start() = 0;
  virtual void Tick() = 0;
};

// Applies a fixed SystemState once; used for EQ, ST, UCP and the serve
// harness's EqualShare. Tick() re-verifies the actuated
// masks/levels/assignments against the machine and re-applies any that
// drifted (a resctrl fault can fail or roll back a write after
// Start() has returned — a static policy that never looks again would run
// the rest of the experiment on the wrong partitioning).
class StaticStatePolicy : public ConsolidationPolicy {
 public:
  StaticStatePolicy(Resctrl* resctrl, std::vector<AppId> apps,
                    SystemState state, std::string name);

  std::string name() const override { return name_; }
  void Start() override;
  void Tick() override;

  // Tick() readback mismatches seen / successfully repaired, cumulative.
  uint64_t drifts_detected() const { return drifts_detected_; }
  uint64_t drifts_repaired() const { return drifts_repaired_; }

 private:
  Resctrl* resctrl_;
  std::vector<AppId> apps_;
  std::vector<ResctrlGroupId> groups_;
  SystemState state_;
  std::string name_;
  uint64_t drifts_detected_ = 0;
  uint64_t drifts_repaired_ = 0;
};

// Builds the EQ baseline: equal ways, MBA level ~= pool_ceiling / num_apps.
std::unique_ptr<ConsolidationPolicy> MakeEqualPolicy(
    Resctrl* resctrl, std::vector<AppId> apps, const ResourcePool& pool);

// Builds the ST baseline from a precomputed offline-best state.
std::unique_ptr<ConsolidationPolicy> MakeStaticOraclePolicy(
    Resctrl* resctrl, std::vector<AppId> apps, SystemState best_state);

// No partitioning: all apps share the full LLC at MBA 100.
class NoPartitionPolicy : public ConsolidationPolicy {
 public:
  NoPartitionPolicy(Resctrl* resctrl, std::vector<AppId> apps);

  std::string name() const override { return "NoPart"; }
  void Start() override;
  void Tick() override {}

 private:
  Resctrl* resctrl_;
  std::vector<AppId> apps_;
};

// Drives a ResourceManager: every dynamic policy — CoPart, its CAT-only
// and MBA-only ablations (ResourceManagerParams::enable_*_partitioning),
// and the named partition policies of the core/partition_policy.h
// registry ("copart", "lfoc", "lfoc+", "cbp"). AddApp failures are
// tolerated: per-app CoPart refuses apps beyond its way/CLOS budget, and
// this wrapper leaves those apps unmanaged in the default group (full
// mask, MBA 100) and counts them — exactly what a consolidation daemon at
// the CLOS wall would do. The experiment and A/B harnesses report that
// count.
class ManagedPartitionPolicy : public ConsolidationPolicy {
 public:
  ManagedPartitionPolicy(Resctrl* resctrl, PerfMonitor* monitor,
                         std::vector<AppId> apps, const ResourcePool& pool,
                         ResourceManagerParams params, std::string name);

  std::string name() const override { return name_; }
  void Start() override;
  void Tick() override;

  ResourceManager& manager() { return *manager_; }
  size_t unmanaged_apps() const { return unmanaged_apps_; }

 private:
  std::vector<AppId> apps_;
  ResourcePool pool_;
  std::string name_;
  size_t unmanaged_apps_ = 0;
  std::unique_ptr<ResourceManager> manager_;
};

}  // namespace copart

#endif  // COPART_CORE_POLICIES_H_
