// Deterministic fault injection for the actuation/monitoring substrate.
//
// Production consolidation daemons must survive a control surface that
// misbehaves: /sys/fs/resctrl writes can return transient -EBUSY, CLOS
// allocation can exhaust, schemata writes can partially apply, and PMC
// reads can drop or saturate. The simulator reproduces those conditions
// through a FaultInjector: components expose *named fault points* (e.g.
// "resctrl.set_l3.unavailable", see resctrl/resctrl.h and
// pmc/perf_monitor.h) and consult the injector before/while mutating
// state. Tests and the chaos harness (harness/chaos.h) arm points with a
// FaultSpec; everything else runs with the injector disabled.
//
// Determinism contract (mirrors the parallel sweep engine's):
//   - Every fault point draws from its own generator, derived as
//     Rng(seed).Fork(Fnv1a64(point_name)). The derivation depends only on
//     the injector seed and the point name — NOT on arming order or on
//     queries made to other points — so a schedule replays bit-for-bit
//     from its seed alone (tests/common_fault_injector_test.cc,
//     harness_determinism_test.cc).
//   - Each ShouldFail() consumes exactly one draw from the point's stream
//     regardless of the outcome, keeping the schedule aligned with the
//     query index even across burst windows.
//
// Cost contract: the injector is compiled in everywhere but *free when
// absent*. Instrumented components hold a `FaultInjector*` that is null by
// default (MachineConfig::fault_injector), so the hot path pays one null
// compare. With an injector attached but no points armed, ShouldFail()
// returns after one counter bump and an empty-map check. The perf smoke
// (tools/run_perf_smoke.sh) runs bench_sim_throughput with an
// attached-but-disarmed injector and holds that report to every gate of
// BENCH_sim_throughput.json via tools/bench_gate to pin this.
#ifndef COPART_COMMON_FAULT_INJECTOR_H_
#define COPART_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace copart {

// Node-level fault domains for the fleet layer (src/cluster/fleet.h).
// Declared here — not in a component header like the resctrl/PMC points —
// because they model whole-machine failures that no single simulated
// component owns. The fleet controller queries each point once per node per
// epoch, in node-index order, on the serial control thread, so a schedule
// replays bit-for-bit from the injector seed at any --threads value.
namespace fault_points {
// The node dies: every resident job is lost, and the node reboots empty
// after FleetParams::crash_recovery_epochs.
inline constexpr std::string_view kNodeCrash = "fleet.node.crash";
// The node degrades (thermal throttling, a sick disk, a noisy neighbor
// hypervisor): its machine advances at FleetParams::slow_factor of real
// time for a fault window, so resident jobs fall behind.
inline constexpr std::string_view kNodeSlow = "fleet.node.slow";
// Actuation blackout: the node's CoPart controller cannot act (resctrl
// wedged, control daemon hung) for a fault window; the machine keeps
// running under the last applied partitioning.
inline constexpr std::string_view kNodeBlackout = "fleet.node.blackout";
}  // namespace fault_points

// How an armed fault point misbehaves. All three mechanisms compose: a
// query fails if it is inside a burst, listed as a one-shot, or loses the
// per-query Bernoulli draw — subject to the max_failures budget.
struct FaultSpec {
  // Per-query failure probability (clamped to [0, 1]).
  double probability = 0.0;

  // When a Bernoulli draw triggers, this many *consecutive* queries fail
  // (the triggering one included) — models sustained -EBUSY windows rather
  // than isolated blips. 1 = independent failures.
  uint32_t burst_length = 1;

  // Query indices (0-based, counted per point since arming) that fail
  // deterministically, independent of the probability draw. Lets a test
  // script an exact schedule ("the 3rd write fails").
  std::vector<uint64_t> one_shot_queries;

  // Total failures this point may produce before going quiescent;
  // UINT64_MAX = unlimited.
  uint64_t max_failures = UINT64_MAX;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  // Arms (or re-arms, resetting query/failure counts and the stream) the
  // named point.
  void Arm(std::string_view point, const FaultSpec& spec);

  // Disarms one point / all points. Disarmed points never fail.
  void Disarm(std::string_view point);
  void DisarmAll();

  // True when at least one point is armed.
  bool armed() const { return !points_.empty(); }

  // Consults (and advances) the named point. Unarmed points count the
  // query and return false.
  bool ShouldFail(std::string_view point);

  // Observability: queries/failures seen by one point since arming, and
  // totals across all points (armed or not).
  uint64_t PointQueries(std::string_view point) const;
  uint64_t PointFailures(std::string_view point) const;
  // Every point with recorded state (armed now or queried since arming),
  // sorted by name so exports iterate deterministically.
  std::vector<std::string> PointNames() const;
  uint64_t total_queries() const { return total_queries_; }
  uint64_t total_failures() const { return total_failures_; }

  // The pinned point-name hash (FNV-1a 64-bit) used to derive per-point
  // streams. Exposed for tests; must never change or armed schedules shift.
  static uint64_t HashPoint(std::string_view point);

 private:
  struct PointState {
    FaultSpec spec;
    Rng rng{0};
    uint64_t queries = 0;
    uint64_t failures = 0;
    uint32_t burst_remaining = 0;
  };

  uint64_t seed_;
  uint64_t total_queries_ = 0;
  uint64_t total_failures_ = 0;
  std::unordered_map<std::string, PointState> points_;
};

}  // namespace copart

#endif  // COPART_COMMON_FAULT_INJECTOR_H_
