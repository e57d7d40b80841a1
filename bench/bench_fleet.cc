// Throughput and robustness outcomes of the fleet layer (src/cluster/fleet
// + harness/fleet): node-ticks/sec of the parallel fleet control loop, and
// the deterministic outcome of the canonical robustness scenario — fleet
// p99 slowdown, migration/rollback counts, and crash-wave recovery time.
// Writes BENCH_fleet.json (committed at the repo root as the baseline):
// tools/bench_gate band-gates the throughput point (>20% regression fails)
// and EXACT-gates the outcome points: they are pure functions of the seed,
// so any drift is a behavior change that must be a deliberate baseline
// refresh, not noise.
//
// Flags: --json=PATH, --min-seconds=S (measurement time for the throughput
// point; see BenchReport::ParseFlags).
#include <chrono>
#include <cstdio>

#include "cluster/fleet.h"
#include "common/json_writer.h"
#include "harness/fleet.h"
#include "workload/workload.h"

namespace copart {
namespace {

using Clock = std::chrono::steady_clock;

double Elapsed(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The canonical robustness scenario: the copartctl `fleet` demo at 128
// nodes — diurnal arrivals, background faults, a 10% crash wave — whose
// outcome fields are deterministic and exact-gated.
FleetScenarioConfig CanonicalScenario() {
  FleetScenarioConfig config;
  config.num_nodes = 128;
  config.epochs = 180;
  config.job_arrivals.base_rate_rps =
      0.15 * static_cast<double>(config.num_nodes);
  config.crash_wave_epoch = 45;
  config.crash_probability = 0.0002;
  config.slow_probability = 0.002;
  config.blackout_probability = 0.002;
  return config;
}

// Alive-node ticks per wall-clock second of the parallel fleet control
// loop, measured on a steadily loaded fleet with no faults (so the work
// per epoch is stable and the number is comparable across runs).
double MeasureNodeTicksPerSec(double min_seconds) {
  FleetParams params;
  params.machine.ips_noise_sigma = 0.005;
  FleetController fleet(128, params);
  FleetJobSpec spec;
  spec.workload = Swaptions();
  spec.cores = 2;
  for (size_t i = 0; i < 4 * fleet.NumNodes(); ++i) {
    if (!fleet.Submit(spec).ok()) {
      break;
    }
  }
  for (int i = 0; i < 4; ++i) {
    fleet.RunEpoch();  // Warm up (manager profiling phases).
  }
  const uint64_t warm = fleet.node_ticks();
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < 8; ++i) {
      fleet.RunEpoch();
    }
    elapsed = Elapsed(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(fleet.node_ticks() - warm) / elapsed;
}

int Run(BenchReport& report) {
  const double node_ticks_per_sec =
      MeasureNodeTicksPerSec(report.min_seconds());
  std::printf("fleet: node_ticks_per_sec=%.0f\n", node_ticks_per_sec);

  const FleetScenarioResult r = RunFleetScenario(CanonicalScenario());
  std::printf(
      "fleet: p99_slowdown=%.4f migrations=%llu rollbacks=%llu "
      "recovery_epochs=%d violations=%llu\n",
      r.fleet_p99_slowdown,
      static_cast<unsigned long long>(r.counters.migrations_completed),
      static_cast<unsigned long long>(r.counters.migration_rollbacks),
      r.recovery_epochs,
      static_cast<unsigned long long>(r.counters.invariant_violations));
  if (r.counters.invariant_violations > 0) {
    std::fprintf(stderr, "fleet: invariant violations in the canonical "
                         "scenario: %s\n",
                 r.first_violation.c_str());
    return 1;
  }

  report.Add("fleet_node_ticks_per_sec", node_ticks_per_sec, 1,
             "node_ticks/s", BenchGate::kBand);
  report.Add("fleet_p99_slowdown", r.fleet_p99_slowdown, 4, "ratio",
             BenchGate::kExact);
  report.Add("fleet_migrations",
             static_cast<double>(r.counters.migrations_completed), 0, "count",
             BenchGate::kExact);
  report.Add("fleet_migration_rollbacks",
             static_cast<double>(r.counters.migration_rollbacks), 0, "count",
             BenchGate::kExact);
  report.Add("fleet_recovery_epochs", r.recovery_epochs, 0, "epochs",
             BenchGate::kExact);
  return report.Write();
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  copart::BenchReport report("fleet");
  if (!report.ParseFlags(argc, argv)) {
    return 2;
  }
  return copart::Run(report);
}
