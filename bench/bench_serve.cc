// Throughput of the request-serving subsystem (src/serve + the SLO-mode
// control loop): how many requests/sec the discrete-event engine can
// simulate, and epochs/sec of the full serve scenario — machine epoch,
// LC queue service, governor re-plan, CoPart tick — with SLO mode on.
// Writes BENCH_serve.json (committed at the repo root as the baseline);
// both points are band-gated by tools/bench_gate, so either regressing
// >20% fails tools/run_perf_smoke.sh.
//
// Flags: --json=PATH, --min-seconds=S (see BenchReport::ParseFlags).
#include <chrono>
#include <cstdio>

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/rng.h"
#include "harness/serve.h"
#include "serve/serve_engine.h"
#include "workload/workload.h"

namespace copart {
namespace {

using Clock = std::chrono::steady_clock;

double Elapsed(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Raw engine speed: one LC queue at high offered load and fixed service
// capability, no machine or controller attached. Reports simulated
// requests (completions) per wall-clock second.
double MeasureRequestsPerSec(double min_seconds) {
  LcServerConfig config;
  config.name = "bench";
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.base_rate_rps = 200000.0;
  config.instructions_per_request = 60000.0;
  LcServer server(config, Rng(42));
  const double capability_ips = 1.68e10;  // mu ~ 280 krps: stable queue.
  for (int i = 0; i < 16; ++i) {
    server.AdvanceEpoch(0.1, capability_ips);  // Warm up.
  }
  const uint64_t warm = server.total_completions();
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < 64; ++i) {
      server.AdvanceEpoch(0.1, capability_ips);
    }
    elapsed = Elapsed(start);
  } while (elapsed < min_seconds);
  const uint64_t simulated = server.total_completions() - warm;
  return static_cast<double>(simulated) / elapsed;
}

// Epochs/sec of the full SLO-mode serve loop: the §6.3 machine (memcached
// surrogate + two batch apps) under a steady Poisson load, driven through
// RunServeScenario — machine epoch, queue service, governor re-plan and
// CoPart tick per epoch, exactly the product path.
double MeasureSloEpochsPerSec(double min_seconds) {
  ServeScenarioConfig config = Section63ServeScenario();
  config.lc_apps[0].arrival.kind = ArrivalKind::kPoisson;
  config.lc_apps[0].arrival.base_rate_rps = 120000.0;
  config.lc_apps[0].arrival.burst_phases.clear();
  config.duration_sec = 60.0;
  config.mode = ServeMode::kCopartSlo;
  const double epochs_per_run =
      config.duration_sec / config.control_period_sec;
  long epochs = 0;
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const ServeScenarioResult result = RunServeScenario(config);
    CHECK_EQ(result.samples.size(), static_cast<size_t>(epochs_per_run));
    epochs += static_cast<long>(epochs_per_run);
    elapsed = Elapsed(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(epochs) / elapsed;
}

int Run(BenchReport& report) {
  const double requests_per_sec = MeasureRequestsPerSec(report.min_seconds());
  std::printf("serve: engine_requests_per_sec=%.0f\n", requests_per_sec);
  const double slo_epochs_per_sec =
      MeasureSloEpochsPerSec(report.min_seconds());
  std::printf("serve: slo_loop_epochs_per_sec=%.0f\n", slo_epochs_per_sec);
  report.Add("engine_requests_per_sec", requests_per_sec, 1, "requests/s",
             BenchGate::kBand);
  report.Add("slo_loop_epochs_per_sec", slo_epochs_per_sec, 1, "epochs/s",
             BenchGate::kBand);
  return report.Write();
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  copart::BenchReport report("serve");
  if (!report.ParseFlags(argc, argv)) {
    return 2;
  }
  return copart::Run(report);
}
