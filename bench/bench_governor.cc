// Throughput of the pluggable SLO governors (src/slo, DESIGN.md §15):
// epochs/sec of the full SLO-mode serve loop — machine epoch, LC queue
// service, governor re-plan, outcome feedback, CoPart tick — once per
// registered governor under the same steady Poisson scenario. Writes
// BENCH_governor.json (committed at the repo root as the baseline):
// tools/bench_gate band-gates every per-governor point (>20% regression
// fails) and holds learned_overhead_pct — the learned governors'
// managed-loop overhead versus the threshold loop — under its 10% limit:
// the learned bookkeeping (MPC correction cells, bandit arm tables) must
// stay a rounding error next to the epoch solve itself.
//
// Flags: --json=PATH, --min-seconds=S (see BenchReport::ParseFlags).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "harness/serve.h"
#include "slo/slo_governor.h"
#include "workload/workload.h"

namespace copart {
namespace {

using Clock = std::chrono::steady_clock;

double Elapsed(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Epochs/sec of the SLO-mode serve loop with the named governor planning
// the LC slice. Same machine and load as bench_serve's slo_loop point so
// the threshold number here stays comparable to that baseline.
double MeasureGovernorEpochsPerSec(const std::string& governor,
                                   double min_seconds) {
  ServeScenarioConfig config = Section63ServeScenario();
  config.lc_apps[0].arrival.kind = ArrivalKind::kPoisson;
  config.lc_apps[0].arrival.base_rate_rps = 120000.0;
  config.lc_apps[0].arrival.burst_phases.clear();
  config.duration_sec = 60.0;
  config.mode = ServeMode::kCopartSlo;
  config.copart_params.slo.governor = governor;
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
  const std::vector<std::string> governors = RegisteredSloGovernorNames();
  CHECK(!governors.empty());

  std::vector<double> epochs_per_sec;
  double threshold_eps = 0.0;
  for (const std::string& governor : governors) {
    const double eps =
        MeasureGovernorEpochsPerSec(governor, report.min_seconds());
    std::printf("governor: %s_epochs_per_sec=%.0f\n", governor.c_str(), eps);
    epochs_per_sec.push_back(eps);
    if (governor == "threshold") {
      threshold_eps = eps;
    }
  }
  CHECK_GT(threshold_eps, 0.0);

  // The headline overhead: the SLOWEST learned governor's managed loop
  // priced against the threshold loop. Positive = learned is slower.
  double worst_overhead_pct = 0.0;
  for (size_t i = 0; i < governors.size(); ++i) {
    if (governors[i] == "threshold") {
      continue;
    }
    const double pct = 100.0 * (threshold_eps / epochs_per_sec[i] - 1.0);
    if (pct > worst_overhead_pct) {
      worst_overhead_pct = pct;
    }
  }
  std::printf("governor: learned_overhead_pct=%.2f\n", worst_overhead_pct);

  report.Add("learned_overhead_pct", worst_overhead_pct, 2, "%",
             BenchGate::kMax, 10.0);
  for (size_t i = 0; i < governors.size(); ++i) {
    report.Add(governors[i] + "_epochs_per_sec", epochs_per_sec[i], 1,
               "epochs/s", BenchGate::kBand);
  }
  return report.Write();
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  copart::BenchReport report("governor");
  if (!report.ParseFlags(argc, argv)) {
    return 2;
  }
  return copart::Run(report);
}
