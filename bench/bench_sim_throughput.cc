// Throughput of the simulation substrate itself: epochs/sec of the machine
// model in exact vs compiled MRC modes, plus microbenchmarks of the two
// MissRatio paths and the what-if evaluator. Every sweep in this repository
// is built out of these epochs, so this binary is the first point of the
// perf trajectory: it writes BENCH_sim_throughput.json (committed at the
// repo root as the baseline), and each point declares the gate
// tools/bench_gate holds fresh runs to — a 20% band on every epochs/sec
// point, ceilings on the overhead ratios, floors on the managed loop and
// the what-if speedup.
//
// Flags (--json/--min-seconds as in BenchReport::ParseFlags):
//   --json=PATH         where to write the JSON report
//   --min-seconds=S     measurement time per data point (default 0.25)
//   --fault-injector    attach a FaultInjector with no points armed — pins
//                       the "compiled in but disabled" cost of the fault
//                       substrate (tools/run_perf_smoke.sh gates this mode
//                       against the same baseline)
//   --scalar-check      no measurement: lockstep-run the vectorized,
//                       scalar and incremental epoch kernels over a seeded
//                       mutation schedule (mask/MBA/CLOS/required flips,
//                       phase crossings, snapshot/rollback, what-if parity)
//                       and exit non-zero on any bitwise divergence.
//                       tools/run_perf_smoke.sh runs this so vectorization
//                       can never silently change results.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cache/compiled_mrc.h"
#include "cache/way_mask.h"
#include "cache/way_partitioned_cache.h"
#include "common/fault_injector.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/resource_manager.h"
#include "core/system_state.h"
#include "harness/whatif.h"
#include "machine/simulated_machine.h"
#include "membw/mba.h"
#include "obs/obs.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

const char* ModeName(MrcMode mode) {
  return mode == MrcMode::kExact ? "exact" : "compiled";
}

// An epochs/sec point of `apps` apps under `mode`: a 20% band, plus an
// absolute `floor` when given.
void AddEpochsPoint(BenchReport& report, const std::string& mode, size_t apps,
                    double eps, std::optional<double> floor = std::nullopt) {
  report.Add(mode + "_" + std::to_string(apps) + "apps", eps, 1, "epochs/s",
             BenchGate::kBand, floor);
}

// Epochs/sec of a consolidated machine: `num_apps` Table 2 apps, each in
// its own CLOS with the default full mask, so the shared-capacity fixed
// point does real work every epoch. `incremental` off forces the full
// coupled solve every epoch (the historical meaning of these points);
// on, steady-state epochs take the replay fast path.
double MeasureEpochsPerSec(MrcMode mode, size_t num_apps, double min_seconds,
                           FaultInjector* injector, bool incremental) {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  config.mrc_mode = mode;
  config.incremental_epochs = incremental;
  config.fault_injector = injector;  // Null unless --fault-injector.
  SimulatedMachine machine(config);
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t i = 0; i < num_apps; ++i) {
    Result<AppId> app = machine.LaunchApp(registry[i % registry.size()], 2);
    CHECK(app.ok());
    machine.AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
  }
  // Warm up: compile the MRC tables and size the epoch scratch.
  for (int i = 0; i < 32; ++i) {
    machine.AdvanceTime(0.5);
  }

  using Clock = std::chrono::steady_clock;
  long epochs = 0;
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < 200; ++i) {
      machine.AdvanceTime(0.5);
    }
    epochs += 200;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(epochs) / elapsed;
}

// Epochs/sec of the full managed control loop: machine + resctrl + PMC +
// resource manager, ticked every epoch. `obs` is forwarded to the manager,
// so the same measurement pins both the no-observability baseline and the
// attached-but-disabled configuration (their ratio's limit is 2% — the
// "zero measurable cost when off" gate).
double MeasureManagedEpochsPerSec(size_t num_apps, double min_seconds,
                                  Observability* obs,
                                  const PmcSensingParams* sensing,
                                  bool incremental,
                                  const char* policy = nullptr) {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  config.mrc_mode = MrcMode::kCompiled;
  config.incremental_epochs = incremental;
  SimulatedMachine machine(config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  if (sensing != nullptr) {
    monitor.ConfigureSensing(*sensing);
  }
  ResourceManagerParams params;
  if (policy != nullptr) {
    params.partition_policy = policy;
  }
  ResourceManager manager(&resctrl, &monitor, params);
  manager.SetObservability(obs);
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t i = 0; i < num_apps; ++i) {
    Result<AppId> app = machine.LaunchApp(registry[i % registry.size()], 2);
    CHECK(app.ok());
    CHECK(manager.AddApp(*app).ok());
  }
  // Warm up past profiling and exploration into the idle steady state.
  for (int i = 0; i < 64; ++i) {
    machine.AdvanceTime(0.5);
    manager.Tick();
  }

  using Clock = std::chrono::steady_clock;
  long epochs = 0;
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < 200; ++i) {
      machine.AdvanceTime(0.5);
      manager.Tick();
    }
    epochs += 200;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(epochs) / elapsed;
}

// ns/query of one MissRatio path, swept over capacities like the epoch
// kernel would.
double MeasureMissRatioNs(MrcMode mode, double min_seconds) {
  const ReuseProfile& profile = Sp().reuse_profile;  // Needs the solver.
  (void)profile.MissRatio(MiB(2), mode);  // Warm the compiled table.
  using Clock = std::chrono::steady_clock;
  long queries = 0;
  double elapsed = 0.0;
  double sink = 0.0;
  uint64_t capacity = MiB(2);
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < 1000; ++i) {
      sink += profile.MissRatio(capacity, mode);
      capacity = capacity % MiB(22) + MiB(2);
    }
    queries += 1000;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  if (sink < 0.0) {  // Defeat dead-code elimination.
    std::fprintf(stderr, "%f\n", sink);
  }
  return elapsed / static_cast<double>(queries) * 1e9;
}

// The deterministic candidate-allocation schedule both what-if measurements
// score. It mirrors how the repo's heaviest what-if consumer
// (harness/static_oracle.cc) actually walks states: pick a way composition,
// then sweep an MBA coordinate-descent ladder app by app — so the large
// majority of consecutive candidates differ only in one MBA level. A
// snapshot-reusing evaluator can serve those from the machine's cached
// capacity fixed point; a fresh machine per candidate pays full price
// either way.
std::vector<SystemState> WhatIfCandidates(size_t num_apps) {
  ResourcePool pool;  // Whole machine: all ways, MBA 100.
  std::vector<uint32_t> base(num_apps, pool.num_ways /
                                           static_cast<uint32_t>(num_apps));
  for (size_t i = 0; i < pool.num_ways % num_apps; ++i) {
    ++base[i];
  }
  std::vector<SystemState> candidates;
  for (size_t rotation = 0; rotation < num_apps; ++rotation) {
    std::vector<AppAllocation> allocations(num_apps);
    for (size_t i = 0; i < num_apps; ++i) {
      allocations[i].llc_ways = base[(i + rotation) % num_apps];
      allocations[i].mba_level = MbaLevel::FromPercentChecked(100);
    }
    for (size_t i = 0; i < num_apps; ++i) {
      for (uint32_t percent = 10; percent <= 100; percent += 10) {
        allocations[i].mba_level = MbaLevel::FromPercentChecked(percent);
        candidates.emplace_back(pool, allocations);
      }
    }
  }
  return candidates;
}

// Candidate evaluations/sec of the what-if oracle. `use_snapshot` scores
// through one WhatIfEvaluator (snapshot/rollback, machine built once);
// off reconstructs a fresh machine per candidate via PredictOutcome —
// the pre-snapshot cost this bench exists to retire.
double MeasureWhatIfEvalsPerSec(bool use_snapshot, double min_seconds) {
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  const size_t num_apps = 4;
  const std::vector<WorkloadDescriptor> workloads(
      registry.begin(), registry.begin() + static_cast<ptrdiff_t>(num_apps));
  const std::vector<SystemState> candidates = WhatIfCandidates(num_apps);
  const MachineConfig config;
  double sink = 0.0;
  using Clock = std::chrono::steady_clock;
  long evals = 0;
  double elapsed = 0.0;
  if (use_snapshot) {
    WhatIfEvaluator evaluator(workloads, config, /*cores_per_app=*/2);
    WhatIfOutcome outcome;
    // Warm the evaluator (compiles MRC tables, sizes outcome storage).
    evaluator.EvaluateInto(candidates[0], &outcome);
    const Clock::time_point start = Clock::now();
    do {
      for (const SystemState& candidate : candidates) {
        evaluator.EvaluateInto(candidate, &outcome);
        sink += outcome.unfairness;
      }
      evals += static_cast<long>(candidates.size());
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < min_seconds);
  } else {
    sink += PredictOutcome(workloads, candidates[0], config, 2).unfairness;
    const Clock::time_point start = Clock::now();
    do {
      for (const SystemState& candidate : candidates) {
        sink += PredictOutcome(workloads, candidate, config, 2).unfairness;
      }
      evals += static_cast<long>(candidates.size());
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < min_seconds);
  }
  if (sink < 0.0) {  // Defeat dead-code elimination.
    std::fprintf(stderr, "%f\n", sink);
  }
  return static_cast<double>(evals) / elapsed;
}

// --- --scalar-check: bitwise equivalence of the epoch kernels ---

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool CompareApp(const char* what, AppId id, const SimulatedMachine& reference,
                const SimulatedMachine& candidate) {
  const AppEpochSnapshot& re = reference.LastEpoch(id);
  const AppEpochSnapshot& ce = candidate.LastEpoch(id);
  const AppCounters& rc = reference.Counters(id);
  const AppCounters& cc = candidate.Counters(id);
  const bool ok =
      SameBits(re.ips, ce.ips) &&
      SameBits(re.ips_capability, ce.ips_capability) &&
      SameBits(re.llc_accesses_per_sec, ce.llc_accesses_per_sec) &&
      SameBits(re.llc_misses_per_sec, ce.llc_misses_per_sec) &&
      SameBits(re.miss_ratio, ce.miss_ratio) &&
      SameBits(re.effective_capacity_bytes, ce.effective_capacity_bytes) &&
      SameBits(re.bandwidth_demand_bytes_per_sec,
               ce.bandwidth_demand_bytes_per_sec) &&
      SameBits(re.bandwidth_grant_bytes_per_sec,
               ce.bandwidth_grant_bytes_per_sec) &&
      SameBits(rc.instructions, cc.instructions) &&
      SameBits(rc.llc_accesses, cc.llc_accesses) &&
      SameBits(rc.llc_misses, cc.llc_misses) &&
      SameBits(rc.memory_bytes, cc.memory_bytes);
  if (!ok) {
    std::fprintf(stderr,
                 "scalar-check: MISMATCH [%s] app=%u ips %.17g vs %.17g\n",
                 what, id.value(), re.ips, ce.ips);
  }
  return ok;
}

// Lockstep-runs three machines — vectorized+incremental (the default),
// vectorized+full-solve, and scalar+full-solve — through a seeded schedule
// of partitioning churn and phase crossings, comparing every epoch output
// bitwise. Also exercises snapshot/rollback replay and what-if parity.
int RunScalarCheck() {
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  std::vector<WorkloadDescriptor> workloads(registry.begin(),
                                            registry.begin() + 3);
  workloads.push_back(PhasedScanCompute());

  auto make_machine = [&](EpochKernel kernel, bool incremental) {
    MachineConfig config;
    config.ips_noise_sigma = 0.01;  // Exercise the noise stream too.
    config.epoch_kernel = kernel;
    config.incremental_epochs = incremental;
    return SimulatedMachine(config);
  };
  SimulatedMachine fast = make_machine(EpochKernel::kVectorized, true);
  SimulatedMachine full = make_machine(EpochKernel::kVectorized, false);
  SimulatedMachine scalar = make_machine(EpochKernel::kScalar, false);
  SimulatedMachine* machines[] = {&fast, &full, &scalar};

  std::vector<AppId> apps;
  for (size_t i = 0; i < workloads.size(); ++i) {
    for (SimulatedMachine* machine : machines) {
      Result<AppId> app = machine->LaunchApp(workloads[i], 2);
      CHECK(app.ok());
      machine->AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
      if (machine == &fast) {
        apps.push_back(*app);
      }
    }
  }

  const uint32_t num_ways = fast.config().llc.num_ways;
  Rng rng(0xD15EA5EULL);
  int failures = 0;
  for (int epoch = 0; epoch < 2000; ++epoch) {
    // Seeded partitioning churn, applied identically to all machines. Low
    // rates keep long steady stretches so the incremental fast path is
    // genuinely exercised between mutations.
    if (rng.NextBool(0.04)) {
      const uint32_t clos =
          static_cast<uint32_t>(rng.NextInt(1, static_cast<int64_t>(
                                                   workloads.size())));
      const uint32_t first =
          static_cast<uint32_t>(rng.NextInt(0, num_ways - 1));
      const uint32_t count = static_cast<uint32_t>(
          rng.NextInt(1, static_cast<int64_t>(num_ways - first)));
      const WayMask mask = WayMask::Contiguous(first, count);
      for (SimulatedMachine* machine : machines) {
        machine->SetClosWayMask(clos, mask);
      }
    }
    if (rng.NextBool(0.04)) {
      const uint32_t clos =
          static_cast<uint32_t>(rng.NextInt(1, static_cast<int64_t>(
                                                   workloads.size())));
      const MbaLevel level = MbaLevel::FromPercentChecked(
          static_cast<uint32_t>(rng.NextInt(1, 10)) * 10);
      for (SimulatedMachine* machine : machines) {
        machine->SetClosMbaLevel(clos, level);
      }
    }
    if (rng.NextBool(0.02)) {
      const std::optional<double> cap =
          rng.NextBool(0.5) ? std::optional<double>(1e9) : std::nullopt;
      for (SimulatedMachine* machine : machines) {
        machine->SetAppRequiredIps(apps[0], cap);
      }
    }
    for (SimulatedMachine* machine : machines) {
      machine->AdvanceTime(0.01);  // Small dt: PhasedScanCompute crosses.
    }
    for (const AppId id : apps) {
      if (!CompareApp("vectorized-vs-full", id, full, fast) ||
          !CompareApp("vectorized-vs-scalar", id, full, scalar)) {
        ++failures;
      }
    }
    if (failures > 0) {
      std::fprintf(stderr, "scalar-check: diverged at epoch %d\n", epoch);
      return 1;
    }
  }
  CHECK_GT(fast.full_solves(), 0u);
  CHECK_LT(fast.full_solves(), full.full_solves())
      << "incremental fast path never engaged";
  CHECK_GT(fast.partial_solves(), 0u)
      << "bandwidth-tier partial solve never engaged";

  // Snapshot/rollback replay: captured mid-run state must reproduce the
  // exact epochs a non-diverged machine produces.
  const MachineSnapshot snap = fast.Snapshot();
  std::vector<AppEpochSnapshot> replay;
  for (int epoch = 0; epoch < 10; ++epoch) {
    fast.AdvanceTime(0.01);
    for (const AppId id : apps) {
      replay.push_back(fast.LastEpoch(id));
    }
  }
  fast.Restore(snap);
  size_t cursor = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    fast.AdvanceTime(0.01);
    for (const AppId id : apps) {
      const AppEpochSnapshot& expect = replay[cursor++];
      if (!SameBits(expect.ips, fast.LastEpoch(id).ips)) {
        std::fprintf(stderr,
                     "scalar-check: MISMATCH [rollback-replay] epoch %d\n",
                     epoch);
        return 1;
      }
    }
  }

  // What-if parity: the snapshot evaluator must match fresh PredictOutcome.
  const std::vector<WorkloadDescriptor> whatif_workloads(
      registry.begin(), registry.begin() + 4);
  const std::vector<SystemState> candidates = WhatIfCandidates(4);
  WhatIfEvaluator evaluator(whatif_workloads, MachineConfig{}, 2);
  for (const SystemState& candidate : candidates) {
    const WhatIfOutcome fresh =
        PredictOutcome(whatif_workloads, candidate, MachineConfig{}, 2);
    const WhatIfOutcome reused = evaluator.Evaluate(candidate);
    for (size_t i = 0; i < fresh.predicted_ips.size(); ++i) {
      if (!SameBits(fresh.predicted_ips[i], reused.predicted_ips[i]) ||
          !SameBits(fresh.slowdowns[i], reused.slowdowns[i])) {
        std::fprintf(stderr, "scalar-check: MISMATCH [whatif] app=%zu\n", i);
        return 1;
      }
    }
    if (!SameBits(fresh.unfairness, reused.unfairness)) {
      std::fprintf(stderr, "scalar-check: MISMATCH [whatif] unfairness\n");
      return 1;
    }
  }

  std::printf(
      "scalar-check: OK (2000 churned epochs bit-identical across "
      "vectorized/scalar/incremental kernels; %llu fast-path epochs; "
      "rollback replay and what-if parity exact)\n",
      static_cast<unsigned long long>(full.full_solves() -
                                      fast.full_solves()));
  return 0;
}

int Run(BenchReport& report) {
  const double min_seconds = report.min_seconds();
  // Armed with nothing, the injector must be free on the epoch path; the
  // smoke script gates this configuration against the same baseline.
  FaultInjector injector;
  FaultInjector* injector_ptr =
      report.Has("--fault-injector") ? &injector : nullptr;
  if (injector_ptr != nullptr) {
    std::printf("sim_throughput: fault injector attached (no points armed)\n");
  }
  const std::vector<size_t> app_counts = {2, 4, 6};
  double exact_eps = 0.0;
  double compiled_eps = 0.0;
  for (const MrcMode mode : {MrcMode::kExact, MrcMode::kCompiled}) {
    for (const size_t num_apps : app_counts) {
      // Best-of-3: a co-tenant burst on a small CI host can halve a single
      // window, but not three spaced ones (same rationale as the paired
      // managed rounds below). Incremental off: these points price the
      // full coupled solve, their meaning since PR 2.
      double eps = 0.0;
      for (int round = 0; round < 3; ++round) {
        eps = std::max(
            eps, MeasureEpochsPerSec(mode, num_apps, min_seconds,
                                     injector_ptr, /*incremental=*/false));
      }
      AddEpochsPoint(report, ModeName(mode), num_apps, eps);
      std::printf("sim_throughput: mode=%s apps=%zu epochs_per_sec=%.0f\n",
                  ModeName(mode), num_apps, eps);
      // Speedup at the heaviest consolidation (the sweep-relevant regime).
      if (num_apps == app_counts.back()) {
        (mode == MrcMode::kExact ? exact_eps : compiled_eps) = eps;
      }
    }
  }
  // The machine-only fast path: steady-state epochs replaying the cached
  // fixed point (ROADMAP's "10M epochs/sec" trajectory point).
  {
    double eps = 0.0;
    for (int round = 0; round < 3; ++round) {
      eps = std::max(eps, MeasureEpochsPerSec(MrcMode::kCompiled, 4,
                                              min_seconds, injector_ptr,
                                              /*incremental=*/true));
    }
    AddEpochsPoint(report, "compiled_incremental", 4, eps);
    std::printf(
        "sim_throughput: mode=compiled_incremental apps=4 "
        "epochs_per_sec=%.0f\n",
        eps);
  }
  const double exact_ns = MeasureMissRatioNs(MrcMode::kExact, min_seconds);
  const double compiled_ns =
      MeasureMissRatioNs(MrcMode::kCompiled, min_seconds);
  std::printf("miss_ratio_query: exact_ns=%.1f compiled_ns=%.1f\n",
              exact_ns, compiled_ns);

  // Managed control loop in six configurations:
  //   managed          — the default config (incremental fast path on), no
  //                      observability, no sensing: the gated headline,
  //                      also held to an absolute 3.2M epochs/s floor;
  //   managed_incremental
  //                    — incremental explicitly on; pins the fast-path
  //                      configuration even if defaults ever change;
  //   managed_full_solve
  //                    — incremental off, a full coupled solve every epoch.
  //                      The *base* of every overhead ratio below: the
  //                      obs/sensing gates price instrumentation against a
  //                      solving tick (their meaning since PR 4/6), not
  //                      against the ~100ns replay tick, which would turn
  //                      any fixed per-tick cost into tens of percent;
  //   obs-disabled     — full solve + an Observability bundle attached but
  //                      disabled, so its entire cost must be the
  //                      null/enabled checks at the instrumented sites
  //                      (limit: < 2%);
  //   sensing          — full solve + the estimator on the sample path at
  //                      the default sampling budget, noise model off
  //                      (limit: < 10%);
  //   sensing-noisy    — full sensing realism (estimator + lognormal
  //                      counter noise + jitter + stale repeats).
  //                      Informational, not gated.
  // Rounds are INTERLEAVED across the configurations and every overhead is
  // a PAIRED ratio against the same round's base run, reported as the
  // minimum over rounds: bench_gate gates the ratios, and on a small
  // CI host another process's burst can depress any single measurement
  // window by 10%+ — but it cannot depress every round, while a real
  // hot-path regression shows up in all of them. Epochs/sec points are
  // best-of-rounds as usual.
  const size_t managed_apps = 4;
  Observability disabled_obs;
  disabled_obs.set_enabled(false);
  PmcSensingParams sensing;
  sensing.enabled = true;
  sensing.noise_sigma = 0.0;
  sensing.interval_jitter = 0.0;
  sensing.stale_probability = 0.0;
  PmcSensingParams noisy;
  noisy.enabled = true;
  double managed_eps = 0.0;
  double incremental_eps = 0.0;
  double full_solve_eps = 0.0;
  double disabled_eps = 0.0;
  double sensing_eps = 0.0;
  double noisy_eps = 0.0;
  double obs_overhead_pct = 0.0;
  double sensing_overhead_pct = 0.0;
  double noisy_overhead_pct = 0.0;
  double incremental_speedup = 0.0;
  bool have_overheads = false;
  for (int round = 0; round < 5; ++round) {
    const double m = MeasureManagedEpochsPerSec(
        managed_apps, min_seconds, nullptr, nullptr, /*incremental=*/true);
    const double mi = MeasureManagedEpochsPerSec(
        managed_apps, min_seconds, nullptr, nullptr, /*incremental=*/true);
    const double f = MeasureManagedEpochsPerSec(
        managed_apps, min_seconds, nullptr, nullptr, /*incremental=*/false);
    const double d = MeasureManagedEpochsPerSec(
        managed_apps, min_seconds, &disabled_obs, nullptr,
        /*incremental=*/false);
    const double s = MeasureManagedEpochsPerSec(
        managed_apps, min_seconds, nullptr, &sensing, /*incremental=*/false);
    const double n = MeasureManagedEpochsPerSec(
        managed_apps, min_seconds, nullptr, &noisy, /*incremental=*/false);
    managed_eps = std::max(managed_eps, m);
    incremental_eps = std::max(incremental_eps, mi);
    full_solve_eps = std::max(full_solve_eps, f);
    disabled_eps = std::max(disabled_eps, d);
    sensing_eps = std::max(sensing_eps, s);
    noisy_eps = std::max(noisy_eps, n);
    const double obs_pct = d > 0.0 ? (f / d - 1.0) * 100.0 : 0.0;
    const double sensing_pct = s > 0.0 ? (f / s - 1.0) * 100.0 : 0.0;
    const double noisy_pct = n > 0.0 ? (f / n - 1.0) * 100.0 : 0.0;
    const double inc_speedup = f > 0.0 ? mi / f : 0.0;
    if (!have_overheads) {
      have_overheads = true;
      obs_overhead_pct = obs_pct;
      sensing_overhead_pct = sensing_pct;
      noisy_overhead_pct = noisy_pct;
      incremental_speedup = inc_speedup;
    } else {
      obs_overhead_pct = std::min(obs_overhead_pct, obs_pct);
      sensing_overhead_pct = std::min(sensing_overhead_pct, sensing_pct);
      noisy_overhead_pct = std::min(noisy_overhead_pct, noisy_pct);
      incremental_speedup = std::min(incremental_speedup, inc_speedup);
    }
  }
  std::printf("sim_throughput: mode=managed apps=%zu epochs_per_sec=%.0f\n",
              managed_apps, managed_eps);
  std::printf(
      "sim_throughput: mode=managed_incremental apps=%zu "
      "epochs_per_sec=%.0f speedup_vs_full_solve=%.2f\n",
      managed_apps, incremental_eps, incremental_speedup);
  std::printf(
      "sim_throughput: mode=managed_full_solve apps=%zu "
      "epochs_per_sec=%.0f\n",
      managed_apps, full_solve_eps);

  // The clustered-policy control loop (LFOC+ driving shared-CLOS slots
  // through the same transactional actuation path). Gated like every other
  // managed point: the pluggable-policy dispatch and the cluster slot
  // bookkeeping must not tax the tick.
  double clustered_eps = 0.0;
  for (int round = 0; round < 3; ++round) {
    clustered_eps = std::max(
        clustered_eps,
        MeasureManagedEpochsPerSec(managed_apps, min_seconds, nullptr,
                                   nullptr, /*incremental=*/true, "lfoc+"));
  }
  std::printf(
      "sim_throughput: mode=managed_clustered apps=%zu epochs_per_sec=%.0f\n",
      managed_apps, clustered_eps);
  std::printf(
      "sim_throughput: managed_obs_disabled epochs_per_sec=%.0f "
      "overhead_pct=%.2f\n",
      disabled_eps, obs_overhead_pct);
  std::printf(
      "sim_throughput: mode=managed_sensing apps=%zu epochs_per_sec=%.0f "
      "overhead_pct=%.2f\n",
      managed_apps, sensing_eps, sensing_overhead_pct);
  std::printf(
      "sim_throughput: mode=managed_sensing_noisy apps=%zu "
      "epochs_per_sec=%.0f overhead_pct=%.2f\n",
      managed_apps, noisy_eps, noisy_overhead_pct);

  // What-if oracle: candidate evaluations/sec, fresh machine per candidate
  // vs snapshot/rollback through one WhatIfEvaluator (gated >= 10x).
  double whatif_fresh = 0.0;
  double whatif_snapshot = 0.0;
  for (int round = 0; round < 3; ++round) {
    whatif_fresh = std::max(
        whatif_fresh, MeasureWhatIfEvalsPerSec(false, min_seconds));
    whatif_snapshot = std::max(
        whatif_snapshot, MeasureWhatIfEvalsPerSec(true, min_seconds));
  }
  const double whatif_speedup =
      whatif_fresh > 0.0 ? whatif_snapshot / whatif_fresh : 0.0;
  std::printf(
      "sim_throughput: whatif fresh_evals_per_sec=%.0f "
      "snapshot_evals_per_sec=%.0f speedup=%.2f\n",
      whatif_fresh, whatif_snapshot, whatif_speedup);

  const double speedup = exact_eps > 0.0 ? compiled_eps / exact_eps : 0.0;
  std::printf("sim_throughput: speedup_compiled_over_exact=%.2f\n", speedup);

  AddEpochsPoint(report, "managed", managed_apps, managed_eps, 3200000.0);
  AddEpochsPoint(report, "managed_incremental", managed_apps,
                 incremental_eps);
  AddEpochsPoint(report, "managed_clustered", managed_apps, clustered_eps);
  AddEpochsPoint(report, "managed_full_solve", managed_apps, full_solve_eps);
  AddEpochsPoint(report, "managed_sensing", managed_apps, sensing_eps);
  AddEpochsPoint(report, "managed_sensing_noisy", managed_apps, noisy_eps);
  report.Add("miss_ratio_query_ns.exact", exact_ns, 1, "ns", BenchGate::kNone);
  report.Add("miss_ratio_query_ns.compiled", compiled_ns, 1, "ns",
             BenchGate::kNone);
  report.Add("obs_disabled_overhead_pct", obs_overhead_pct, 2, "%",
             BenchGate::kMax, 2.0);
  report.Add("sensing_overhead_pct", sensing_overhead_pct, 2, "%",
             BenchGate::kMax, 10.0);
  report.Add("sensing_noisy_overhead_pct", noisy_overhead_pct, 2, "%",
             BenchGate::kNone);
  report.Add("managed_incremental_speedup", incremental_speedup, 2, "x",
             BenchGate::kNone);
  report.Add("whatif_fresh_evals_per_sec", whatif_fresh, 1, "evals/s",
             BenchGate::kNone);
  report.Add("whatif_snapshot_evals_per_sec", whatif_snapshot, 1, "evals/s",
             BenchGate::kNone);
  report.Add("whatif_snapshot_speedup", whatif_speedup, 2, "x",
             BenchGate::kMin, 10.0);
  report.Add("speedup_compiled_over_exact", speedup, 2, "x",
             BenchGate::kNone);
  return report.Write();
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  copart::BenchReport report("sim_throughput");
  if (!report.ParseFlags(argc, argv, {"--fault-injector", "--scalar-check"})) {
    return 2;
  }
  if (report.Has("--scalar-check")) {
    return copart::RunScalarCheck();
  }
  return copart::Run(report);
}
