// Repository benchmark driver: four seeded, closed-loop, simulated-time
// workloads that call the simulator's layers directly (SimulatedMachine,
// Resctrl, PerfMonitor, ResourceManager, LcServer, FleetController) and
// time each driven period from the outside.
//
//   perfbench_driver --workload churn|cluster48|slo_burst|fleet --seed N
//                    --seconds S --trace 0|1 [--spans PATH]
//
// A run drives a fixed number of *episodes*: a pure function of the
// workload and --seconds (see EpisodeCount), never of how fast the code
// runs. An episode is a fixed, seed-determined sequence of control periods,
// so its simulated outcome is identical every time: the driver checks that,
// and keeps each period's fastest repeat across episodes for the host-time
// figures. With --trace 1 untraced and traced episodes alternate; a traced
// episode records one span per driver call into a layer, under one root
// span per period, and the run prints per-layer figures.
//
// Output: one "metric <name> <value> <unit> <kind>" line per figure and a
// final "result <correct> <attempted> <failed>" line. perfbench/run.py
// builds this program and turns that into the benchmark's JSON line.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fleet.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/resource_manager.h"
#include "harness/fleet.h"
#include "harness/policy_ab.h"
#include "harness/serve.h"
#include "machine/simulated_machine.h"
#include "metrics/fairness.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "serve/arrival.h"
#include "serve/serve_engine.h"
#include "workload/workload.h"

namespace copart::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload generator parameters. perfbench/README.md records them per
// workload; changing one changes every simulated figure.

// churn: the paper's 16-core / 11-way / 28 GB/s box under per-app CoPart.
// A PhasedScanCompute job stays resident on 4 cores while Table 2 jobs
// arrive and leave. Its scan phase gets a fresh reuse profile, hence a
// fresh compiled MRC, at every phase entry and at every launch epoch that
// finds it scanning: ~4% of periods for every seed, so period_us_p99 sits
// inside those builds. (Drawn like the other jobs, it left the builds at
// ~1% of periods, and p99 jumped between 20 us and 3 ms across seeds.)
constexpr int kChurnPeriods = 10000;
constexpr size_t kChurnInitialJobs = 3;
constexpr size_t kChurnMaxResident = 6;
constexpr uint32_t kChurnPhasedCores = 4;
constexpr double kChurnMeanInterarrivalPeriods = 20.0;
constexpr int kChurnLifetimeMin = 10;
constexpr int kChurnLifetimeMax = 200;

// cluster48: ManyAppsScenario(48) under lfoc+.
constexpr size_t kClusterApps = 48;
constexpr int kClusterPeriods = 20000;

// slo_burst: Section63ServeScenario, eight cycles of its 30 s burst trace
// (2400 periods). Fewer cycles left the per-period unfairness spreading
// ~0.2 across seeds.
constexpr double kSloDurationSec = 240.0;

// fleet: bench_fleet's canonical scenario, run for six of its lengths
// (1080 epochs, nine diurnal cycles; p99 has 10 epochs above it).
constexpr size_t kFleetNodes = 128;
constexpr int kFleetEpochs = 1080;
constexpr uint32_t kFleetWorkers = 2;
// Fleet set-up builds the fleet and drives its first epochs, so it times the
// first admissions and their curve builds (epoch 0 has no jobs yet).
constexpr int kFleetSetupEpochs = 10;

// Stream tags of harness/fleet.cc's scenario (its SampleJob draw order is
// mirrored below; the reference check catches any drift).
constexpr uint64_t kArrivalStream = 0xA221;
constexpr uint64_t kSpecStream = 0x5BEC;
constexpr uint64_t kWaveStream = 0x3A4E;
constexpr uint64_t kInjectorStream = 0xFA17;

// Stream tags for the benchmark's own seed derivation.
constexpr uint64_t kMachineStream = 1;
constexpr uint64_t kManagerStream = 2;
constexpr uint64_t kJobStream = 3;

constexpr int kMinEpisodes = 3;
// setup_s is the median of this many set-up-only rounds per run.
constexpr int kSetups = 15;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed).Fork(stream).NextUint64();
}

// ---------------------------------------------------------------------------
// Spans.

// One entry per kind of driver call. AdvanceTime spans are opened as
// kReplay and re-tagged by the machine counter the call moved.
enum class Kind : uint8_t {
  kPeriod,
  kLaunchEpoch,
  kFullSolve,
  kPartialSolve,
  kReplay,
  kMachineAdmin,
  kTick,
  kCoreAdmin,
  kServeEpoch,
  kReportOutcome,
  kSetLoad,
  kRunEpoch,
  kSubmit,
  kCrashNode,
  kCount,
};
constexpr size_t kNumKinds = static_cast<size_t>(Kind::kCount);
constexpr const char* kKindNames[kNumKinds] = {
    "period",        "machine.launch_epoch", "machine.full_solve",
    "machine.partial_solve", "machine.replay", "machine.admin",
    "core.tick",     "core.admin",           "serve.advance_epoch",
    "slo.report_outcome",    "slo.set_load",   "cluster.run_epoch",
    "cluster.submit", "cluster.crash_node"};

struct Span {
  Kind kind = Kind::kPeriod;
  int32_t parent = -1;
  uint64_t period = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t covered_ns = 0;  // Time covered by child spans.
};

// Records spans in memory when enabled; always times the root span of a
// period, since the untraced run's period latency comes from it.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void BeginPeriod(uint64_t id) {
    period_ = id;
    period_start_ns_ = NowNs();
    if (enabled_) {
      root_ = Open(Kind::kPeriod, period_start_ns_);
    }
  }

  // Closes the root span; returns the period's host time in microseconds.
  double EndPeriod() {
    const int64_t end = NowNs();
    if (enabled_) {
      Close(root_, end);
      root_ = -1;
    }
    return static_cast<double>(end - period_start_ns_) / 1e3;
  }

  // Opens a child of the current root (or a parentless span outside a
  // period, e.g. during set-up). Returns -1 when tracing is off.
  int32_t OpenCall(Kind kind) {
    return enabled_ ? Open(kind, NowNs()) : -1;
  }
  void CloseCall(int32_t index) {
    if (index >= 0) {
      Close(index, NowNs());
    }
  }
  void Retag(int32_t index, Kind kind) {
    if (index >= 0) {
      spans_[static_cast<size_t>(index)].kind = kind;
    }
  }

  template <typename F>
  decltype(auto) Call(Kind kind, F&& f) {
    struct Scope {
      Tracer* tracer;
      int32_t index;
      ~Scope() { tracer->CloseCall(index); }
    } scope{this, OpenCall(kind)};
    return f();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t Open(Kind kind, int64_t start) {
    spans_.push_back(Span{.kind = kind,
                          .parent = root_,
                          .period = period_,
                          .start_ns = start});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index, int64_t end) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = end;
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].covered_ns +=
          end - span.start_ns;
    }
  }

  bool enabled_;
  std::vector<Span> spans_;
  int32_t root_ = -1;
  uint64_t period_ = 0;
  int64_t period_start_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Checks: every Status a driver call returns, plus the output checks.

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = what;
      }
    }
  }
  void Expect(const Status& status, const char* what) {
    Check(status.ok(), std::string(what) + ": " + status.ToString());
  }
  // An admission call: a refusal (kResourceExhausted) is lost demand, any
  // other error a failure. Returns true when admitted.
  bool Admit(const Status& status, const char* what, uint64_t* refused) {
    if (status.code() == StatusCode::kResourceExhausted) {
      ++attempted;
      ++*refused;
      return false;
    }
    Expect(status, what);
    return status.ok();
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) {
      first_failure = other.first_failure;
    }
  }
};

// Simulated (modelled-hardware) outcome of one episode. Pure function of
// the seed; serialized at full precision for byte comparison.
struct SimOutcome {
  struct Value {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Value> values;

  void Add(const char* name, double value, const char* unit) {
    values.push_back(Value{name, value, unit});
  }
  std::string Serialize() const {
    std::string out;
    char buffer[96];
    for (const Value& v : values) {
      std::snprintf(buffer, sizeof(buffer), "%s=%.17g;", v.name, v.value);
      out += buffer;
    }
    return out;
  }
};

// Layer counters: the driver's own counts of its calls, and cumulative
// public getters read at call boundaries. Reported per episode over its
// driven periods, i.e. as the difference from the end of set-up.
struct LayerCounters {
  uint64_t idle_ticks = 0;
  uint64_t ticks = 0;
  double explore_us = 0.0;
  uint64_t explore_calls = 0;
  uint64_t adaptations = 0;
  uint64_t actuations = 0;
  uint64_t actuation_failures = 0;
  uint64_t schemata_writes = 0;
  uint64_t write_failures = 0;
  uint64_t pmc_samples = 0;
  uint64_t pmc_failures = 0;
  uint64_t requests = 0;
  uint64_t drops = 0;
  uint64_t slo_resizes = 0;
  uint64_t slo_unattainable = 0;
  uint64_t node_ticks = 0;
  uint64_t migrations_planned = 0;
  uint64_t migrations_completed = 0;
  uint64_t migration_rollbacks = 0;
  uint64_t conservation_checks = 0;
  // The machine's own solve counters.
  uint64_t full_solves = 0;
  uint64_t partial_solves = 0;
  // Outside-in machine tier attribution: AdvanceTime calls, and those that
  // moved more than one solve counter or launched without a full solve.
  uint64_t advance_calls = 0;
  uint64_t tier_conflicts = 0;

  LayerCounters Since(const LayerCounters& b) const {
    LayerCounters d;
    d.idle_ticks = idle_ticks - b.idle_ticks;
    d.ticks = ticks - b.ticks;
    d.explore_us = explore_us - b.explore_us;
    d.explore_calls = explore_calls - b.explore_calls;
    d.adaptations = adaptations - b.adaptations;
    d.actuations = actuations - b.actuations;
    d.actuation_failures = actuation_failures - b.actuation_failures;
    d.schemata_writes = schemata_writes - b.schemata_writes;
    d.write_failures = write_failures - b.write_failures;
    d.pmc_samples = pmc_samples - b.pmc_samples;
    d.pmc_failures = pmc_failures - b.pmc_failures;
    d.requests = requests - b.requests;
    d.drops = drops - b.drops;
    d.slo_resizes = slo_resizes - b.slo_resizes;
    d.slo_unattainable = slo_unattainable - b.slo_unattainable;
    d.node_ticks = node_ticks - b.node_ticks;
    d.migrations_planned = migrations_planned - b.migrations_planned;
    d.migrations_completed = migrations_completed - b.migrations_completed;
    d.migration_rollbacks = migration_rollbacks - b.migration_rollbacks;
    d.conservation_checks = conservation_checks - b.conservation_checks;
    d.full_solves = full_solves - b.full_solves;
    d.partial_solves = partial_solves - b.partial_solves;
    d.advance_calls = advance_calls - b.advance_calls;
    d.tier_conflicts = tier_conflicts - b.tier_conflicts;
    return d;
  }
};

// Wraps AdvanceTime: when tracing, classifies the call by the public
// counter it moved (app_generation since the previous call, then
// full_solves, then partial_solves; none = replay).
class MachineDriver {
 public:
  void Advance(Tracer& tracer, SimulatedMachine& machine, double dt,
               LayerCounters& counters) {
    if (!tracer.enabled()) {
      machine.AdvanceTime(dt);
      return;
    }
    const uint64_t generation = machine.app_generation();
    const uint64_t full = machine.full_solves();
    const uint64_t partial = machine.partial_solves();
    const int32_t span = tracer.OpenCall(Kind::kReplay);
    machine.AdvanceTime(dt);
    tracer.CloseCall(span);
    ++counters.advance_calls;
    const uint64_t moved_full = machine.full_solves() - full;
    const uint64_t moved_partial = machine.partial_solves() - partial;
    const bool launch = !seen_ || generation != last_generation_;
    seen_ = true;
    last_generation_ = machine.app_generation();
    const bool has_apps = machine.FreeCores() < machine.config().num_cores;
    if (moved_full + moved_partial > 1 ||
        (launch && has_apps && moved_full != 1)) {
      ++counters.tier_conflicts;
    }
    tracer.Retag(span, launch           ? Kind::kLaunchEpoch
                       : moved_full     ? Kind::kFullSolve
                       : moved_partial  ? Kind::kPartialSolve
                                        : Kind::kReplay);
  }

 private:
  bool seen_ = false;
  uint64_t last_generation_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the episode's state and drives its first period(s) (untimed as
  // periods: they are set-up, with the first epochs' lazy MRC builds).
  virtual void Setup(Tracer& tracer) = 0;
  virtual bool Done() const = 0;
  // Drives one period: layer calls only.
  virtual void Step(Tracer& tracer) = 0;
  // Bookkeeping after a period (outside its root span). Returns the
  // period's work units: 1 control period, or alive-node ticks for fleet.
  virtual uint64_t Observe() = 0;
  // Simulated outcome and end-of-episode output checks.
  virtual SimOutcome Finish() = 0;
  // Cumulative layer counters so far.
  virtual LayerCounters ReadCounters() const = 0;
  // After Finish: the driven loop's result in the terms of the harness
  // entry point it re-drives (ReferenceSummary), if any.
  virtual std::string DrivenSummary() const { return {}; }

  // Threads the workload runs on while driving its periods.
  virtual size_t threads() const { return 1; }

  Tally& tally() { return tally_; }

 protected:
  Tally tally_;
  LayerCounters counters_;
};

// Counters of a managed single machine.
void ReadMachineCounters(const SimulatedMachine& machine,
                         const ResourceManager& manager,
                         const Resctrl& resctrl, const PerfMonitor& monitor,
                         LayerCounters& c) {
  c.full_solves = machine.full_solves();
  c.partial_solves = machine.partial_solves();
  c.explore_us = manager.exploration_time_stats().mean() *
                 static_cast<double>(manager.exploration_time_stats().count());
  c.explore_calls = manager.exploration_time_stats().count();
  c.adaptations = manager.adaptations_started();
  c.actuations = manager.actuation_attempts();
  c.actuation_failures = manager.actuation_failures();
  c.schemata_writes = resctrl.schemata_writes();
  c.write_failures = resctrl.schemata_write_failures();
  c.pmc_samples = monitor.try_samples();
  c.pmc_failures = monitor.try_sample_failures();
  c.slo_resizes = manager.slo_resizes();
  c.slo_unattainable = manager.slo_unattainable_ticks();
}

// --- churn -----------------------------------------------------------------

class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(uint64_t seed) : seed_(seed) {}

  void Setup(Tracer& tracer) override {
    MachineConfig config;
    config.seed = DeriveSeed(seed_, kMachineStream);
    machine_ = std::make_unique<SimulatedMachine>(config);
    resctrl_ = std::make_unique<Resctrl>(machine_.get());
    monitor_ = std::make_unique<PerfMonitor>(machine_.get());
    ResourceManagerParams params;
    params.seed = DeriveSeed(seed_, kManagerStream);
    manager_ = std::make_unique<ResourceManager>(resctrl_.get(),
                                                 monitor_.get(), params);
    manager_->SetResourcePool(ResourcePool{});
    dt_ = params.control_period_sec;
    roster_ = AllTable2Benchmarks();
    roster_.push_back(PhasedScanCompute());
    // Eq. 1 references for every (roster entry, core count) a job can
    // draw: the generator's own profiling, done once per episode.
    for (const WorkloadDescriptor& d : roster_) {
      solo_.push_back({machine_->SoloFullResourceIps(d, 2),
                       machine_->SoloFullResourceIps(d, 4)});
    }
    rng_ = Rng(DeriveSeed(seed_, kJobStream));
    pending_.push_back(JobDraw{.roster_index = roster_.size() - 1,
                               .cores = kChurnPhasedCores,
                               .lifetime = kChurnPeriods + 1});
    for (size_t i = 0; i < kChurnInitialJobs; ++i) {
      pending_.push_back(DrawJob());
    }
    next_arrival_ = rng_.NextExponential(kChurnMeanInterarrivalPeriods);
    Step(tracer);
    Observe();
  }

  bool Done() const override { return period_ >= kChurnPeriods; }

  void Step(Tracer& tracer) override {
    // Departures of jobs whose lifetime ended.
    for (size_t i = 0; i < resident_.size();) {
      Job& job = resident_[i];
      if (job.end_period > period_) {
        ++i;
        continue;
      }
      const double lifetime = machine_->now() - job.launch_time;
      const double avg_ips =
          machine_->Counters(job.app).instructions / lifetime;
      finished_slowdowns_.push_back(Slowdown(job.solo_ips, avg_ips));
      finished_ips_.push_back(avg_ips);
      tally_.Expect(tracer.Call(Kind::kCoreAdmin,
                                [&] { return manager_->RemoveApp(job.app); }),
                    "ResourceManager::RemoveApp");
      tally_.Expect(tracer.Call(Kind::kMachineAdmin,
                                [&] {
                                  return machine_->TerminateApp(job.app);
                                }),
                    "SimulatedMachine::TerminateApp");
      resident_.erase(resident_.begin() + static_cast<ptrdiff_t>(i));
    }
    // Open-loop arrivals due by this period; refused past the residency or
    // core budget.
    while (next_arrival_ <= static_cast<double>(period_)) {
      pending_.push_back(DrawJob());
      next_arrival_ += rng_.NextExponential(kChurnMeanInterarrivalPeriods);
    }
    for (const JobDraw& draw : pending_) {
      ++offered_;
      if (resident_.size() >= kChurnMaxResident ||
          machine_->FreeCores() < draw.cores) {
        ++refused_;
        continue;
      }
      Result<AppId> app = tracer.Call(Kind::kMachineAdmin, [&] {
        return machine_->LaunchApp(roster_[draw.roster_index], draw.cores);
      });
      tally_.Expect(app.status(), "SimulatedMachine::LaunchApp");
      if (!app.ok()) {
        continue;
      }
      if (!tally_.Admit(tracer.Call(Kind::kCoreAdmin,
                                    [&] { return manager_->AddApp(*app); }),
                        "ResourceManager::AddApp", &refused_)) {
        tally_.Expect(machine_->TerminateApp(*app),
                      "SimulatedMachine::TerminateApp");
        continue;
      }
      resident_.push_back(
          Job{.app = *app,
              .solo_ips = solo_[draw.roster_index][draw.cores == 2 ? 0 : 1],
              .launch_time = machine_->now(),
              .end_period = period_ + draw.lifetime});
    }
    pending_.clear();
    machine_driver_.Advance(tracer, *machine_, dt_, counters_);
    if (manager_->NumApps() > 0) {
      tracer.Call(Kind::kTick, [&] { manager_->Tick(); });
    }
    ++period_;
  }

  uint64_t Observe() override {
    if (resident_.size() >= 2) {
      slowdowns_.clear();
      for (const Job& job : resident_) {
        slowdowns_.push_back(
            Slowdown(job.solo_ips, machine_->LastEpoch(job.app).ips));
      }
      unfairness_.Add(Unfairness(slowdowns_));
    }
    if (manager_->NumApps() > 0) {
      ++counters_.ticks;
      counters_.idle_ticks += manager_->phase() == ManagerPhase::kIdle;
    }
    return 1;
  }

  LayerCounters ReadCounters() const override {
    LayerCounters c = counters_;
    ReadMachineCounters(*machine_, *manager_, *resctrl_, *monitor_, c);
    return c;
  }

  SimOutcome Finish() override {
    tally_.Check(!finished_ips_.empty(), "churn: no job completed");
    SimOutcome out;
    out.Add("unfairness", unfairness_.mean(), "ratio");
    out.Add("ips_geomean", GeoMeanThroughput(finished_ips_), "instr/s");
    out.Add("slowdown_p99", Percentile(finished_slowdowns_, 99.0), "ratio");
    out.Add("demand_lost_pct",
            100.0 * static_cast<double>(refused_) /
                static_cast<double>(offered_),
            "%");
    out.Add("demand_offered", static_cast<double>(offered_), "jobs");
    out.Add("jobs_completed", static_cast<double>(finished_ips_.size()),
            "jobs");
    return out;
  }

 private:
  struct JobDraw {
    size_t roster_index = 0;
    uint32_t cores = 2;
    int lifetime = 0;
  };
  struct Job {
    AppId app;
    double solo_ips = 0.0;
    double launch_time = 0.0;
    int end_period = 0;
  };

  // Table 2 apps are drawn in seeded permutations of the roster, so every
  // seed offers the same app mix, in its own order.
  JobDraw DrawJob() {
    if (deck_.empty()) {
      for (size_t i = 0; i + 1 < roster_.size(); ++i) {
        deck_.push_back(i);
      }
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.NextUint64(i)]);
      }
    }
    JobDraw draw;
    draw.roster_index = deck_.back();
    deck_.pop_back();
    draw.cores = rng_.NextUint64(2) == 0 ? 2 : 4;
    draw.lifetime =
        static_cast<int>(rng_.NextInt(kChurnLifetimeMin, kChurnLifetimeMax));
    return draw;
  }

  uint64_t seed_;
  std::unique_ptr<SimulatedMachine> machine_;
  std::unique_ptr<Resctrl> resctrl_;
  std::unique_ptr<PerfMonitor> monitor_;
  std::unique_ptr<ResourceManager> manager_;
  MachineDriver machine_driver_;
  double dt_ = 0.5;
  std::vector<WorkloadDescriptor> roster_;
  std::vector<std::vector<double>> solo_;
  Rng rng_{0};
  std::vector<size_t> deck_;
  double next_arrival_ = 0.0;
  std::vector<JobDraw> pending_;
  std::vector<Job> resident_;
  int period_ = 0;
  uint64_t offered_ = 0;
  uint64_t refused_ = 0;
  RunningStats unfairness_;
  std::vector<double> slowdowns_;
  std::vector<double> finished_slowdowns_;
  std::vector<double> finished_ips_;
};

// --- cluster48 -------------------------------------------------------------

class Cluster48Workload : public Workload {
 public:
  explicit Cluster48Workload(uint64_t seed) : seed_(seed) {}

  void Setup(Tracer& tracer) override {
    const PolicyAbScenario scenario = ManyAppsScenario(kClusterApps);
    MachineConfig config = scenario.machine;
    config.seed = DeriveSeed(seed_, kMachineStream);
    machine_ = std::make_unique<SimulatedMachine>(config);
    resctrl_ = std::make_unique<Resctrl>(machine_.get());
    monitor_ = std::make_unique<PerfMonitor>(machine_.get());
    ResourceManagerParams params;
    params.partition_policy = "lfoc+";
    params.seed = DeriveSeed(seed_, kManagerStream);
    dt_ = params.control_period_sec;
    manager_ = std::make_unique<ResourceManager>(resctrl_.get(),
                                                 monitor_.get(), params);
    for (const WorkloadDescriptor& d : scenario.mix.apps) {
      Result<AppId> app = tracer.Call(Kind::kMachineAdmin, [&] {
        return machine_->LaunchApp(d, scenario.cores_per_app);
      });
      tally_.Expect(app.status(), "SimulatedMachine::LaunchApp");
      if (app.ok()) {
        apps_.push_back(*app);
        solo_.push_back(
            machine_->SoloFullResourceIps(d, scenario.cores_per_app));
      }
    }
    manager_->SetResourcePool(scenario.pool);
    for (AppId app : apps_) {
      tally_.Admit(
          tracer.Call(Kind::kCoreAdmin, [&] { return manager_->AddApp(app); }),
          "ResourceManager::AddApp", &unmanaged_);
    }
    Step(tracer);
    Observe();
  }

  bool Done() const override { return period_ >= kClusterPeriods; }

  void Step(Tracer& tracer) override {
    machine_driver_.Advance(tracer, *machine_, dt_, counters_);
    tracer.Call(Kind::kTick, [&] { manager_->Tick(); });
    ++period_;
  }

  uint64_t Observe() override {
    ++counters_.ticks;
    counters_.idle_ticks += manager_->phase() == ManagerPhase::kIdle;
    return 1;
  }

  LayerCounters ReadCounters() const override {
    LayerCounters c = counters_;
    ReadMachineCounters(*machine_, *manager_, *resctrl_, *monitor_, c);
    return c;
  }

  SimOutcome Finish() override {
    std::vector<double> ips;
    std::vector<double> slowdowns;
    for (size_t i = 0; i < apps_.size(); ++i) {
      ips.push_back(machine_->Counters(apps_[i]).instructions /
                    machine_->now());
      slowdowns.push_back(Slowdown(solo_[i], ips.back()));
    }
    SimOutcome out;
    out.Add("unfairness", Unfairness(slowdowns), "ratio");
    out.Add("ips_geomean", GeoMeanThroughput(ips), "instr/s");
    out.Add("slowdown_p99", Percentile(slowdowns, 99.0), "ratio");
    out.Add("demand_lost_pct",
            100.0 * static_cast<double>(unmanaged_) /
                static_cast<double>(kClusterApps),
            "%");
    out.Add("demand_offered", static_cast<double>(kClusterApps), "apps");
    return out;
  }

 private:
  uint64_t seed_;
  std::unique_ptr<SimulatedMachine> machine_;
  std::unique_ptr<Resctrl> resctrl_;
  std::unique_ptr<PerfMonitor> monitor_;
  std::unique_ptr<ResourceManager> manager_;
  MachineDriver machine_driver_;
  double dt_ = 0.5;
  std::vector<AppId> apps_;
  std::vector<double> solo_;
  uint64_t unmanaged_ = 0;
  int period_ = 0;
};

// --- slo_burst ---------------------------------------------------------------

ServeScenarioConfig SloBurstConfig(uint64_t seed) {
  ServeScenarioConfig config = Section63ServeScenario();
  config.mode = ServeMode::kCopartSlo;
  config.duration_sec = kSloDurationSec;
  config.seed = seed;
  config.machine.seed = DeriveSeed(seed, kMachineStream);
  config.copart_params.seed = DeriveSeed(seed, kManagerStream);
  return config;
}

// Fields of a serve run the driven loop must reproduce bit for bit.
std::string SerializeServe(const ServeScenarioResult& r) {
  char buffer[512];
  const ServeLcResult& lc = r.lc.front();
  std::snprintf(buffer, sizeof(buffer),
                "arrivals=%" PRIu64 ";completions=%" PRIu64 ";drops=%" PRIu64
                ";depth=%" PRIu64
                ";p50=%.17g;p95=%.17g;p99=%.17g;violations=%.17g;"
                "mean_unfairness=%.17g;run_unfairness=%.17g;"
                "adaptations=%" PRIu64 ";resizes=%" PRIu64,
                lc.arrivals, lc.completions, lc.drops, lc.queue_depth_end,
                lc.p50_ms, lc.p95_ms, lc.p99_ms, lc.slo_violation_fraction,
                r.mean_batch_unfairness, r.run_batch_unfairness,
                r.copart_adaptations, r.slo_resizes);
  return buffer;
}

// Re-drives harness/serve.cc's RunServeScenario loop (kCopartSlo mode,
// analytic capability) call by call, so each layer call can be timed.
class SloBurstWorkload : public Workload {
 public:
  explicit SloBurstWorkload(uint64_t seed) : config_(SloBurstConfig(seed)) {}

  void Setup(Tracer& tracer) override {
    machine_ = std::make_unique<SimulatedMachine>(config_.machine);
    resctrl_ = std::make_unique<Resctrl>(machine_.get());
    monitor_ = std::make_unique<PerfMonitor>(machine_.get());
    const Rng root(config_.seed);
    for (size_t i = 0; i < config_.lc_apps.size(); ++i) {
      const ServeLcSpec& spec = config_.lc_apps[i];
      Result<AppId> app = tracer.Call(Kind::kMachineAdmin, [&] {
        return machine_->LaunchApp(spec.workload, spec.cores);
      });
      tally_.Expect(app.status(), "SimulatedMachine::LaunchApp");
      if (!app.ok()) {
        return;
      }
      Lc lc;
      lc.id = *app;
      lc.ipr = spec.instructions_per_request > 0.0
                   ? spec.instructions_per_request
                   : spec.workload.instructions_per_request;
      lc.slo_ms =
          spec.slo_p95_ms > 0.0 ? spec.slo_p95_ms : spec.workload.slo_p95_ms;
      LcServerConfig server;
      server.name = spec.workload.short_name;
      server.arrival = spec.arrival;
      server.instructions_per_request = lc.ipr;
      server.exponential_service = spec.exponential_service;
      server.queue_capacity = spec.queue_capacity;
      lc.server = std::make_unique<LcServer>(
          server, root.Fork(static_cast<uint64_t>(i)));
      lcs_.push_back(std::move(lc));
    }
    for (const ServeBatchSpec& spec : config_.batch_apps) {
      Result<AppId> app = tracer.Call(Kind::kMachineAdmin, [&] {
        return machine_->LaunchApp(spec.workload, spec.cores);
      });
      tally_.Expect(app.status(), "SimulatedMachine::LaunchApp");
      if (!app.ok()) {
        return;
      }
      batch_.push_back(*app);
    }
    for (AppId app : batch_) {
      batch_solo_.push_back(machine_->SoloFullResourceIps(
          machine_->Descriptor(app), machine_->AppCores(app)));
    }
    ResourceManagerParams params = config_.copart_params;
    params.control_period_sec = config_.control_period_sec;
    params.slo.enabled = true;
    manager_ = std::make_unique<ResourceManager>(resctrl_.get(),
                                                 monitor_.get(), params);
    for (size_t i = 0; i < lcs_.size(); ++i) {
      const ServeLcSpec& spec = config_.lc_apps[i];
      LcAppModel model;
      model.slo_p95_ms = lcs_[i].slo_ms;
      model.instructions_per_request = lcs_[i].ipr;
      model.capability_ips = [desc = spec.workload, cores = spec.cores,
                              mc = config_.machine](uint32_t ways) {
        return PredictLcCapabilityIps(desc, cores, ways, mc);
      };
      model.initial_offered_rps = ArrivalRateAt(spec.arrival, 0.0);
      tally_.Expect(tracer.Call(Kind::kCoreAdmin,
                                [&] {
                                  return manager_->SetLatencyCriticalApp(
                                      lcs_[i].id, model);
                                }),
                    "ResourceManager::SetLatencyCriticalApp");
    }
    for (AppId app : batch_) {
      tally_.Expect(
          tracer.Call(Kind::kCoreAdmin, [&] { return manager_->AddApp(app); }),
          "ResourceManager::AddApp");
    }
    periods_ = static_cast<int>(
        std::llround(config_.duration_sec / config_.control_period_sec));
    for (size_t i = 0; i < lcs_.size(); ++i) {
      machine_->SetAppRequiredIps(
          lcs_[i].id,
          ArrivalRateAt(config_.lc_apps[i].arrival, 0.0) * lcs_[i].ipr);
    }
    Step(tracer);
    Observe();
  }

  bool Done() const override { return period_ >= periods_ || lcs_.empty(); }

  void Step(Tracer& tracer) override {
    const double dt = config_.control_period_sec;
    machine_driver_.Advance(tracer, *machine_, dt, counters_);
    for (size_t i = 0; i < lcs_.size(); ++i) {
      Lc& lc = lcs_[i];
      const double capability = machine_->LastEpoch(lc.id).ips_capability;
      const EpochServeStats stats = tracer.Call(Kind::kServeEpoch, [&] {
        return lc.server->AdvanceEpoch(dt, capability);
      });
      const bool stalled = stats.completions == 0 && stats.queue_depth_end > 0;
      if (stats.p95_ms > lc.slo_ms || stalled) {
        ++lc.violations;
      }
      const size_t phase =
          config_.lc_apps[i].workload.PhaseIndexAt(machine_->now());
      tracer.Call(Kind::kReportOutcome, [&] {
        manager_->ReportLcOutcome(lc.id, stats.p95_ms, stalled, phase);
      });
    }
    const double now = machine_->now();
    for (size_t i = 0; i < lcs_.size(); ++i) {
      const double rate = ArrivalRateAt(config_.lc_apps[i].arrival, now);
      machine_->SetAppRequiredIps(lcs_[i].id, rate * lcs_[i].ipr);
      tracer.Call(Kind::kSetLoad,
                  [&] { manager_->SetLcOfferedLoad(lcs_[i].id, rate); });
    }
    tracer.Call(Kind::kTick, [&] { manager_->Tick(); });
    ++period_;
  }

  uint64_t Observe() override {
    slowdowns_.clear();
    for (size_t i = 0; i < batch_.size(); ++i) {
      slowdowns_.push_back(
          Slowdown(batch_solo_[i], machine_->LastEpoch(batch_[i]).ips));
    }
    unfairness_.Add(Unfairness(slowdowns_));
    period_slowdowns_.insert(period_slowdowns_.end(), slowdowns_.begin(),
                             slowdowns_.end());
    ++counters_.ticks;
    counters_.idle_ticks += manager_->phase() == ManagerPhase::kIdle;
    return 1;
  }

  LayerCounters ReadCounters() const override {
    LayerCounters c = counters_;
    ReadMachineCounters(*machine_, *manager_, *resctrl_, *monitor_, c);
    for (const Lc& lc : lcs_) {
      c.requests += lc.server->total_completions();
      c.drops += lc.server->total_drops();
    }
    return c;
  }

  SimOutcome Finish() override {
    result_ = ServeScenarioResult{};
    SimOutcome out;
    if (lcs_.empty() || batch_.empty()) {
      tally_.Check(false, "slo_burst: set-up failed");
      return out;
    }
    for (const Lc& lc : lcs_) {
      ServeLcResult r;
      r.arrivals = lc.server->total_arrivals();
      r.completions = lc.server->total_completions();
      r.drops = lc.server->total_drops();
      r.queue_depth_end = lc.server->queue_depth();
      const LatencySketch& sketch = lc.server->cumulative_latency();
      if (sketch.count() > 0) {
        r.p50_ms = sketch.Quantile(0.50) * 1e3;
        r.p95_ms = sketch.Quantile(0.95) * 1e3;
        r.p99_ms = sketch.Quantile(0.99) * 1e3;
      }
      r.slo_violation_fraction = static_cast<double>(lc.violations) /
                                 static_cast<double>(periods_);
      tally_.Check(r.arrivals == r.completions + r.drops + r.queue_depth_end,
                   "slo_burst: serve conservation arrivals == completions + "
                   "drops + depth");
      result_.lc.push_back(r);
    }
    result_.mean_batch_unfairness = unfairness_.mean();
    std::vector<double> ips;
    std::vector<double> run_slowdowns;
    for (size_t i = 0; i < batch_.size(); ++i) {
      ips.push_back(machine_->Counters(batch_[i]).instructions /
                    config_.duration_sec);
      run_slowdowns.push_back(Slowdown(batch_solo_[i], ips.back()));
    }
    result_.run_batch_unfairness = Unfairness(run_slowdowns);
    result_.copart_adaptations = manager_->adaptations_started();
    result_.slo_resizes = manager_->slo_resizes();

    const ServeLcResult& lc = result_.lc.front();
    // Per-period mean: the whole-run figure over two apps swings with the
    // seed (it is printed as unfairness_run).
    out.Add("unfairness", result_.mean_batch_unfairness, "ratio");
    out.Add("unfairness_run", result_.run_batch_unfairness, "ratio");
    out.Add("ips_geomean", GeoMeanThroughput(ips), "instr/s");
    // Over per-period samples: whole-run p99 over two apps is their max.
    out.Add("slowdown_p99", Percentile(period_slowdowns_, 99.0), "ratio");
    out.Add("lc_p95_ms", lc.p95_ms, "ms");
    out.Add("slo_violation_pct", 100.0 * lc.slo_violation_fraction, "%");
    out.Add("demand_lost_pct",
            100.0 * static_cast<double>(lc.drops) /
                static_cast<double>(lc.arrivals),
            "%");
    out.Add("demand_offered", static_cast<double>(lc.arrivals), "requests");
    return out;
  }

  std::string DrivenSummary() const override {
    return result_.lc.empty() ? std::string() : SerializeServe(result_);
  }

 private:
  struct Lc {
    AppId id{0};
    double ipr = 0.0;
    double slo_ms = 0.0;
    std::unique_ptr<LcServer> server;
    size_t violations = 0;
  };

  ServeScenarioConfig config_;
  std::unique_ptr<SimulatedMachine> machine_;
  std::unique_ptr<Resctrl> resctrl_;
  std::unique_ptr<PerfMonitor> monitor_;
  std::unique_ptr<ResourceManager> manager_;
  MachineDriver machine_driver_;
  std::vector<Lc> lcs_;
  std::vector<AppId> batch_;
  std::vector<double> batch_solo_;
  int periods_ = 0;
  int period_ = 0;
  RunningStats unfairness_;
  std::vector<double> slowdowns_;
  std::vector<double> period_slowdowns_;
  ServeScenarioResult result_;
};

// --- fleet -------------------------------------------------------------------

FleetScenarioConfig FleetConfig(uint64_t seed) {
  // bench_fleet's canonical robustness scenario.
  FleetScenarioConfig config;
  config.seed = seed;
  config.num_nodes = kFleetNodes;
  config.epochs = kFleetEpochs;
  config.job_arrivals.base_rate_rps =
      0.15 * static_cast<double>(config.num_nodes);
  config.crash_wave_epoch = 45;
  config.crash_probability = 0.0002;
  config.slow_probability = 0.002;
  config.blackout_probability = 0.002;
  const uint32_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  config.parallel.num_threads = std::min(kFleetWorkers, cores);
  return config;
}

// Re-drives harness/fleet.cc's RunFleetScenario loop call by call.
class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(uint64_t seed) : config_(FleetConfig(seed)) {}

  void Setup(Tracer& tracer) override {
    FleetParams params = config_.fleet;
    params.seed = config_.seed;
    params.parallel = config_.parallel;
    injector_ = std::make_unique<FaultInjector>(
        Rng(config_.seed).Fork(kInjectorStream).NextUint64());
    const auto arm = [this](std::string_view point, double probability) {
      if (probability > 0.0) {
        FaultSpec spec;
        spec.probability = probability;
        injector_->Arm(point, spec);
      }
    };
    arm(fault_points::kNodeCrash, config_.crash_probability);
    arm(fault_points::kNodeSlow, config_.slow_probability);
    arm(fault_points::kNodeBlackout, config_.blackout_probability);
    if (injector_->armed()) {
      params.injector = injector_.get();
    }
    dt_ = params.control_period_sec;
    catalog_ = AllTable2Benchmarks();
    fleet_ = std::make_unique<FleetController>(config_.num_nodes, params);
    arrivals_ = std::make_unique<ArrivalGenerator>(
        config_.job_arrivals, Rng(config_.seed).Fork(kArrivalStream));
    spec_rng_ = Rng(config_.seed).Fork(kSpecStream);
    next_arrival_ = arrivals_->Next();
    for (int i = 0; i < kFleetSetupEpochs; ++i) {
      Step(tracer);
      Observe();
    }
  }

  bool Done() const override { return epoch_ >= config_.epochs; }

  void Step(Tracer& tracer) override {
    const double now = static_cast<double>(epoch_) * dt_;
    while (next_arrival_ <= now) {
      const FleetJobSpec spec = SampleJob();
      Result<FleetJobId> id =
          tracer.Call(Kind::kSubmit, [&] { return fleet_->Submit(spec); });
      tally_.Admit(id.status(), "FleetController::Submit", &shed_at_submit_);
      next_arrival_ = arrivals_->Next();
    }
    if (epoch_ == config_.crash_wave_epoch) {
      CrashWave(tracer);
    }
    tracer.Call(Kind::kRunEpoch, [&] { fleet_->RunEpoch(); });
    if (wave_epoch_ >= 0 && recovery_epochs_ < 0 &&
        fleet_->AliveNodes() == fleet_->NumNodes()) {
      recovery_epochs_ = epoch_ - wave_epoch_;
    }
    ++epoch_;
  }

  uint64_t Observe() override {
    node_unfairness_.Add(fleet_->MeanNodeUnfairness());
    // Geomean IPS of the batch jobs that ran this epoch (a job moved during
    // it has not run on its new node yet).
    ips_.clear();
    for (const FleetJob& job : fleet_->jobs()) {
      if (job.state == JobState::kResident && !job.spec.latency_critical) {
        const double ips = fleet_->node(static_cast<size_t>(job.node))
                               ->machine()
                               .LastEpoch(job.app)
                               .ips;
        if (ips > 0.0) {
          ips_.push_back(ips);
        }
      }
    }
    if (!ips_.empty()) {
      batch_ips_.Add(GeoMeanThroughput(ips_));
    }
    const uint64_t ticks = fleet_->node_ticks() - last_node_ticks_;
    last_node_ticks_ = fleet_->node_ticks();
    return ticks;
  }

  SimOutcome Finish() override {
    result_ = FleetScenarioResult{};
    result_.counters = fleet_->counters();
    result_.alive_nodes = fleet_->AliveNodes();
    result_.resident_jobs = fleet_->ResidentJobs();
    result_.node_ticks = fleet_->node_ticks();
    result_.mean_node_unfairness = fleet_->MeanNodeUnfairness();
    result_.fleet_p99_slowdown = Percentile(fleet_->AllSlowdowns(), 99.0);
    result_.recovery_epochs = recovery_epochs_;
    result_.first_violation = fleet_->first_violation();

    const FleetCounters& c = result_.counters;
    tally_.Check(c.invariant_violations == 0 && result_.first_violation.empty(),
                 "fleet: invariant violation: " + result_.first_violation);
    tally_.Check(c.submitted == c.completed + c.shed_total() +
                                    c.lost_to_crash + result_.resident_jobs,
                 "fleet: job conservation");

    tally_.Check(batch_ips_.count() > 0, "fleet: no batch job ever ran");

    SimOutcome out;
    out.Add("unfairness", node_unfairness_.mean(), "ratio");
    out.Add("ips_geomean", batch_ips_.mean(), "instr/s");
    out.Add("slowdown_p99", result_.fleet_p99_slowdown, "ratio");
    out.Add("demand_lost_pct",
            100.0 * static_cast<double>(c.shed_total() + c.lost_to_crash) /
                static_cast<double>(c.submitted),
            "%");
    out.Add("demand_offered", static_cast<double>(c.submitted), "jobs");
    out.Add("recovery_epochs", result_.recovery_epochs, "epochs");
    return out;
  }

  LayerCounters ReadCounters() const override {
    LayerCounters c = counters_;
    const FleetCounters& f = fleet_->counters();
    c.node_ticks = fleet_->node_ticks();
    c.migrations_planned = f.migrations_planned;
    c.migrations_completed = f.migrations_completed;
    c.migration_rollbacks = f.migration_rollbacks;
    c.conservation_checks = f.conservation_checks;
    return c;
  }

  std::string DrivenSummary() const override {
    return result_.DeterministicSummary();
  }

  size_t threads() const override { return config_.parallel.num_threads; }

 private:
  // harness/fleet.cc's SampleJob: lc?, catalog index, cores, lifetime.
  FleetJobSpec SampleJob() {
    const bool lc = static_cast<double>(spec_rng_.NextUint64(1000)) <
                    config_.lc_fraction * 1000.0;
    const size_t pick = spec_rng_.NextUint64(catalog_.size());
    const uint32_t cores = spec_rng_.NextUint64(2) == 0 ? 2 : 4;
    const int span = config_.lifetime_max_epochs - config_.lifetime_min_epochs;
    const int lifetime =
        config_.lifetime_min_epochs +
        (span > 0 ? static_cast<int>(spec_rng_.NextUint64(span + 1)) : 0);
    FleetJobSpec spec;
    if (lc) {
      spec.workload = Memcached();
      spec.latency_critical = true;
      spec.offered_rps = config_.lc_offered_rps;
    } else {
      spec.workload = catalog_[pick];
    }
    spec.cores = cores;
    spec.lifetime_epochs = lifetime;
    return spec;
  }

  void CrashWave(Tracer& tracer) {
    std::vector<size_t> alive;
    for (size_t i = 0; i < fleet_->NumNodes(); ++i) {
      if (fleet_->node_status(i).health == NodeHealth::kAlive) {
        alive.push_back(i);
      }
    }
    size_t to_kill = static_cast<size_t>(static_cast<double>(alive.size()) *
                                         config_.crash_wave_fraction);
    if (to_kill == 0 && !alive.empty()) {
      to_kill = 1;
    }
    Rng wave_rng = Rng(config_.seed).Fork(kWaveStream);
    for (size_t k = 0; k < to_kill; ++k) {
      const size_t pick =
          k + static_cast<size_t>(wave_rng.NextUint64(alive.size() - k));
      std::swap(alive[k], alive[pick]);
      tracer.Call(Kind::kCrashNode, [&] { fleet_->CrashNode(alive[k]); });
    }
    wave_epoch_ = epoch_;
  }

  FleetScenarioConfig config_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<FleetController> fleet_;
  std::unique_ptr<ArrivalGenerator> arrivals_;
  std::vector<WorkloadDescriptor> catalog_;
  Rng spec_rng_{0};
  double dt_ = 0.5;
  double next_arrival_ = 0.0;
  int epoch_ = 0;
  int wave_epoch_ = -1;
  int recovery_epochs_ = -1;
  uint64_t shed_at_submit_ = 0;
  uint64_t last_node_ticks_ = 0;
  RunningStats node_unfairness_;
  RunningStats batch_ips_;
  std::vector<double> ips_;
  FleetScenarioResult result_;
};

// ---------------------------------------------------------------------------
// Episodes and phases.

using Factory = std::function<std::unique_ptr<Workload>()>;

// One measured phase (untraced or traced) of a run. Every episode of a
// phase repeats the same periods, so host time is folded per period index:
// each period (and each traced span) keeps its fastest repeat. A co-tenant
// slowdown then has to cover the same period in every episode to show.
struct PhaseResult {
  int episodes = 0;
  std::vector<double> setup_s;    // One per set-up-only round.
  std::vector<double> period_us;  // Fastest repeat of each period.
  uint64_t work = 0;           // Work units per episode (deterministic).
  std::string sim;             // Serialized SimOutcome of the first episode.
  SimOutcome outcome;
  std::string summary;         // DrivenSummary of the first episode.
  Tally tally;
  // The first episode's layer counters over its driven periods. Traced
  // phase: its spans, and per span index the fastest duration and self
  // time.
  LayerCounters counters;
  std::vector<Span> spans;
  std::vector<int64_t> span_ns;
  std::vector<int64_t> span_self_ns;
};

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return InternalError("cannot write " + path);
  }
  std::fprintf(out, "index,name,parent,period,start_ns,end_ns,self_ns\n");
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%zu,%s,%d,%" PRIu64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                      "\n",
                 i, kKindNames[static_cast<size_t>(s.kind)], s.parent,
                 s.period, s.start_ns - origin, s.end_ns - origin,
                 s.end_ns - s.start_ns - s.covered_ns);
  }
  return std::fclose(out) == 0 ? Status::Ok()
                               : InternalError("cannot close " + path);
}

// Runs one episode and folds it into `phase`. Every episode of a phase
// must reproduce the first one's periods, spans and simulated outcome.
void RunEpisode(const Factory& factory, bool traced,
                const std::string& spans_path, PhaseResult& phase) {
  Tracer tracer(traced);
  std::unique_ptr<Workload> workload = factory();
  workload->Setup(tracer);
  const LayerCounters at_setup = workload->ReadCounters();

  std::vector<double> period_us;
  period_us.reserve(phase.period_us.size());
  uint64_t work = 0;
  for (uint64_t id = 1; !workload->Done(); ++id) {
    tracer.BeginPeriod(id);
    workload->Step(tracer);
    period_us.push_back(tracer.EndPeriod());
    work += workload->Observe();
  }
  const SimOutcome outcome = workload->Finish();
  const LayerCounters counters = workload->ReadCounters().Since(at_setup);
  const std::string sim = outcome.Serialize();
  const std::vector<Span>& spans = tracer.spans();
  if (traced && counters.advance_calls > 0) {
    // The driver's tier tags against the machine's own solve totals: every
    // solve of the driven periods happened inside a timed AdvanceTime call,
    // each launch epoch did one full solve, and no call did two solves.
    uint64_t tagged[kNumKinds] = {};
    for (const Span& span : spans) {
      tagged[static_cast<size_t>(span.kind)] += span.period != 0;
    }
    const auto n = [&](Kind kind) { return tagged[static_cast<size_t>(kind)]; };
    phase.tally.Check(
        n(Kind::kLaunchEpoch) + n(Kind::kFullSolve) == counters.full_solves &&
            n(Kind::kPartialSolve) == counters.partial_solves &&
            counters.tier_conflicts == 0,
        "machine tier attribution disagrees with the machine's solve "
        "counters");
  }
  phase.tally.Merge(workload->tally());

  if (phase.episodes == 0) {
    phase.period_us = period_us;
    phase.work = work;
    phase.sim = sim;
    phase.outcome = outcome;
    phase.summary = workload->DrivenSummary();
    phase.counters = counters;
    if (traced) {
      phase.spans = spans;
      phase.span_ns.assign(spans.size(), INT64_MAX);
      phase.span_self_ns.assign(spans.size(), INT64_MAX);
      if (!spans_path.empty()) {
        phase.tally.Expect(WriteSpans(spans, spans_path), "writing spans");
      }
    }
  } else {
    const bool same = sim == phase.sim && work == phase.work &&
                      period_us.size() == phase.period_us.size() &&
                      spans.size() == phase.spans.size();
    phase.tally.Check(same, "episode differs from the first episode");
    if (!same) {
      ++phase.episodes;
      return;
    }
    for (size_t i = 0; i < period_us.size(); ++i) {
      phase.period_us[i] = std::min(phase.period_us[i], period_us[i]);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    phase.span_ns[i] = std::min(phase.span_ns[i], duration);
    phase.span_self_ns[i] =
        std::min(phase.span_self_ns[i], duration - spans[i].covered_ns);
  }
  ++phase.episodes;
}

// A set-up-only round: builds the workload, drives its set-up periods and
// drops it, timing the set-up.
void TimeSetup(const Factory& factory, PhaseResult& phase) {
  Tracer tracer(false);
  const int64_t start = NowNs();
  std::unique_ptr<Workload> workload = factory();
  workload->Setup(tracer);
  phase.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  phase.tally.Merge(workload->tally());
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Restricts the calling thread (and the threads it starts) to `width` of
// `cpus`, starting at `first` and wrapping around.
void PinTo(const std::vector<int>& cpus, size_t first, size_t width) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < std::min(width, cpus.size()); ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &set);
  }
  // Best effort: an unpinned episode is still measured correctly.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double Rate(const PhaseResult& phase) {
  double busy_us = 0.0;
  for (const double us : phase.period_us) {
    busy_us += us;
  }
  return busy_us > 0.0 ? static_cast<double>(phase.work) / (busy_us / 1e6)
                       : 0.0;
}

// ---------------------------------------------------------------------------
// Output.

void PrintMetric(const char* name, double value, const char* unit,
                 const char* kind) {
  std::printf("metric %s %.17g %s %s\n", name, value, unit, kind);
}

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, is not carried over from the launcher across exec.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

void PrintEndToEnd(const PhaseResult& phase, double peak_rss_mb,
                   uint64_t total_checks, uint64_t failed_checks) {
  PrintMetric("sim_epochs_per_s", Rate(phase), "1/s", "host");
  PrintMetric("period_us_p50", Percentile(phase.period_us, 50.0), "us",
              "host");
  PrintMetric("period_us_p99", Percentile(phase.period_us, 99.0), "us",
              "host");
  PrintMetric("setup_s", Percentile(phase.setup_s, 50.0), "s", "host");
  PrintMetric("peak_rss_mb", peak_rss_mb, "MiB", "host");
  for (const SimOutcome::Value& v : phase.outcome.values) {
    PrintMetric(v.name, v.value, v.unit, "sim");
  }
  PrintMetric("failed_pct",
              100.0 * static_cast<double>(failed_checks) /
                  static_cast<double>(std::max<uint64_t>(total_checks, 1)),
              "%", "program");
  PrintMetric("periods_per_episode",
              static_cast<double>(phase.period_us.size()), "count", "sample");
  PrintMetric("episodes", phase.episodes, "count", "sample");
}

// Per-kind totals over one episode's periodic spans (set-up spans, period
// 0, are timed as setup_s instead).
struct KindTotals {
  double total_us = 0.0;
  double self_us = 0.0;
  uint64_t count = 0;
};

void PrintLayers(const PhaseResult& untraced, const PhaseResult& traced) {
  KindTotals k[kNumKinds];
  for (size_t i = 0; i < traced.spans.size(); ++i) {
    if (traced.spans[i].period == 0) {
      continue;
    }
    KindTotals& t = k[static_cast<size_t>(traced.spans[i].kind)];
    t.total_us += static_cast<double>(traced.span_ns[i]) / 1e3;
    t.self_us += static_cast<double>(traced.span_self_ns[i]) / 1e3;
    ++t.count;
  }
  const auto self_us = [&](Kind kind) {
    return k[static_cast<size_t>(kind)].self_us;
  };
  const auto calls = [&](Kind kind) {
    return static_cast<double>(k[static_cast<size_t>(kind)].count);
  };
  const auto mean_us = [&](Kind kind) {
    const KindTotals& t = k[static_cast<size_t>(kind)];
    return t.count == 0 ? 0.0 : t.self_us / static_cast<double>(t.count);
  };
  const auto sum_self = [&](std::initializer_list<Kind> kinds) {
    double sum = 0.0;
    for (Kind kind : kinds) {
      sum += self_us(kind);
    }
    return sum;
  };
  const double period_us = k[0].total_us;
  const auto share = [&](double us) {
    return period_us > 0.0 ? 100.0 * us / period_us : 0.0;
  };
  const LayerCounters& c = traced.counters;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const double advance_us = sum_self({Kind::kLaunchEpoch, Kind::kFullSolve,
                                      Kind::kPartialSolve, Kind::kReplay});
  PrintMetric("machine.advance_us", advance_us, "us", "layer");
  PrintMetric("machine.advance_calls",
              calls(Kind::kLaunchEpoch) + calls(Kind::kFullSolve) +
                  calls(Kind::kPartialSolve) + calls(Kind::kReplay),
              "count", "layer");
  const std::pair<Kind, const char*> tiers[] = {
      {Kind::kLaunchEpoch, "launch_epoch"},
      {Kind::kFullSolve, "full_solve"},
      {Kind::kPartialSolve, "partial_solve"},
      {Kind::kReplay, "replay"}};
  const char* count_names[] = {"machine.launch_epochs", "machine.full_solves",
                               "machine.partial_solves", "machine.replays"};
  for (size_t i = 0; i < 4; ++i) {
    const std::string base = std::string("machine.") + tiers[i].second;
    PrintMetric((base + "_us").c_str(), self_us(tiers[i].first), "us",
                "layer");
    PrintMetric(count_names[i], calls(tiers[i].first), "count", "layer");
    PrintMetric((base + "_mean_us").c_str(), mean_us(tiers[i].first), "us",
                "layer");
  }
  PrintMetric("machine.admin_us", self_us(Kind::kMachineAdmin), "us",
              "layer");
  PrintMetric("machine.tier_conflicts", static_cast<double>(c.tier_conflicts),
              "count", "layer");
  PrintMetric("machine.share_pct",
              share(advance_us + self_us(Kind::kMachineAdmin)), "%", "layer");

  PrintMetric("core.tick_us", self_us(Kind::kTick), "us", "layer");
  PrintMetric("core.ticks", calls(Kind::kTick), "count", "layer");
  PrintMetric("core.tick_mean_us", mean_us(Kind::kTick), "us", "layer");
  PrintMetric("core.explore_us", c.explore_us, "us", "layer");
  PrintMetric("core.explore_calls", static_cast<double>(c.explore_calls),
              "count", "layer");
  PrintMetric("core.admin_us", self_us(Kind::kCoreAdmin), "us", "layer");
  PrintMetric("core.admin_calls", calls(Kind::kCoreAdmin), "count", "layer");
  PrintMetric("core.idle_tick_ratio",
              ratio(static_cast<double>(c.idle_ticks),
                    static_cast<double>(c.ticks)),
              "ratio", "layer");
  PrintMetric("core.adaptations", static_cast<double>(c.adaptations), "count",
              "layer");
  PrintMetric("core.actuations", static_cast<double>(c.actuations), "count",
              "layer");
  PrintMetric("core.actuation_failures",
              static_cast<double>(c.actuation_failures), "count", "layer");
  PrintMetric("core.share_pct",
              share(self_us(Kind::kTick) + self_us(Kind::kCoreAdmin)), "%",
              "layer");

  PrintMetric("resctrl.schemata_writes", static_cast<double>(c.schemata_writes),
              "count", "layer");
  PrintMetric("resctrl.writes_per_tick",
              ratio(static_cast<double>(c.schemata_writes),
                    calls(Kind::kTick)),
              "ratio", "layer");
  PrintMetric("resctrl.write_failures", static_cast<double>(c.write_failures),
              "count", "layer");
  PrintMetric("pmc.samples", static_cast<double>(c.pmc_samples), "count",
              "layer");
  PrintMetric("pmc.sample_failures", static_cast<double>(c.pmc_failures),
              "count", "layer");

  PrintMetric("serve.advance_epoch_us", self_us(Kind::kServeEpoch), "us",
              "layer");
  PrintMetric("serve.requests", static_cast<double>(c.requests), "count",
              "layer");
  PrintMetric("serve.ns_per_request",
              ratio(1e3 * self_us(Kind::kServeEpoch),
                    static_cast<double>(c.requests)),
              "ns", "layer");
  PrintMetric("serve.drops", static_cast<double>(c.drops), "count", "layer");
  PrintMetric("serve.share_pct", share(self_us(Kind::kServeEpoch)), "%",
              "layer");

  PrintMetric("slo.report_outcome_us", self_us(Kind::kReportOutcome), "us",
              "layer");
  PrintMetric("slo.report_outcome_ns_per_call",
              1e3 * mean_us(Kind::kReportOutcome), "ns", "layer");
  PrintMetric("slo.set_load_us", self_us(Kind::kSetLoad), "us", "layer");
  PrintMetric("slo.resizes", static_cast<double>(c.slo_resizes), "count",
              "layer");
  PrintMetric("slo.unattainable_ticks",
              static_cast<double>(c.slo_unattainable), "count", "layer");
  PrintMetric("slo.share_pct",
              share(self_us(Kind::kReportOutcome) + self_us(Kind::kSetLoad)),
              "%", "layer");

  PrintMetric("cluster.run_epoch_us", self_us(Kind::kRunEpoch), "us",
              "layer");
  PrintMetric("cluster.run_epoch_mean_us", mean_us(Kind::kRunEpoch), "us",
              "layer");
  PrintMetric("cluster.submit_us", self_us(Kind::kSubmit), "us", "layer");
  PrintMetric("cluster.submits", calls(Kind::kSubmit), "count", "layer");
  PrintMetric("cluster.crash_node_us", self_us(Kind::kCrashNode), "us",
              "layer");
  PrintMetric("cluster.node_ticks", static_cast<double>(c.node_ticks),
              "count", "layer");
  PrintMetric("cluster.migrations_planned",
              static_cast<double>(c.migrations_planned), "count", "layer");
  PrintMetric("cluster.migrations_completed",
              static_cast<double>(c.migrations_completed), "count", "layer");
  PrintMetric("cluster.migration_rollbacks",
              static_cast<double>(c.migration_rollbacks), "count", "layer");
  PrintMetric("cluster.migration_verify_ratio",
              ratio(static_cast<double>(c.migrations_completed),
                    static_cast<double>(c.migrations_planned)),
              "ratio", "layer");
  PrintMetric("cluster.conservation_checks",
              static_cast<double>(c.conservation_checks), "count", "layer");
  PrintMetric("cluster.share_pct",
              share(self_us(Kind::kRunEpoch) + self_us(Kind::kSubmit) +
                    self_us(Kind::kCrashNode)),
              "%", "layer");

  PrintMetric("bench.period_us", period_us, "us", "layer");
  PrintMetric("bench.self_us", k[0].self_us, "us", "layer");
  PrintMetric("bench.self_share_pct", share(k[0].self_us), "%",
              "layer");
  PrintMetric("bench.periods", static_cast<double>(traced.period_us.size()),
              "count", "layer");
  PrintMetric("bench.spans", static_cast<double>(traced.spans.size()),
              "count", "layer");
  PrintMetric("bench.episodes", traced.episodes, "count", "layer");
  const double untraced_eps = Rate(untraced);
  PrintMetric("bench.trace_overhead_pct",
              100.0 * (untraced_eps - Rate(traced)) / untraced_eps,
              "%", "layer");
}

// ---------------------------------------------------------------------------
// Workload table.

struct WorkloadEntry {
  const char* name;
  // Host seconds one untraced episode took on the 4-vCPU KVM guest the
  // benchmark was tuned on; only sizes the episode count.
  double nominal_episode_s;
  std::unique_ptr<Workload> (*make)(uint64_t seed);
  // The harness entry point's result for the seed, in DrivenSummary's
  // terms; null when the workload re-drives none.
  std::string (*reference)(uint64_t seed);
};

template <typename W>
std::unique_ptr<Workload> Make(uint64_t seed) {
  return std::make_unique<W>(seed);
}

const WorkloadEntry kWorkloads[] = {
    {"churn", 1.4, Make<ChurnWorkload>, nullptr},
    {"cluster48", 0.45, Make<Cluster48Workload>, nullptr},
    {"slo_burst", 5.0, Make<SloBurstWorkload>,
     [](uint64_t seed) {
       return SerializeServe(RunServeScenario(SloBurstConfig(seed)));
     }},
    {"fleet", 4.5, Make<FleetWorkload>,
     [](uint64_t seed) {
       return RunFleetScenario(FleetConfig(seed)).DeterministicSummary();
     }},
};

// Episodes per phase: enough to fill `seconds` at the nominal speed, and at
// least kMinEpisodes. A pure function of the workload and `seconds`, so
// every commit folds its per-period minima over the same number of repeats;
// faster code finishes sooner instead of drawing more samples.
int EpisodeCount(const WorkloadEntry& entry, double seconds) {
  return std::max(kMinEpisodes, static_cast<int>(std::lround(
                                    seconds / entry.nominal_episode_s)));
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload churn|cluster48|slo_burst|"
               "fleet --seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::optional<uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || *value == '\0') {
        return Usage();
      }
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0   ? 1
              : std::strcmp(value, "0") == 0 ? 0
                                             : -1;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !seed.has_value() || seconds <= 0.0 || trace < 0) {
    return Usage();
  }

  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& e : kWorkloads) {
    if (workload == e.name) {
      entry = &e;
    }
  }
  if (entry == nullptr) {
    return Usage();
  }
  const uint64_t s = *seed;
  const Factory factory = [entry, s] { return entry->make(s); };

  // With tracing, untraced and traced episodes alternate so host drift
  // cancels out of the tracing overhead. Episodes rotate over the allowed
  // CPUs: on a shared virtual machine co-tenants slow single virtual CPUs
  // for seconds at a time, and the per-period minimum then draws on all.
  const std::vector<int> cpus = AllowedCpus();
  const size_t width = factory()->threads();
  size_t next_cpu = 0;
  const auto run_episode = [&](bool traced_episode, PhaseResult& phase) {
    PinTo(cpus, next_cpu, width);
    next_cpu += width;
    RunEpisode(factory, traced_episode, traced_episode ? spans_path : "",
               phase);
  };
  PhaseResult untraced;
  PhaseResult traced;
  for (int i = 0; trace == 0 && i < kSetups; ++i) {
    PinTo(cpus, next_cpu, width);
    next_cpu += width;
    TimeSetup(factory, untraced);
  }
  const int episodes = EpisodeCount(*entry, seconds);
  for (int e = 0; e < episodes; ++e) {
    run_episode(false, untraced);
    if (trace == 1) {
      run_episode(true, traced);
    }
  }
  PinTo(cpus, 0, cpus.size());
  // Read before the reference run, so the peak is the driven workload's.
  const double peak_rss_mb = PeakRssMb();
  Tally tally;
  tally.Merge(untraced.tally);
  if (entry->reference) {
    tally.Check(untraced.summary == entry->reference(s),
                std::string(entry->name) +
                    ": driven loop differs from the harness entry point");
  }
  if (trace == 1) {
    tally.Merge(traced.tally);
    tally.Check(traced.sim == untraced.sim,
                "traced and untraced simulated outcomes differ");
    PrintLayers(untraced, traced);
  } else {
    PrintEndToEnd(untraced, peak_rss_mb, tally.attempted, tally.failed);
  }
  if (tally.failed > 0) {
    std::fprintf(stderr, "perfbench: %" PRIu64 " of %" PRIu64
                         " checks failed; first: %s\n",
                 tally.failed, tally.attempted, tally.first_failure.c_str());
  }
  std::printf("result %d %" PRIu64 " %" PRIu64 "\n", tally.failed == 0 ? 1 : 0,
              tally.attempted, tally.failed);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace copart::perfbench

int main(int argc, char** argv) {
  return copart::perfbench::Main(argc, argv);
}
