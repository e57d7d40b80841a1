// Trace-replay adapter (src/trace/trace_replay.h): round-trip of a
// captured profile into WorkloadDescriptor + ArrivalConfig, schema
// rejection paths, and replay on the simulated machine / serve engine.
#include "trace/trace_replay.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json_reader.h"
#include "common/rng.h"
#include "common/units.h"
#include "machine/simulated_machine.h"

namespace copart {
namespace {

const char kFullDocument[] = R"({
  "schema": "copart-trace-v1",
  "name": "captured_kv",
  "short_name": "KV",
  "category": "latency_critical",
  "reuse": {
    "streaming_weight": 0.05,
    "components": [
      {"weight": 0.8, "working_set_bytes": 12582912},
      {"weight": 0.1, "working_set_bytes": 1048576}
    ]
  },
  "cpu": {
    "accesses_per_instr": 0.008,
    "cpi_exec": 1.2,
    "mem_latency_cycles": 180.0,
    "mlp": 2.5,
    "mba_kappa": 0.1,
    "num_threads": 8
  },
  "phases": [
    {"duration_sec": 15.0},
    {"duration_sec": 15.0, "access_intensity_scale": 2.0,
     "streaming_scale": 8.0, "cpi_exec_scale": 1.1}
  ],
  "serve": {
    "instructions_per_request": 60000.0,
    "slo_p95_ms": 1.0,
    "arrival": {
      "kind": "flash_crowd",
      "base_rate_rps": 75000.0,
      "flash_start_sec": 40.0,
      "flash_duration_sec": 20.0,
      "flash_multiplier": 4.0
    }
  }
})";

TEST(TraceReplayTest, FullDocumentRoundTrips) {
  Result<TraceReplay> replay = ParseTraceReplay(kFullDocument);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const WorkloadDescriptor& w = replay->workload;
  EXPECT_EQ(w.name, "captured_kv");
  EXPECT_EQ(w.short_name, "KV");
  EXPECT_EQ(w.category, WorkloadCategory::kLatencyCritical);
  ASSERT_EQ(w.reuse_profile.components().size(), 2u);
  EXPECT_DOUBLE_EQ(w.reuse_profile.components()[0].weight, 0.8);
  EXPECT_EQ(w.reuse_profile.components()[0].working_set_bytes, MiB(12));
  EXPECT_DOUBLE_EQ(w.reuse_profile.streaming_weight(), 0.05);
  EXPECT_DOUBLE_EQ(w.accesses_per_instr, 0.008);
  EXPECT_DOUBLE_EQ(w.cpi_exec, 1.2);
  EXPECT_DOUBLE_EQ(w.mem_latency_cycles, 180.0);
  EXPECT_DOUBLE_EQ(w.mlp, 2.5);
  EXPECT_DOUBLE_EQ(w.mba_kappa, 0.1);
  EXPECT_EQ(w.num_threads, 8u);
  ASSERT_EQ(w.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(w.phases[1].streaming_scale, 8.0);
  EXPECT_DOUBLE_EQ(w.instructions_per_request, 60000.0);
  EXPECT_DOUBLE_EQ(w.slo_p95_ms, 1.0);
  ASSERT_TRUE(replay->has_arrival);
  EXPECT_EQ(replay->arrival.kind, ArrivalKind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(replay->arrival.base_rate_rps, 75000.0);
  EXPECT_DOUBLE_EQ(replay->arrival.flash_multiplier, 4.0);
}

TEST(TraceReplayTest, MinimalBatchDocumentParses) {
  const char kMinimal[] = R"({
    "schema": "copart-trace-v1",
    "name": "captured_batch",
    "reuse": {"components": [{"weight": 0.5, "working_set_bytes": 4194304}]},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 0.9}
  })";
  Result<TraceReplay> replay = ParseTraceReplay(kMinimal);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->workload.short_name, "captured_batch");
  EXPECT_EQ(replay->workload.category, WorkloadCategory::kInsensitive);
  EXPECT_FALSE(replay->has_arrival);
  EXPECT_TRUE(replay->workload.phases.empty());
}

TEST(TraceReplayTest, ReplayedWorkloadRunsOnTheMachine) {
  Result<TraceReplay> replay = ParseTraceReplay(kFullDocument);
  ASSERT_TRUE(replay.ok());
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(config);
  Result<AppId> app =
      machine.LaunchApp(replay->workload, replay->workload.num_threads);
  ASSERT_TRUE(app.ok());
  machine.AdvanceTime(7.0);  // Steady phase.
  const double steady_ips = machine.LastEpoch(*app).ips;
  EXPECT_GT(steady_ips, 0.0);
  machine.AdvanceTime(15.0);  // Hot-set rotation phase.
  EXPECT_LT(machine.LastEpoch(*app).ips, steady_ips);
}

TEST(TraceReplayTest, ReplayedArrivalDrivesAGenerator) {
  Result<TraceReplay> replay = ParseTraceReplay(kFullDocument);
  ASSERT_TRUE(replay.ok());
  ArrivalGenerator generator(replay->arrival, Rng(3));
  EXPECT_DOUBLE_EQ(generator.PeakRate(), 300000.0);
  EXPECT_DOUBLE_EQ(generator.RateAt(50.0), 300000.0);  // Inside the flash.
  EXPECT_DOUBLE_EQ(generator.RateAt(70.0), 75000.0);
  double last = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double t = generator.Next();
    ASSERT_GT(t, last);
    last = t;
  }
}

TEST(TraceReplayTest, LoadsFromFile) {
  const std::string path = ::testing::TempDir() + "/trace_replay_test.json";
  {
    std::ofstream out(path);
    out << kFullDocument;
  }
  Result<TraceReplay> replay = LoadTraceReplayFile(path);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  std::remove(path.c_str());
  Result<TraceReplay> missing = LoadTraceReplayFile(path);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// `kFullDocument` padded with trailing whitespace to exactly `bytes`,
// written to a temp file; returns its path.
std::string WritePaddedDocument(size_t bytes) {
  std::string text = kFullDocument;
  text.resize(bytes, ' ');
  const std::string path = ::testing::TempDir() + "/trace_replay_padded.json";
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

TEST(TraceReplayTest, FileAtTheSizeLimitLoads) {
  const std::string path = WritePaddedDocument(kJsonMaxDocumentBytes);
  Result<TraceReplay> replay = LoadTraceReplayFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
}

TEST(TraceReplayTest, RejectsFilePastTheSizeLimit) {
  const std::string path = WritePaddedDocument(kJsonMaxDocumentBytes + 1);
  Result<TraceReplay> replay = LoadTraceReplayFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.status().message().find("exceeds"), std::string::npos)
      << replay.status().ToString();
  // The in-memory entry point holds the same cap.
  std::string text = kFullDocument;
  text.resize(kJsonMaxDocumentBytes + 1, ' ');
  EXPECT_EQ(ParseTraceReplay(text).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Rejection paths: every schema violation must fail loudly. ---

TEST(TraceReplayTest, RejectsMalformedJson) {
  Result<TraceReplay> replay = ParseTraceReplay("{\"schema\": ");
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceReplayTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseTraceReplay("{} extra").ok());
}

// `depth` nested empty arrays: "[[...]]".
std::string NestedArrays(size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(TraceReplayTest, NestingAtTheDepthLimitParses) {
  // Well-formed JSON at the limit: only the schema check rejects it.
  Result<TraceReplay> replay =
      ParseTraceReplay(NestedArrays(kJsonMaxNestingDepth));
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("top level must be an object"),
            std::string::npos)
      << replay.status().ToString();
}

TEST(TraceReplayTest, RejectsNestingPastTheDepthLimit) {
  Result<TraceReplay> replay =
      ParseTraceReplay(NestedArrays(kJsonMaxNestingDepth + 1));
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.status().message().find("nesting depth"),
            std::string::npos)
      << replay.status().ToString();
}

TEST(TraceReplayTest, RejectsMillionDeepNestingWithoutCrashing) {
  // Unbounded recursion used to overflow the stack here.
  Result<TraceReplay> replay = ParseTraceReplay(NestedArrays(1000000));
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("nesting depth"),
            std::string::npos);
}

TEST(TraceReplayTest, RejectsWrongSchemaTag) {
  const char kDoc[] = R"({
    "schema": "copart-trace-v9",
    "name": "x",
    "reuse": {"components": []},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0}
  })";
  Result<TraceReplay> replay = ParseTraceReplay(kDoc);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("unsupported schema"),
            std::string::npos);
}

TEST(TraceReplayTest, RejectsUnknownKeys) {
  const char kDoc[] = R"({
    "schema": "copart-trace-v1",
    "name": "x",
    "reuse": {"components": [], "streeming_weight": 0.1},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0}
  })";
  Result<TraceReplay> replay = ParseTraceReplay(kDoc);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("streeming_weight"),
            std::string::npos);
}

TEST(TraceReplayTest, RejectsDuplicateKeys) {
  EXPECT_FALSE(
      ParseTraceReplay(R"({"schema": "a", "schema": "b"})").ok());
}

TEST(TraceReplayTest, RejectsOverweightReuseProfile) {
  const char kDoc[] = R"({
    "schema": "copart-trace-v1",
    "name": "x",
    "reuse": {
      "streaming_weight": 0.5,
      "components": [{"weight": 0.8, "working_set_bytes": 1048576}]
    },
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0}
  })";
  Result<TraceReplay> replay = ParseTraceReplay(kDoc);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("exceed 1"), std::string::npos);
}

TEST(TraceReplayTest, RejectsLatencyCriticalWithoutServeSection) {
  const char kDoc[] = R"({
    "schema": "copart-trace-v1",
    "name": "x",
    "category": "latency_critical",
    "reuse": {"components": [{"weight": 0.5, "working_set_bytes": 1048576}]},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0}
  })";
  EXPECT_FALSE(ParseTraceReplay(kDoc).ok());
}

TEST(TraceReplayTest, RejectsBadArrivalKindAndRanges) {
  const char kBadKind[] = R"({
    "schema": "copart-trace-v1",
    "name": "x",
    "reuse": {"components": [{"weight": 0.5, "working_set_bytes": 1048576}]},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0},
    "serve": {
      "instructions_per_request": 1000.0, "slo_p95_ms": 1.0,
      "arrival": {"kind": "tsunami", "base_rate_rps": 100.0}
    }
  })";
  EXPECT_FALSE(ParseTraceReplay(kBadKind).ok());
  const char kBadRate[] = R"({
    "schema": "copart-trace-v1",
    "name": "x",
    "reuse": {"components": [{"weight": 0.5, "working_set_bytes": 1048576}]},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0},
    "serve": {
      "instructions_per_request": 1000.0, "slo_p95_ms": 1.0,
      "arrival": {"kind": "poisson", "base_rate_rps": -5.0}
    }
  })";
  EXPECT_FALSE(ParseTraceReplay(kBadRate).ok());
}

TEST(TraceReplayTest, RejectsBurstWithEveryRateMultiplierZero) {
  // A cycle with no positive rate offers no arrivals at all; a generator
  // built from it could never return one.
  const char kDoc[] = R"({
    "schema": "copart-trace-v1",
    "name": "x",
    "reuse": {"components": [{"weight": 0.5, "working_set_bytes": 1048576}]},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0},
    "serve": {
      "instructions_per_request": 1000.0, "slo_p95_ms": 1.0,
      "arrival": {"kind": "burst", "base_rate_rps": 100,
                  "burst_phases": [{"duration_sec": 1,
                                    "rate_multiplier": 0}]}
    }
  })";
  Result<TraceReplay> replay = ParseTraceReplay(kDoc);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("$.serve.arrival.burst_phases"),
            std::string::npos)
      << replay.status().ToString();
}

TEST(TraceReplayTest, RejectsNonPositivePhaseDuration) {
  const char kDoc[] = R"({
    "schema": "copart-trace-v1",
    "name": "x",
    "reuse": {"components": [{"weight": 0.5, "working_set_bytes": 1048576}]},
    "cpu": {"accesses_per_instr": 0.01, "cpi_exec": 1.0},
    "phases": [{"duration_sec": 0.0}]
  })";
  EXPECT_FALSE(ParseTraceReplay(kDoc).ok());
}

}  // namespace
}  // namespace copart
