// Seeded mutation fuzz of every JSON input boundary: the four committed
// BENCH_*.json baselines and a valid trace document, each put through byte
// flips, truncations, insertions and extra nesting. Every mutant must
// either parse or come back as InvalidArgument — never crash or hang — and
// tools/bench_gate handed a mutated baseline must exit with a verdict (0 or
// 1) or, when the mutant no longer parses, exit 2 with a message.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_reader.h"
#include "common/rng.h"
#include "trace/trace_replay.h"

namespace copart {
namespace {

constexpr char kTraceDocument[] = R"({
  "schema": "copart-trace-v1",
  "name": "captured_kv",
  "category": "latency_critical",
  "reuse": {
    "streaming_weight": 0.05,
    "components": [{"weight": 0.8, "working_set_bytes": 12582912}]
  },
  "cpu": {"accesses_per_instr": 0.008, "cpi_exec": 1.2, "num_threads": 8},
  "phases": [{"duration_sec": 15.0, "access_intensity_scale": 2.0}],
  "serve": {
    "instructions_per_request": 60000.0, "slo_p95_ms": 1.0,
    "arrival": {"kind": "burst", "base_rate_rps": 75000.0,
                "burst_phases": [{"duration_sec": 5.0,
                                  "rate_multiplier": 2.4}]}
  }
})";

const char* const kBenches[] = {"sim_throughput", "serve", "governor",
                                "fleet"};

std::string BaselinePath(const std::string& bench) {
  return std::string(COPART_SOURCE_DIR) + "/BENCH_" + bench + ".json";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

enum class Mutation { kByteFlip, kTruncate, kInsert, kNest };

// One seeded mutant of `text`.
std::string Mutate(const std::string& text, Mutation mutation, Rng& rng) {
  std::string out = text;
  const size_t at = rng.NextUint64(text.size() + 1);
  switch (mutation) {
    case Mutation::kByteFlip: {
      const int flips = static_cast<int>(rng.NextUint64(3)) + 1;
      for (int i = 0; i < flips; ++i) {
        const size_t pos = rng.NextUint64(out.size());
        out[pos] = static_cast<char>(out[pos] ^ (1u << rng.NextUint64(8)));
      }
      break;
    }
    case Mutation::kTruncate:
      out.resize(at);
      break;
    case Mutation::kInsert: {
      // JSON-significant bytes most of the time, any byte otherwise.
      static const char kSignificant[] = "{}[]\",:-+.eE0123456789 tfn\\";
      const size_t count = rng.NextUint64(4) + 1;
      std::string inserted;
      for (size_t i = 0; i < count; ++i) {
        inserted.push_back(
            rng.NextBool(0.8)
                ? kSignificant[rng.NextUint64(sizeof(kSignificant) - 1)]
                : static_cast<char>(rng.NextUint64(256)));
      }
      out.insert(at, inserted);
      break;
    }
    case Mutation::kNest: {
      // Wrap the document (or a run at a random offset) in extra levels
      // straddling the depth cap.
      const size_t levels = kJsonMaxNestingDepth - 4 + rng.NextUint64(12);
      if (rng.NextBool(0.5)) {
        out = std::string(levels, '[') + out + std::string(levels, ']');
      } else {
        out.insert(at, std::string(levels, rng.NextBool(0.5) ? '[' : '{'));
      }
      break;
    }
  }
  return out;
}

constexpr Mutation kMutations[] = {Mutation::kByteFlip, Mutation::kTruncate,
                                   Mutation::kInsert, Mutation::kNest};

void ExpectOkOrInvalidArgument(const Status& status, const std::string& what) {
  EXPECT_TRUE(status.ok() || status.code() == StatusCode::kInvalidArgument)
      << what << ": " << status.ToString();
}

TEST(JsonFuzzTest, MutantsParseOrReturnInvalidArgument) {
  std::vector<std::string> documents = {kTraceDocument};
  for (const char* bench : kBenches) {
    documents.push_back(ReadFile(BaselinePath(bench)));
    ASSERT_TRUE(ParseJson(documents.back()).ok()) << bench;
  }
  ASSERT_TRUE(ParseTraceReplay(kTraceDocument).ok());
  int parsed = 0;
  int rejected = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    for (size_t d = 0; d < documents.size(); ++d) {
      for (const Mutation mutation : kMutations) {
        Rng rng = Rng(seed).Fork(d * 4 + static_cast<size_t>(mutation));
        const std::string mutant = Mutate(documents[d], mutation, rng);
        const std::string what = "seed " + std::to_string(seed) +
                                 " document " + std::to_string(d);
        const Result<JsonValue> value = ParseJson(mutant);
        ExpectOkOrInvalidArgument(value.status(), what);
        (value.ok() ? parsed : rejected)++;
        if (d == 0) {
          ExpectOkOrInvalidArgument(ParseTraceReplay(mutant).status(), what);
        }
      }
    }
  }
  // The mutators must exercise both outcomes to mean anything.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(JsonFuzzTest, BenchGateGivesAVerdictOnMutatedBaselines) {
  const std::string mutant_path = ::testing::TempDir() + "/json_fuzz_base.json";
  const std::string out_path = ::testing::TempDir() + "/json_fuzz_out.txt";
  for (size_t b = 0; b < std::size(kBenches); ++b) {
    const std::string fresh = BaselinePath(kBenches[b]);
    const std::string original = ReadFile(fresh);
    for (uint64_t seed = 0; seed < 6; ++seed) {
      for (const Mutation mutation : kMutations) {
        Rng rng = Rng(seed).Fork(b * 4 + static_cast<size_t>(mutation));
        const std::string mutant = Mutate(original, mutation, rng);
        std::ofstream(mutant_path, std::ios::binary) << mutant;
        const std::string command = std::string(COPART_BENCH_GATE) + " " +
                                    mutant_path + " " + fresh + " > " +
                                    out_path + " 2>&1";
        const int status = std::system(command.c_str());
        const std::string what = std::string(kBenches[b]) + " seed " +
                                 std::to_string(seed) + ": " + mutant;
        ASSERT_TRUE(WIFEXITED(status)) << what;  // No crash.
        const int code = WEXITSTATUS(status);
        EXPECT_LE(code, 2) << what;
        if (!ParseJson(mutant).ok()) {
          EXPECT_EQ(code, 2) << what;
        }
        if (code != 0) {
          EXPECT_FALSE(ReadFile(out_path).empty()) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace copart
