// tools/bench_gate: each gate rule at its boundary, the missing/extra point
// and malformed-input paths, and every committed BENCH_*.json gated
// against itself (which pins that the baselines parse under the one schema
// and sit inside their own limits).
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace copart {
namespace {

struct GateRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/bench_gate_test_" + name;
}

GateRun RunGate(const std::string& args) {
  const std::string out_path = TempPath("output.txt");
  const std::string command = std::string(COPART_BENCH_GATE) + " " + args +
                              " > " + out_path + " 2>&1";
  const int status = std::system(command.c_str());
  GateRun run;
  if (WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  std::ifstream in(out_path);
  std::stringstream text;
  text << in.rdbuf();
  run.output = text.str();
  return run;
}

// A report with one results entry per element of `points` (each the
// inside of a point object).
std::string WriteReport(const std::string& name,
                        const std::vector<std::string>& points,
                        const std::string& bench = "test") {
  std::string text = "{\"bench\": \"" + bench + "\", \"results\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    text += (i == 0 ? "{" : ", {") + points[i] + "}";
  }
  text += "]}";
  const std::string path = TempPath(name);
  std::ofstream(path) << text;
  return path;
}

std::string Point(const std::string& name, const std::string& value,
                  const std::string& gate, const std::string& limit = "") {
  std::string text = "\"point\": \"" + name + "\", \"value\": " + value +
                     ", \"unit\": \"u\", \"gate\": \"" + gate + "\"";
  if (!limit.empty()) {
    text += ", \"limit\": " + limit;
  }
  return text;
}

// Gates a one-point fresh report (value `fresh`) against a one-point
// baseline and returns the exit code.
int GateOne(const std::string& baseline_point, const std::string& fresh) {
  const std::string baseline = WriteReport("base.json", {baseline_point});
  const std::string now =
      WriteReport("fresh.json", {Point("p", fresh, "none")});
  return RunGate(baseline + " " + now).exit_code;
}

TEST(BenchGateTest, BandPassesAtEightyPercentAndFailsJustBelow) {
  EXPECT_EQ(GateOne(Point("p", "100.0", "band"), "80.0"), 0);
  EXPECT_EQ(GateOne(Point("p", "100.0", "band"), "79.9"), 1);
}

TEST(BenchGateTest, BandFloorIsRoundedToOneDecimal) {
  // 100.06 * 0.8 = 80.048, rendered "%.1f" as the earlier awk gate did:
  // the floor is 80.0, so 80.0 passes although it is below 80.048.
  EXPECT_EQ(GateOne(Point("p", "100.06", "band"), "80.0"), 0);
  EXPECT_EQ(GateOne(Point("p", "100.06", "band"), "79.99"), 1);
}

TEST(BenchGateTest, BandFloorHoldsForHugeValues) {
  // "%.1f" of 8e299 is 300+ characters; a short buffer would truncate it.
  EXPECT_EQ(GateOne(Point("p", "1e300", "band"), "1e300"), 0);
  EXPECT_EQ(GateOne(Point("p", "1e300", "band"), "1e290"), 1);
}

TEST(BenchGateTest, BandWithLimitAlsoHoldsTheFloor) {
  const std::string point = Point("p", "100.0", "band", "95.0");
  EXPECT_EQ(GateOne(point, "95.0"), 0);
  EXPECT_EQ(GateOne(point, "90.0"), 1);  // Inside the band, under the limit.
}

TEST(BenchGateTest, ExactPassesEqualAndFailsUnequal) {
  EXPECT_EQ(GateOne(Point("p", "3.1491", "exact"), "3.1491"), 0);
  EXPECT_EQ(GateOne(Point("p", "3.1491", "exact"), "3.1492"), 1);
  EXPECT_EQ(GateOne(Point("p", "32", "exact"), "33"), 1);
}

TEST(BenchGateTest, MaxFailsAtItsLimit) {
  EXPECT_EQ(GateOne(Point("p", "0.5", "max", "2.00"), "1.99"), 0);
  EXPECT_EQ(GateOne(Point("p", "0.5", "max", "2.00"), "2.00"), 1);
}

TEST(BenchGateTest, MinPassesAtItsLimit) {
  EXPECT_EQ(GateOne(Point("p", "16.0", "min", "10.00"), "10.00"), 0);
  EXPECT_EQ(GateOne(Point("p", "16.0", "min", "10.00"), "9.99"), 1);
}

TEST(BenchGateTest, NoneIsNeverGated) {
  EXPECT_EQ(GateOne(Point("p", "100.0", "none"), "0.0"), 0);
}

TEST(BenchGateTest, TheBaselineGateRulesNotTheFresh) {
  // The fresh report declares "none"; the baseline's band still applies.
  EXPECT_EQ(GateOne(Point("p", "100.0", "band"), "1.0"), 1);
}

TEST(BenchGateTest, MissingFreshPointFailsAndExtraFreshPointIsIgnored) {
  const std::string baseline = WriteReport(
      "base.json", {Point("a", "1.0", "band"), Point("b", "1.0", "band")});
  const std::string missing =
      WriteReport("fresh.json", {Point("a", "1.0", "band")});
  GateRun run = RunGate(baseline + " " + missing);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("FAIL [test] b missing from fresh run"),
            std::string::npos)
      << run.output;

  const std::string extra = WriteReport(
      "fresh.json", {Point("a", "1.0", "band"), Point("b", "1.0", "band"),
                     Point("c", "0.0", "band")});
  run = RunGate(baseline + " " + extra);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find(" c="), std::string::npos) << run.output;
}

TEST(BenchGateTest, MalformedOrMissingFilesExitNonZeroWithAMessage) {
  const std::string good =
      WriteReport("good.json", {Point("p", "1.0", "band")});
  const std::vector<std::string> bad_documents = {
      "{\"bench\": \"test\", \"results\": [",  // Truncated.
      "{\"bench\": \"test\", \"results\": []}",  // Gates nothing.
      "{\"bench\": \"test\"}",
      "[1, 2]",
      "{\"bench\": \"test\", \"results\": [{\"point\": \"p\", "
      "\"value\": \"1\", \"unit\": \"u\", \"gate\": \"band\"}]}",
  };
  for (const std::string& document : bad_documents) {
    const std::string path = TempPath("bad.json");
    std::ofstream(path) << document;
    for (const std::string& args : {path + " " + good, good + " " + path}) {
      const GateRun run = RunGate(args);
      EXPECT_EQ(run.exit_code, 2) << document;
      EXPECT_FALSE(run.output.empty()) << document;
    }
  }
  const std::vector<std::string> bad_points = {
      Point("p", "1.0", "sideways"),       // Unknown gate.
      Point("p", "1.0", "max"),            // max needs a limit.
      Point("p", "1.0", "exact", "2.0"),   // exact takes none.
  };
  for (const std::string& point : bad_points) {
    const GateRun run =
        RunGate(WriteReport("bad.json", {point}) + " " + good);
    EXPECT_EQ(run.exit_code, 2) << point;
    EXPECT_FALSE(run.output.empty()) << point;
  }
  const std::string duplicate = WriteReport(
      "bad.json", {Point("p", "1.0", "band"), Point("p", "1.0", "band")});
  EXPECT_EQ(RunGate(duplicate + " " + good).exit_code, 2);
  const std::string other_bench =
      WriteReport("other.json", {Point("p", "1.0", "band")}, "other");
  EXPECT_EQ(RunGate(good + " " + other_bench).exit_code, 2);
  GateRun run = RunGate(TempPath("no_such_file.json") + " " + good);
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("cannot read"), std::string::npos) << run.output;
  EXPECT_EQ(RunGate(good).exit_code, 2);  // One path: usage error.
}

TEST(BenchGateTest, EveryCommittedBaselinePassesAgainstItself) {
  for (const char* bench : {"sim_throughput", "serve", "governor", "fleet"}) {
    const std::string path =
        std::string(COPART_SOURCE_DIR) + "/BENCH_" + bench + ".json";
    const GateRun run = RunGate(path + " " + path);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(run.output.find("FAIL"), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("ok   [" + std::string(bench) + "]"),
              std::string::npos)
        << run.output;
  }
}

}  // namespace
}  // namespace copart
