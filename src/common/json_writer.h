// Minimal streaming JSON writer and the perf benches' report on top of it.
//
// The perf baselines (BENCH_*.json) are committed files diffed by humans and
// read back by tools/bench_gate through common/json_reader, so the writer's
// job is a *stable, line-oriented* rendering rather than generality:
// multi-line objects and arrays with two-space indentation, commas at the
// end of the preceding line, and one-line inline objects for array elements
// so each data point stays a single diffable line. Keys are written verbatim
// (callers pass literal identifiers); string values get minimal escaping of
// '"' and '\'.
//
// Every BENCH_*.json has one schema, written only by BenchReport:
//
//   {
//     "bench": "sim_throughput",
//     "results": [
//       {"point": "managed_4apps", "value": 9927100.9, "unit": "epochs/s",
//        "gate": "band", "limit": 3200000.0},   <- one line in the file
//       ...
//     ]
//   }
//
// Each point declares, where the bench measures it, the gate bench_gate
// applies to a fresh run against the committed baseline point:
//   band   fresh >= 80% of the baseline value (and >= limit when given);
//   exact  fresh == baseline (deterministic outcomes: drift is a behavior
//          change, never noise);
//   max    fresh < limit;
//   min    fresh >= limit;
//   none   informational, never gated.
#ifndef COPART_COMMON_JSON_WRITER_H_
#define COPART_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace copart {

class JsonWriter {
 public:
  // Writes to `out` (not owned, must outlive the writer). Begin the document
  // with BeginObject() and balance every Begin* with the matching End*;
  // EndDocument() closes the root and emits the trailing newline.
  explicit JsonWriter(std::FILE* out);

  // Multi-line root object: members indented one level.
  void BeginObject();

  // Multi-line array member; elements are indented one level.
  void BeginArray(const char* key);
  void EndArray();

  // One-line object as an array element. Scalars written inside it stay on
  // the same line, separated by ", ".
  void BeginInlineObject();
  void EndInlineObject();

  void String(const char* key, const std::string& value);
  // Fixed-point rendering with `decimals` digits, keeping baselines
  // diff-stable.
  void Double(const char* key, double value, int decimals);

  // Closes the root object and writes the final newline.
  void EndDocument();

 private:
  enum class Frame : uint8_t { kObject, kArray, kInline };

  // Comma/newline/indent bookkeeping before any value or container opener.
  void BeginItem(const char* key);
  void Indent();
  void Open(const char* key, char open, Frame frame);
  void EndMultiLine(Frame frame, char close);

  std::FILE* out_;
  std::vector<Frame> stack_;
  std::vector<uint32_t> counts_;
};

enum class BenchGate : uint8_t { kNone, kBand, kExact, kMax, kMin };

// "none" | "band" | "exact" | "max" | "min" — the schema's "gate" strings.
const char* BenchGateName(BenchGate gate);

// One perf bench's command line and BENCH_<bench>.json report.
class BenchReport {
 public:
  // The report defaults to BENCH_<bench>.json in the CWD (run from the repo
  // root to refresh the committed baseline).
  explicit BenchReport(std::string bench);

  // Parses the perf benches' shared flags plus the bench's own bare
  // `switches`:
  //   --json=PATH       where to write the report;
  //   --min-seconds=S   measurement time per point (default 0.25): a number
  //                     in (0, 3600] with nothing after it.
  // Prints a message and returns false on anything else; callers exit 2
  // before measuring.
  bool ParseFlags(int argc, char** argv,
                  std::initializer_list<const char*> switches = {});

  double min_seconds() const { return min_seconds_; }
  // Whether the bare switch `name` was given.
  bool Has(const std::string& name) const;

  // Appends a point; `decimals` renders both its value and its limit.
  void Add(std::string point, double value, int decimals, const char* unit,
           BenchGate gate, std::optional<double> limit = std::nullopt);

  // Writes the report to the --json path: 0 on success, 1 (with a message)
  // when the file cannot be opened.
  int Write() const;

 private:
  struct Point {
    std::string point;
    double value = 0.0;
    int decimals = 0;
    const char* unit = "";
    BenchGate gate = BenchGate::kNone;
    std::optional<double> limit;
  };

  std::string bench_;
  std::string json_path_;
  double min_seconds_ = 0.25;
  std::vector<std::string> switches_;
  std::vector<Point> points_;
};

}  // namespace copart

#endif  // COPART_COMMON_JSON_WRITER_H_
