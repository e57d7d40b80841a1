// bench_gate — holds a fresh perf-bench report to the gates its committed
// baseline declares (the one BENCH_*.json schema: common/json_writer.h).
//
// Usage: bench_gate BASELINE FRESH
//
// Every baseline point must appear in FRESH and pass the baseline's gate:
//   band   fresh >= floor, where floor is baseline * (1 - 20%) rendered to
//          one decimal ("%.1f", so a baseline of 100.06 floors at 80.0, not
//          80.048); and fresh >= limit when the point carries one;
//   exact  fresh == baseline;
//   max    fresh < limit;
//   min    fresh >= limit;
//   none   printed, never gated.
// Fresh points the baseline lacks are ignored. Prints one ok/FAIL line per
// baseline point. Exits 0 when every point passes, 1 on any failed or
// missing point, 2 on a usage error or an unreadable or malformed file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/json_reader.h"
#include "common/json_writer.h"

namespace copart {
namespace {

// The largest regression a band point tolerates, in percent of baseline.
constexpr double kBandPct = 20.0;

struct GatePoint {
  std::string name;
  double value = 0.0;
  std::string unit;
  BenchGate gate = BenchGate::kNone;
  std::optional<double> limit;
};

struct Report {
  std::string bench;
  std::vector<GatePoint> points;

  const GatePoint* Find(const std::string& name) const {
    for (const GatePoint& point : points) {
      if (point.name == name) {
        return &point;
      }
    }
    return nullptr;
  }
};

bool IsKind(const JsonValue* value, JsonValue::Kind kind) {
  return value != nullptr && value->kind == kind;
}

Result<GatePoint> ReadPoint(const JsonValue& entry, const std::string& where) {
  using Kind = JsonValue::Kind;
  const JsonValue* limit = entry.Find("limit");
  if (!IsKind(entry.Find("point"), Kind::kString) ||
      !IsKind(entry.Find("value"), Kind::kNumber) ||
      !IsKind(entry.Find("unit"), Kind::kString) ||
      !IsKind(entry.Find("gate"), Kind::kString) ||
      (limit != nullptr && limit->kind != Kind::kNumber)) {
    return InvalidArgumentError(
        where + ": want {\"point\": string, \"value\": number, \"unit\": "
                "string, \"gate\": string[, \"limit\": number]}");
  }
  GatePoint point;
  point.name = entry.Find("point")->string;
  point.value = entry.Find("value")->number;
  point.unit = entry.Find("unit")->string;
  const std::string& gate = entry.Find("gate")->string;
  bool known = false;
  for (const BenchGate candidate : {BenchGate::kNone, BenchGate::kBand,
                                    BenchGate::kExact, BenchGate::kMax,
                                    BenchGate::kMin}) {
    if (gate == BenchGateName(candidate)) {
      point.gate = candidate;
      known = true;
    }
  }
  if (!known) {
    return InvalidArgumentError(where + ": unknown gate \"" + gate + "\"");
  }
  const bool needs_limit =
      point.gate == BenchGate::kMax || point.gate == BenchGate::kMin;
  if (limit == nullptr ? needs_limit
                       : !needs_limit && point.gate != BenchGate::kBand) {
    return InvalidArgumentError(where + ": gate \"" + gate +
                                (needs_limit ? "\" needs" : "\" takes no") +
                                " limit");
  }
  if (limit != nullptr) {
    point.limit = limit->number;
  }
  return point;
}

Result<Report> ReadReport(const std::string& path) {
  Result<JsonValue> document = ReadJsonFile(path);
  if (!document.ok()) {
    return document.status();
  }
  const JsonValue* bench = document->Find("bench");
  const JsonValue* results = document->Find("results");
  if (!IsKind(bench, JsonValue::Kind::kString) ||
      !IsKind(results, JsonValue::Kind::kArray) || results->array->empty()) {
    return InvalidArgumentError(
        path + ": want {\"bench\": string, \"results\": non-empty array}");
  }
  Report report{.bench = bench->string, .points = {}};
  for (size_t i = 0; i < results->array->size(); ++i) {
    const std::string where = path + ": results[" + std::to_string(i) + "]";
    Result<GatePoint> point = ReadPoint((*results->array)[i], where);
    if (!point.ok()) {
      return point.status();
    }
    if (report.Find(point->name) != nullptr) {
      return InvalidArgumentError(where + ": duplicate point \"" +
                                  point->name + "\"");
    }
    report.points.push_back(std::move(*point));
  }
  return report;
}

// Applies `base`'s gate to `now`; returns whether it passes and describes
// the verdict in `detail`.
bool Check(const GatePoint& base, const GatePoint& now, std::string* detail) {
  char text[256];
  bool ok = true;
  switch (base.gate) {
    case BenchGate::kNone:
      std::snprintf(text, sizeof(text), "(baseline %.10g, not gated)",
                    base.value);
      break;
    case BenchGate::kBand: {
      char floor_text[512];  // "%.1f" of any finite double fits.
      std::snprintf(floor_text, sizeof(floor_text), "%.1f",
                    base.value * (1 - kBandPct / 100));
      const double floor = std::strtod(floor_text, nullptr);
      ok = now.value >= floor && (!base.limit || now.value >= *base.limit);
      std::snprintf(text, sizeof(text), "%s floor %.10g (baseline %.10g)",
                    now.value >= floor ? ">=" : "<", floor, base.value);
      if (base.limit) {
        const size_t used = std::strlen(text);
        std::snprintf(text + used, sizeof(text) - used, ", %s limit %.10g",
                      now.value >= *base.limit ? ">=" : "<", *base.limit);
      }
      break;
    }
    case BenchGate::kExact:
      ok = now.value == base.value;
      std::snprintf(text, sizeof(text), "%s baseline %.10g%s",
                    ok ? "==" : "!=", base.value,
                    ok ? "" : " (deterministic point drifted: a behavior "
                              "change, refresh the baseline deliberately)");
      break;
    case BenchGate::kMax:
      ok = now.value < *base.limit;
      std::snprintf(text, sizeof(text), "%s limit %.10g", ok ? "<" : ">=",
                    *base.limit);
      break;
    case BenchGate::kMin:
      ok = now.value >= *base.limit;
      std::snprintf(text, sizeof(text), "%s limit %.10g", ok ? ">=" : "<",
                    *base.limit);
      break;
  }
  *detail = text;
  return ok;
}

int Run(const std::string& baseline_path, const std::string& fresh_path) {
  Result<Report> baseline = ReadReport(baseline_path);
  Result<Report> fresh = ReadReport(fresh_path);
  for (const Result<Report>* report : {&baseline, &fresh}) {
    if (!report->ok()) {
      std::fprintf(stderr, "bench_gate: %s\n",
                   report->status().ToString().c_str());
      return 2;
    }
  }
  if (baseline->bench != fresh->bench) {
    std::fprintf(stderr, "bench_gate: %s is bench \"%s\" but %s is \"%s\"\n",
                 baseline_path.c_str(), baseline->bench.c_str(),
                 fresh_path.c_str(), fresh->bench.c_str());
    return 2;
  }
  const char* bench = baseline->bench.c_str();
  int failures = 0;
  for (const GatePoint& base : baseline->points) {
    const GatePoint* now = fresh->Find(base.name);
    if (now == nullptr) {
      std::printf("bench_gate: FAIL [%s] %s missing from fresh run\n", bench,
                  base.name.c_str());
      ++failures;
      continue;
    }
    std::string detail;
    const bool ok = Check(base, *now, &detail);
    failures += ok ? 0 : 1;
    std::printf("bench_gate: %s [%s] %s=%.10g %s %s\n", ok ? "ok  " : "FAIL",
                bench, base.name.c_str(), now->value, base.unit.c_str(),
                detail.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s BASELINE FRESH\n", argv[0]);
    return 2;
  }
  return copart::Run(argv[1], argv[2]);
}
