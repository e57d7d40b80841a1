#include "common/json_writer.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.h"

namespace copart {

JsonWriter::JsonWriter(std::FILE* out) : out_(out) { CHECK(out != nullptr); }

void JsonWriter::Indent() {
  for (size_t i = 0; i < stack_.size(); ++i) {
    std::fputs("  ", out_);
  }
}

void JsonWriter::BeginItem(const char* key) {
  if (!stack_.empty()) {
    const bool inline_frame = stack_.back() == Frame::kInline;
    if (counts_.back() > 0) {
      std::fputs(inline_frame ? ", " : ",\n", out_);
    } else if (!inline_frame) {
      std::fputc('\n', out_);
    }
    ++counts_.back();
    if (!inline_frame) {
      Indent();
    }
  }
  if (key != nullptr) {
    std::fprintf(out_, "\"%s\": ", key);
  }
}

void JsonWriter::Open(const char* key, char open, Frame frame) {
  BeginItem(key);
  std::fputc(open, out_);
  stack_.push_back(frame);
  counts_.push_back(0);
}

void JsonWriter::EndMultiLine(Frame frame, char close) {
  CHECK(!stack_.empty() && stack_.back() == frame);
  const bool empty = counts_.back() == 0;
  stack_.pop_back();
  counts_.pop_back();
  if (!empty) {
    std::fputc('\n', out_);
    Indent();
  }
  std::fputc(close, out_);
}

void JsonWriter::BeginObject() { Open(nullptr, '{', Frame::kObject); }

void JsonWriter::BeginArray(const char* key) { Open(key, '[', Frame::kArray); }

void JsonWriter::EndArray() { EndMultiLine(Frame::kArray, ']'); }

void JsonWriter::BeginInlineObject() { Open(nullptr, '{', Frame::kInline); }

void JsonWriter::EndInlineObject() {
  CHECK(!stack_.empty() && stack_.back() == Frame::kInline);
  stack_.pop_back();
  counts_.pop_back();
  std::fputc('}', out_);
}

void JsonWriter::String(const char* key, const std::string& value) {
  BeginItem(key);
  std::fputc('"', out_);
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out_);
    }
    std::fputc(c, out_);
  }
  std::fputc('"', out_);
}

void JsonWriter::Double(const char* key, double value, int decimals) {
  BeginItem(key);
  std::fprintf(out_, "%.*f", decimals, value);
}

void JsonWriter::EndDocument() {
  CHECK_EQ(stack_.size(), 1u);
  EndMultiLine(Frame::kObject, '}');
  std::fputc('\n', out_);
}

const char* BenchGateName(BenchGate gate) {
  static const char* const kNames[] = {"none", "band", "exact", "max", "min"};
  return kNames[static_cast<size_t>(gate)];
}

namespace {

// Longest --min-seconds accepted: an hour per point. Each measurement loop
// runs until that much time has passed, so a larger value is a typo that
// would look like a hang.
constexpr double kMaxMinSeconds = 3600.0;

}  // namespace

BenchReport::BenchReport(std::string bench)
    : bench_(std::move(bench)), json_path_("BENCH_" + bench_ + ".json") {}

bool BenchReport::ParseFlags(int argc, char** argv,
                             std::initializer_list<const char*> switches) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--json=")) {
      json_path_ = arg.substr(7);
    } else if (arg.starts_with("--min-seconds=")) {
      const char* text = argv[i] + 14;
      char* end = nullptr;
      const double value = std::strtod(text, &end);
      // !(value > 0) also rejects NaN; the cap also rejects inf.
      if (end == text || *end != '\0' || !(value > 0.0) ||
          value > kMaxMinSeconds) {
        std::fprintf(stderr,
                     "%s: invalid --min-seconds '%s': want a number in "
                     "(0, %.0f]\n",
                     argv[0], text, kMaxMinSeconds);
        return false;
      }
      min_seconds_ = value;
    } else if (std::find(switches.begin(), switches.end(), arg) !=
               switches.end()) {
      switches_.push_back(arg);
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--min-seconds=S]",
                   argv[0]);
      for (const char* name : switches) {
        std::fprintf(stderr, " [%s]", name);
      }
      std::fputc('\n', stderr);
      return false;
    }
  }
  return true;
}

bool BenchReport::Has(const std::string& name) const {
  return std::find(switches_.begin(), switches_.end(), name) !=
         switches_.end();
}

void BenchReport::Add(std::string point, double value, int decimals,
                      const char* unit, BenchGate gate,
                      std::optional<double> limit) {
  points_.push_back(
      Point{std::move(point), value, decimals, unit, gate, limit});
}

int BenchReport::Write() const {
  std::FILE* out = std::fopen(json_path_.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench_.c_str(),
                 json_path_.c_str());
    return 1;
  }
  JsonWriter writer(out);
  writer.BeginObject();
  writer.String("bench", bench_);
  writer.BeginArray("results");
  for (const Point& point : points_) {
    writer.BeginInlineObject();
    writer.String("point", point.point);
    writer.Double("value", point.value, point.decimals);
    writer.String("unit", point.unit);
    writer.String("gate", BenchGateName(point.gate));
    if (point.limit.has_value()) {
      writer.Double("limit", *point.limit, point.decimals);
    }
    writer.EndInlineObject();
  }
  writer.EndArray();
  writer.EndDocument();
  std::fclose(out);
  std::printf("%s: wrote %s\n", bench_.c_str(), json_path_.c_str());
  return 0;
}

}  // namespace copart
