// Minimal JSON reader: the one parser behind every JSON input the repo
// takes — captured trace documents (trace/trace_replay) and the committed
// BENCH_*.json perf baselines (tools/bench_gate).
//
// A self-contained recursive-descent parser (the repo deliberately has no
// third-party JSON dependency) supporting exactly objects, arrays, finite
// numbers, strings (with the \" \\ \/ \n \t \r escapes), booleans and null.
// Object keys keep insertion order so error messages are stable, and
// duplicate keys are an error. Input is bounded twice: documents larger
// than kJsonMaxDocumentBytes and nesting deeper than kJsonMaxNestingDepth
// come back as InvalidArgumentError, never as a stack overflow or an
// unbounded read.
#ifndef COPART_COMMON_JSON_READER_H_
#define COPART_COMMON_JSON_READER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace copart {

// Deepest array/object nesting the parser accepts; deeper documents are
// malformed (the trace schema itself nests five levels: $.serve.arrival.
// burst_phases[i]).
inline constexpr int kJsonMaxNestingDepth = 64;

// Largest document, in bytes, the reader accepts. Trace documents and
// bench baselines are a few KiB; the cap only has to be far above that.
inline constexpr size_t kJsonMaxDocumentBytes = size_t{4} << 20;

struct JsonValue;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<JsonArray> array;
  std::shared_ptr<JsonObject> object;

  // The member named `key` of an object, or null (also for non-objects).
  const JsonValue* Find(const std::string& key) const;
};

// Parses one JSON document. InvalidArgumentError ("JSON parse error at
// offset N: ...") on malformed input, trailing content, nesting past
// kJsonMaxNestingDepth, or text longer than kJsonMaxDocumentBytes.
Result<JsonValue> ParseJson(const std::string& text);

// Reads `path` — at most kJsonMaxDocumentBytes + 1 bytes of it — and parses
// it. NotFoundError when unreadable; InvalidArgumentError when larger than
// the cap or malformed.
Result<JsonValue> ReadJsonFile(const std::string& path);

}  // namespace copart

#endif  // COPART_COMMON_JSON_READER_H_
