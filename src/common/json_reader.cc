#include "common/json_reader.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace copart {
namespace {

Status TooLargeError() {
  return InvalidArgumentError("JSON document exceeds " +
                              std::to_string(kJsonMaxDocumentBytes) +
                              " bytes");
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    Result<JsonValue> value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse: cap the depth before the stack overflows.
        if (depth_ == kJsonMaxNestingDepth) {
          return Error("nesting depth exceeds " +
                       std::to_string(kJsonMaxNestingDepth));
        }
        ++depth_;
        Result<JsonValue> value = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
          return ParseNumber();
        }
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    value.object = std::make_shared<JsonObject>();
    SkipWhitespace();
    if (Consume('}')) {
      return value;
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      Result<JsonValue> key = ParseString();
      if (!key.ok()) {
        return key;
      }
      if (value.Find(key->string) != nullptr) {
        return Error("duplicate key \"" + key->string + "\"");
      }
      if (!Consume(':')) {
        return Error("expected ':' after key \"" + key->string + "\"");
      }
      Result<JsonValue> member = ParseValue();
      if (!member.ok()) {
        return member;
      }
      value.object->emplace_back(key->string, std::move(*member));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return value;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    value.array = std::make_shared<JsonArray>();
    SkipWhitespace();
    if (Consume(']')) {
      return value;
    }
    for (;;) {
      Result<JsonValue> element = ParseValue();
      if (!element.ok()) {
        return element;
      }
      value.array->push_back(std::move(*element));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return value;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // '"'
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return value;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          return Error("unterminated escape");
        }
        const char escaped = text_[pos_ + 1];
        switch (escaped) {
          case '"':
          case '\\':
          case '/':
            value.string.push_back(escaped);
            break;
          case 'n':
            value.string.push_back('\n');
            break;
          case 't':
            value.string.push_back('\t');
            break;
          case 'r':
            value.string.push_back('\r');
            break;
          default:
            return Error(std::string("unsupported escape '\\") + escaped +
                         "'");
        }
        pos_ += 2;
        continue;
      }
      value.string.push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || token.empty() ||
        !std::isfinite(parsed)) {
      pos_ = start;
      return Error("malformed number \"" + token + "\"");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Error("malformed literal");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      JsonValue value;
      return value;
    }
    return Error("malformed literal");
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // Arrays/objects currently open.
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [candidate, value] : *object) {
    if (candidate == key) {
      return &value;
    }
  }
  return nullptr;
}

Result<JsonValue> ParseJson(const std::string& text) {
  if (text.size() > kJsonMaxDocumentBytes) {
    return TooLargeError();
  }
  return JsonParser(text).Parse();
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot read " + path);
  }
  // One byte past the cap is enough to know the file is too large.
  std::string text(kJsonMaxDocumentBytes + 1, '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<size_t>(in.gcount()));
  if (text.size() > kJsonMaxDocumentBytes) {
    return TooLargeError();
  }
  return ParseJson(text);
}

}  // namespace copart
