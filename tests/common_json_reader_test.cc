// common/json_reader number grammar: RFC 8259 numbers parse to the value
// strtod gives them, and every token outside the grammar is
// InvalidArgument — whether it stands alone or sits inside a document.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_reader.h"
#include "common/status.h"

namespace copart {
namespace {

TEST(JsonReaderNumberTest, ValidNumbersParse) {
  const std::vector<std::pair<std::string, double>> cases = {
      {"0", 0.0},        {"-0", -0.0},        {"7", 7.0},
      {"-12", -12.0},    {"0.5", 0.5},        {"0.5e-3", 0.5e-3},
      {"1E+2", 100.0},   {"1e2", 100.0},      {"-3.25E-1", -0.325},
      {"10.01", 10.01},  {"2e0", 2.0},        {"123456789", 123456789.0},
  };
  for (const auto& [token, expected] : cases) {
    Result<JsonValue> value = ParseJson(token);
    ASSERT_TRUE(value.ok()) << token << ": " << value.status().ToString();
    EXPECT_EQ(value->kind, JsonValue::Kind::kNumber) << token;
    EXPECT_EQ(value->number, expected) << token;
  }
  // -0 keeps its sign.
  EXPECT_TRUE(std::signbit(ParseJson("-0")->number));
}

TEST(JsonReaderNumberTest, TokensOutsideTheGrammarAreInvalidArgument) {
  const std::vector<std::string> bad = {
      "01.e5", "1.",  "-.5", "1e",  "--1", "1e+",  "01",  "-",
      "00",    ".5",  "1.e5", "1e-", "+1", "1-2",  "1e5.5", "-01",
      "1..2",  "1ee2", "0x10", "1e+-2",
  };
  for (const std::string& token : bad) {
    for (const std::string& document :
         {token, "[" + token + "]", "{\"v\": " + token + "}"}) {
      Result<JsonValue> value = ParseJson(document);
      ASSERT_FALSE(value.ok()) << document;
      EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument)
          << document;
    }
  }
}

TEST(JsonReaderNumberTest, ErrorNamesTheWholeMalformedToken) {
  Result<JsonValue> value = ParseJson("[1, 01.e5]");
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.status().ToString().find("malformed number \"01.e5\""),
            std::string::npos)
      << value.status().ToString();
}

TEST(JsonReaderNumberTest, NumbersEndAtStructuralCharacters) {
  Result<JsonValue> value = ParseJson("[0,-0.5e1 ,1E+2]");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  ASSERT_EQ(value->array->size(), 3u);
  EXPECT_EQ((*value->array)[0].number, 0.0);
  EXPECT_EQ((*value->array)[1].number, -5.0);
  EXPECT_EQ((*value->array)[2].number, 100.0);
  // Whitespace inside a number is not part of it.
  EXPECT_FALSE(ParseJson("- 1").ok());
  EXPECT_FALSE(ParseJson("1 .5").ok());
}

}  // namespace
}  // namespace copart
