// The kernel-format schemata parser and the transactional WriteSchemata.
#include "resctrl/schemata.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "resctrl/resctrl.h"

namespace copart {
namespace {

TEST(SchemataParseTest, CompactForm) {
  Result<Schemata> schemata = ParseSchemata("L3:0=7ff;MB:0=100");
  ASSERT_TRUE(schemata.ok());
  EXPECT_EQ(schemata->l3_mask, 0x7FFu);
  EXPECT_EQ(schemata->mb_percent, 100u);
}

TEST(SchemataParseTest, KernelNewlineForm) {
  Result<Schemata> schemata = ParseSchemata("L3:0=3f\nMB:0=40\n");
  ASSERT_TRUE(schemata.ok());
  EXPECT_EQ(schemata->l3_mask, 0x3Fu);
  EXPECT_EQ(schemata->mb_percent, 40u);
}

TEST(SchemataParseTest, SingleResourceUpdates) {
  Result<Schemata> l3_only = ParseSchemata("L3:0=f0");
  ASSERT_TRUE(l3_only.ok());
  EXPECT_EQ(l3_only->l3_mask, 0xF0u);
  EXPECT_FALSE(l3_only->mb_percent.has_value());

  Result<Schemata> mb_only = ParseSchemata("MB:0=30");
  ASSERT_TRUE(mb_only.ok());
  EXPECT_FALSE(mb_only->l3_mask.has_value());
  EXPECT_EQ(mb_only->mb_percent, 30u);
}

TEST(SchemataParseTest, ToleratesWhitespaceAndHexPrefix) {
  Result<Schemata> schemata = ParseSchemata("  L3 : 0 = 0x1C \n  MB:0= 50 ");
  ASSERT_TRUE(schemata.ok());
  EXPECT_EQ(schemata->l3_mask, 0x1Cu);
  EXPECT_EQ(schemata->mb_percent, 50u);
}

TEST(SchemataParseTest, UppercaseHexDigits) {
  Result<Schemata> schemata = ParseSchemata("L3:0=7FF");
  ASSERT_TRUE(schemata.ok());
  EXPECT_EQ(schemata->l3_mask, 0x7FFu);
}

TEST(SchemataParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", ";", "L3", "L3:0", "L3:0=", "L3:1=7ff", "L2:0=7ff", "MB:0=abc",
        "L3:0=xyz", "L3:0=7ff;L3:0=3", "MB:0=40;MB:0=50", "=7ff",
        "L3=0:7ff", "MB:0=99999999999"}) {
    Result<Schemata> schemata = ParseSchemata(bad);
    EXPECT_FALSE(schemata.ok()) << "accepted: '" << bad << "'";
    EXPECT_EQ(schemata.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SchemataParseTest, RoundTripsThroughToString) {
  for (const char* text : {"L3:0=7ff;MB:0=100", "L3:0=1", "MB:0=10"}) {
    Result<Schemata> schemata = ParseSchemata(text);
    ASSERT_TRUE(schemata.ok());
    EXPECT_EQ(schemata->ToString(), text);
  }
}

enum class SchemataMutation {
  kByteFlip,
  kTruncate,
  kInsertSeparator,
  kLongHex,
  kLongDecimal,
};

// One seeded mutant of `text`: byte flips, a truncation, schemata-significant
// bytes (';', '\n', '=', ':') at a random offset, or an over-long hex or
// decimal run spliced in where it may land inside a value.
std::string MutateSchemata(const std::string& text, SchemataMutation mutation,
                           Rng& rng) {
  std::string out = text;
  const size_t at = rng.NextUint64(text.size() + 1);
  switch (mutation) {
    case SchemataMutation::kByteFlip: {
      if (out.empty()) {
        break;
      }
      const int flips = static_cast<int>(rng.NextUint64(3)) + 1;
      for (int i = 0; i < flips; ++i) {
        const size_t pos = rng.NextUint64(out.size());
        out[pos] = static_cast<char>(out[pos] ^ (1u << rng.NextUint64(8)));
      }
      break;
    }
    case SchemataMutation::kTruncate:
      out.resize(at);
      break;
    case SchemataMutation::kInsertSeparator: {
      static const char kSignificant[] = ";\n=:";
      const size_t count = rng.NextUint64(3) + 1;
      for (size_t i = 0; i < count; ++i) {
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                   kSignificant[rng.NextUint64(sizeof(kSignificant) - 1)]);
      }
      break;
    }
    case SchemataMutation::kLongHex: {
      static const char kHex[] = "0123456789abcdefABCDEF";
      std::string digits;
      for (size_t n = rng.NextUint64(24) + 8; digits.size() < n;) {
        digits.push_back(kHex[rng.NextUint64(sizeof(kHex) - 1)]);
      }
      out.insert(at, digits);
      break;
    }
    case SchemataMutation::kLongDecimal: {
      // Around the 9/10-digit edge of the MB parser.
      std::string digits;
      for (size_t n = rng.NextUint64(4) + 8; digits.size() < n;) {
        digits.push_back(static_cast<char>('0' + rng.NextUint64(10)));
      }
      out.insert(at, digits);
      break;
    }
  }
  return out;
}

TEST(SchemataFuzzTest, MutantsParseOrReturnInvalidArgumentAndRoundTrip) {
  const std::vector<std::string> corpus = {
      // Accepted.
      "L3:0=7ff;MB:0=100", "L3:0=3f\nMB:0=40\n",
      "  L3 : 0 = 0x1C \n  MB:0= 50 ", "L3:0=f0", "MB:0=30",
      "L3:0=ffffffffffffffff", "MB:0=999999999",
      // Rejected.
      "", ";", "L3:1=7ff", "=7ff", "L3:0=7ff;L3:0=3", "MB:0=1000000000",
      "L3:0=1ffffffffffffffff"};
  constexpr SchemataMutation kMutations[] = {
      SchemataMutation::kByteFlip, SchemataMutation::kTruncate,
      SchemataMutation::kInsertSeparator, SchemataMutation::kLongHex,
      SchemataMutation::kLongDecimal};
  int accepted = 0;
  int rejected = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    for (size_t c = 0; c < corpus.size(); ++c) {
      for (const SchemataMutation mutation : kMutations) {
        Rng rng = Rng(seed).Fork(c * 8 + static_cast<size_t>(mutation));
        const std::string mutant = MutateSchemata(corpus[c], mutation, rng);
        const Result<Schemata> schemata = ParseSchemata(mutant);
        if (!schemata.ok()) {
          EXPECT_EQ(schemata.status().code(), StatusCode::kInvalidArgument)
              << "'" << mutant << "': " << schemata.status().ToString();
          ++rejected;
          continue;
        }
        ++accepted;
        // Whatever is accepted must render to a string that parses back to
        // the same entries.
        const std::string rendered = schemata->ToString();
        const Result<Schemata> again = ParseSchemata(rendered);
        ASSERT_TRUE(again.ok()) << "'" << mutant << "' -> '" << rendered
                                << "': " << again.status().ToString();
        EXPECT_EQ(again->l3_mask, schemata->l3_mask) << rendered;
        EXPECT_EQ(again->mb_percent, schemata->mb_percent) << rendered;
        EXPECT_EQ(again->ToString(), rendered);
      }
    }
  }
  // The mutators must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

class WriteSchemataTest : public ::testing::Test {
 protected:
  WriteSchemataTest() : machine_(MachineConfig{}), resctrl_(&machine_) {
    Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
    CHECK(group.ok());
    group_ = *group;
  }

  SimulatedMachine machine_;
  Resctrl resctrl_;
  ResctrlGroupId group_;
};

TEST_F(WriteSchemataTest, AppliesBothResources) {
  ASSERT_TRUE(resctrl_.WriteSchemata(group_, "L3:0=3f\nMB:0=40").ok());
  EXPECT_EQ(resctrl_.ReadSchemata(group_), "L3:0=3f;MB:0=40");
}

TEST_F(WriteSchemataTest, PartialUpdateKeepsOtherResource) {
  ASSERT_TRUE(resctrl_.WriteSchemata(group_, "L3:0=7;MB:0=40").ok());
  ASSERT_TRUE(resctrl_.WriteSchemata(group_, "MB:0=90").ok());
  EXPECT_EQ(resctrl_.ReadSchemata(group_), "L3:0=7;MB:0=90");
  ASSERT_TRUE(resctrl_.WriteSchemata(group_, "L3:0=70").ok());
  EXPECT_EQ(resctrl_.ReadSchemata(group_), "L3:0=70;MB:0=90");
}

TEST_F(WriteSchemataTest, TransactionalOnValidationFailure) {
  ASSERT_TRUE(resctrl_.WriteSchemata(group_, "L3:0=3f;MB:0=40").ok());
  // Valid L3 but out-of-range MB: NOTHING may change.
  EXPECT_FALSE(resctrl_.WriteSchemata(group_, "L3:0=7;MB:0=45").ok());
  EXPECT_EQ(resctrl_.ReadSchemata(group_), "L3:0=3f;MB:0=40");
  // Non-contiguous CBM with valid MB: same.
  EXPECT_FALSE(resctrl_.WriteSchemata(group_, "L3:0=505;MB:0=100").ok());
  EXPECT_EQ(resctrl_.ReadSchemata(group_), "L3:0=3f;MB:0=40");
}

TEST_F(WriteSchemataTest, ValidatesAgainstGeometry) {
  EXPECT_FALSE(resctrl_.WriteSchemata(group_, "L3:0=800").ok());  // Way 11.
  EXPECT_FALSE(resctrl_.WriteSchemata(group_, "L3:0=0").ok());
  EXPECT_FALSE(resctrl_.WriteSchemata(group_, "MB:0=0").ok());
}

TEST_F(WriteSchemataTest, UnknownGroupFails) {
  EXPECT_EQ(resctrl_.WriteSchemata(ResctrlGroupId(9), "L3:0=1").code(),
            StatusCode::kNotFound);
}

TEST_F(WriteSchemataTest, ReadWriteRoundTrip) {
  // Whatever ReadSchemata renders must be accepted back verbatim.
  ASSERT_TRUE(resctrl_.WriteSchemata(group_, "L3:0=1c0;MB:0=70").ok());
  const std::string schemata = resctrl_.ReadSchemata(group_);
  ASSERT_TRUE(resctrl_.WriteSchemata(group_, schemata).ok());
  EXPECT_EQ(resctrl_.ReadSchemata(group_), schemata);
}

}  // namespace
}  // namespace copart
