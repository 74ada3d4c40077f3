#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "common/flags.h"
#include "common/types.h"

namespace wcp {
namespace {

TEST(ProcessId, ValueAndValidity) {
  EXPECT_EQ(ProcessId(3).value(), 3);
  EXPECT_EQ(ProcessId(3).idx(), 3u);
  EXPECT_TRUE(ProcessId(0).valid());
  EXPECT_FALSE(ProcessId::invalid().valid());
  EXPECT_FALSE(ProcessId().valid());
}

TEST(ProcessId, OrderingAndEquality) {
  EXPECT_EQ(ProcessId(2), ProcessId(2));
  EXPECT_NE(ProcessId(2), ProcessId(3));
  EXPECT_LT(ProcessId(2), ProcessId(3));
}

TEST(ProcessId, StreamsAsPn) {
  std::ostringstream oss;
  oss << ProcessId(7);
  EXPECT_EQ(oss.str(), "P7");
}

TEST(ProcessId, Hashable) {
  EXPECT_EQ(std::hash<ProcessId>{}(ProcessId(4)),
            std::hash<ProcessId>{}(ProcessId(4)));
}

TEST(Color, Streams) {
  std::ostringstream oss;
  oss << Color::kRed << ' ' << Color::kGreen;
  EXPECT_EQ(oss.str(), "red green");
}

TEST(ErrorMacros, CheckThrowsInvariantViolation) {
  EXPECT_THROW(WCP_CHECK(1 == 2), InvariantViolation);
  try {
    WCP_CHECK_MSG(false, "value=" << 42);
    FAIL();
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value=42"), std::string::npos);
    EXPECT_NE(what.find("common_test.cc"), std::string::npos);
  }
}

TEST(ErrorMacros, RequireThrowsInvalidArgument) {
  EXPECT_THROW(WCP_REQUIRE(false, "bad input " << 7), std::invalid_argument);
  try {
    WCP_REQUIRE(2 + 2 == 5, "math is broken");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
  }
}

TEST(ErrorMacros, PassingConditionsAreSilent) {
  EXPECT_NO_THROW(WCP_CHECK(true));
  EXPECT_NO_THROW(WCP_REQUIRE(true, "never shown"));
}

TEST(FlagParsing, AcceptsInRangeValues) {
  EXPECT_EQ(parse_flag_int("prog", "threads", "8", 0, 1024), 8);
  EXPECT_EQ(parse_flag_int("prog", "threads", "-3", -5, 5), -3);
  EXPECT_EQ(parse_flag_double("prog", "reorder", "0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(parse_flag_double("prog", "reorder", "1", 0.0, 1.0), 1.0);
}

TEST(FlagParsing, RejectsMalformedAndOutOfRangeNamingProgramAndFlag) {
  const auto expect_rejected = [](auto parse, const std::string& value) {
    try {
      (void)parse(value);
      ADD_FAILURE() << "accepted \"" << value << "\"";
    } catch (const FlagError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("prog: --key ", 0), 0u) << e.what();
    }
  };
  const auto as_int = [](const std::string& v) {
    return parse_flag_int("prog", "key", v, 0, 1024);
  };
  for (const char* v : {"", "abc", "1x", " 1x", "1e3", "-1", "1025",
                        "99999999999999999999"})
    expect_rejected(as_int, v);
  const auto as_prob = [](const std::string& v) {
    return parse_flag_double("prog", "key", v, 0.0, 1.0);
  };
  for (const char* v : {"", "x", "0.5x", "nan", "inf", "-0.1", "1.5", "1e999"})
    expect_rejected(as_prob, v);
}

}  // namespace
}  // namespace wcp
