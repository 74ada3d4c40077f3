#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
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

}  // namespace
}  // namespace wcp
