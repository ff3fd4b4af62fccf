// The key=value argument parser used by the simulator example.
#include "dlb/analysis/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "dlb/common/contracts.hpp"

namespace dlb::analysis {
namespace {

TEST(ArgsTest, ParsesKeyValuePairs) {
  const arg_map args({"graph=torus", "n=64", "rate=0.5", "verbose"});
  EXPECT_EQ(args.get("graph", "?"), "torus");
  EXPECT_EQ(args.get_int("n", 0), 64);
  EXPECT_DOUBLE_EQ(args.get_real("rate", 0.0), 0.5);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", ""), "true");
}

TEST(ArgsTest, FallbacksApply) {
  const arg_map args({});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_real("missing", 2.5), 2.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(ArgsTest, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "a=1", "b=two"};
  const arg_map args(3, argv);
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get("b", ""), "two");
  EXPECT_FALSE(args.has("prog"));
}

TEST(ArgsTest, RejectsDuplicatesAndEmptyKeys) {
  EXPECT_THROW(arg_map({"a=1", "a=2"}), contract_violation);
  EXPECT_THROW(arg_map({"=1"}), contract_violation);
}

TEST(ArgsTest, NumericValidation) {
  const arg_map args({"n=abc", "r=1.5x"});
  EXPECT_THROW((void)args.get_int("n", 0), contract_violation);
  EXPECT_THROW((void)args.get_real("r", 0.0), contract_violation);
}

TEST(ArgsTest, UnusedKeysTracksConsumption) {
  const arg_map args({"used=1", "typo=2"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgsTest, ValueWithEqualsSign) {
  const arg_map args({"expr=a=b"});
  EXPECT_EQ(args.get("expr", ""), "a=b");
}

TEST(ArgsTest, DashedKeyConsumesNextTokenAsValue) {
  const arg_map args({"--grid", "table1", "--threads", "8",
                      "--master-seed", "42"});
  EXPECT_EQ(args.get("grid", ""), "table1");
  EXPECT_EQ(args.get_int("threads", 0), 8);
  EXPECT_EQ(args.get_int("master-seed", 0), 42);
}

TEST(ArgsTest, DashedKeyWithEqualsSign) {
  const arg_map args({"--grid=table1", "-n=64"});
  EXPECT_EQ(args.get("grid", ""), "table1");
  EXPECT_EQ(args.get_int("n", 0), 64);
}

TEST(ArgsTest, TrailingDashedTokenIsAFlag) {
  const arg_map args({"--list"});
  EXPECT_TRUE(args.has("list"));
  EXPECT_EQ(args.get("list", ""), "true");
}

TEST(ArgsTest, DashedFlagFollowedByAnotherKeyStaysAFlag) {
  const arg_map args({"--table", "--grid", "table1"});
  EXPECT_EQ(args.get("table", ""), "true");
  EXPECT_EQ(args.get("grid", ""), "table1");
}

TEST(ArgsTest, NegativeNumbersAreValuesNotKeys) {
  const arg_map args({"--offset", "-5", "--threshold", "-.5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_real("threshold", 0.0), -0.5);
}

TEST(ArgsTest, DashLedStringValueNeedsEqualsSpelling) {
  const arg_map args({"--out=-results.json"});
  EXPECT_EQ(args.get("out", ""), "-results.json");
}

TEST(ArgsTest, DashedFlagDoesNotSwallowKeyValueTokens) {
  const arg_map args({"--table", "master-seed=9"});
  EXPECT_EQ(args.get("table", ""), "true");
  EXPECT_EQ(args.get_int("master-seed", 1), 9);
}

// Counts that narrow to a smaller type must fail instead of wrapping into
// a different experiment: --n 4294967328 would run n = 32, --repeats
// 4294967297 one repeat, and -1 threads 4294967295 threads.
TEST(ArgsTest, RangedIntsRejectValuesThatWouldWrap) {
  const std::int64_t u_max = std::numeric_limits<unsigned>::max();
  const arg_map args({"--n", "4294967328", "--repeats", "4294967297",
                      "--threads", "-1", "--ok", "16"});
  try {
    (void)args.get_int("n", 128, 16, 2147483647);
    FAIL() << "out-of-range value accepted";
  } catch (const contract_violation& e) {
    EXPECT_STREQ(e.what(),
                 "argument 'n' is 4294967328, outside [16, 2147483647]");
  }
  EXPECT_THROW((void)args.get_int("repeats", 5, 1, 2147483647),
               contract_violation);
  EXPECT_THROW((void)args.get_int("threads", 1, 1, u_max), contract_violation);
  EXPECT_EQ(args.get_int("ok", 128, 16, 16), 16);  // bounds are inclusive
  // --shard-threads items arrive in a comma list.
  EXPECT_THROW((void)parse_int("shard-threads", "-1", 1, u_max),
               contract_violation);
  EXPECT_EQ(parse_int("shard-threads", "8", 1, u_max), 8);
}

TEST(ArgsTest, DashedAndPlainSpellingsCollide) {
  EXPECT_THROW(arg_map({"--seed", "1", "seed=2"}), contract_violation);
}

}  // namespace
}  // namespace dlb::analysis
