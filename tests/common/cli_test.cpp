#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace xbgas {
namespace {

constexpr std::string_view kKnown[] = {"pes",  "topology", "verify", "n",
                                       "mask", "reps",     "rate"};

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(v.size()), v.data(), {kKnown});
}

/// The what() of the xbgas::Error `fn` throws, or "" if it throws none.
template <class Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CliTest, SpaceSeparatedFlag) {
  const CliArgs args = make({"--pes", "8"});
  EXPECT_TRUE(args.has("pes"));
  EXPECT_EQ(args.get_int("pes", 0), 8);
}

TEST(CliTest, EqualsSeparatedFlag) {
  const CliArgs args = make({"--topology=ring"});
  EXPECT_EQ(args.get("topology", ""), "ring");
}

TEST(CliTest, BareBooleanFlag) {
  const CliArgs args = make({"--verify"});
  EXPECT_TRUE(args.get_bool("verify", false));
}

TEST(CliTest, BooleanFalseSpellings) {
  EXPECT_FALSE(make({"--verify", "false"}).get_bool("verify", true));
  EXPECT_FALSE(make({"--verify=0"}).get_bool("verify", true));
  EXPECT_FALSE(make({"--verify=no"}).get_bool("verify", true));
}

TEST(CliTest, FallbacksWhenAbsent) {
  const CliArgs args = make({});
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
}

TEST(CliTest, IntList) {
  const CliArgs args = make({"--pes", "1,2,4,8"});
  EXPECT_EQ(args.get_int_list("pes", {}), (std::vector<int>{1, 2, 4, 8}));
}

TEST(CliTest, IntListFallback) {
  const CliArgs args = make({});
  EXPECT_EQ(args.get_int_list("pes", {3}), (std::vector<int>{3}));
}

TEST(CliTest, PositionalArguments) {
  const std::vector<const char*> v{"prog", "input.txt", "--n", "3",
                                   "out.txt"};
  const CliArgs args(static_cast<int>(v.size()), v.data(), {kKnown}, 2);
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"input.txt", "out.txt"}));
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(CliTest, StrayPositionalArgumentIsRejectedByName) {
  // A binary takes no positional argument unless it says how many.
  EXPECT_NE(error_of([] { make({"99"}); }).find("'99'"), std::string::npos);
  // A flag's value is not positional; the argument after it is.
  EXPECT_NE(error_of([] { make({"--pes", "5", "7"}); }).find("'7'"),
            std::string::npos);
  // One allowed: the second is named.
  const std::vector<const char*> v{"prog", "a.s", "extra"};
  const std::string what = error_of([&] {
    CliArgs(static_cast<int>(v.size()), v.data(), {kKnown}, 1);
  });
  EXPECT_NE(what.find("unexpected argument 'extra'"), std::string::npos)
      << what;
}

TEST(CliTest, HexIntegers) {
  const CliArgs args = make({"--mask", "0xff"});
  EXPECT_EQ(args.get_int("mask", 0), 255);
}

TEST(CliTest, NegativeNumbers) {
  const CliArgs args = make({"--n", "-3", "--rate=-0.5"});
  EXPECT_EQ(args.get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), -0.5);
}

TEST(CliTest, UnknownFlagIsRejectedByName) {
  const std::string what = error_of([] { make({"--no-such-flag"}); });
  EXPECT_NE(what.find("unknown flag --no-such-flag"), std::string::npos)
      << what;
  // A retired flag is unknown too, even with a value.
  EXPECT_NE(error_of([] { make({"--pes", "4", "--sched", "threads"}); })
                .find("--sched"),
            std::string::npos);
}

TEST(CliTest, FlagMayComeFromAnyKnownList) {
  constexpr std::string_view kMore[] = {"extra"};
  const std::vector<const char*> v{"prog", "--extra", "--pes", "2"};
  const CliArgs args(static_cast<int>(v.size()), v.data(), {kKnown, kMore});
  EXPECT_TRUE(args.get_bool("extra", false));
  EXPECT_EQ(args.get_int("pes", 0), 2);
}

TEST(CliTest, MalformedIntegersAreRejectedByName) {
  for (const char* bad : {"abc", "5x", "", "1.5", "99999999999999999999"}) {
    const CliArgs args = make({"--reps", bad});
    const std::string what = error_of([&] { (void)args.get_int("reps", 1); });
    EXPECT_NE(what.find("--reps"), std::string::npos) << "value: " << bad;
  }
}

TEST(CliTest, MalformedNumbersAreRejectedByName) {
  const CliArgs args = make({"--rate=lots"});
  EXPECT_NE(error_of([&] { (void)args.get_double("rate", 0); }).find("--rate"),
            std::string::npos);
}

TEST(CliTest, MalformedIntListsAreRejectedByName) {
  for (const char* bad : {"1,x,4", "1,,2", "1,2,", "8589934592"}) {
    const CliArgs args = make({"--pes", bad});
    EXPECT_NE(error_of([&] { (void)args.get_int_list("pes", {}); })
                  .find("--pes"),
              std::string::npos)
        << "value: " << bad;
  }
}

TEST(CliTest, MalformedBooleansAreRejectedByName) {
  const CliArgs args = make({"--verify=maybe"});
  EXPECT_NE(error_of([&] { (void)args.get_bool("verify", false); })
                .find("--verify"),
            std::string::npos);
}

}  // namespace
}  // namespace xbgas
