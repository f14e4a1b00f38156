#include "util/flags.h"

#include <gtest/gtest.h>

#include "util/common_flags.h"

namespace wtpgsched {
namespace {

FlagParser MakeParser() {
  FlagParser flags;
  flags.AddString("name", "default", "a string");
  flags.AddInt("count", 7, "an int");
  flags.AddDouble("rate", 1.5, "a double");
  flags.AddBool("verbose", false, "a bool");
  return flags;
}

Status ParseArgs(FlagParser* flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags->Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, DefaultsWithoutArgs) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {}).ok());
  EXPECT_EQ(flags.GetString("name"), "default");
  EXPECT_EQ(flags.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 1.5);
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--name=abc", "--count=42", "--rate=0.25",
                                 "--verbose=true"})
                  .ok());
  EXPECT_EQ(flags.GetString("name"), "abc");
  EXPECT_EQ(flags.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--name", "xyz", "--count", "-3"}).ok());
  EXPECT_EQ(flags.GetString("name"), "xyz");
  EXPECT_EQ(flags.GetInt("count"), -3);
}

TEST(FlagParserTest, BareBoolFlag) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--verbose"}).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, BoolFalse) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--verbose=false"}).ok());
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"one", "--count=1", "two"}).ok());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"one", "two"}));
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser flags = MakeParser();
  EXPECT_FALSE(ParseArgs(&flags, {"--bogus=1"}).ok());
}

// --shards was removed with the sharded-clock engine; the tools must reject
// it rather than ignore it.
TEST(FlagParserTest, CommonToolFlagsRejectRemovedShards) {
  FlagParser flags;
  AddCommonToolFlags(flags);
  const Status status = ParseArgs(&flags, {"--shards=4"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown flag"), std::string::npos)
      << status.ToString();
}

TEST(FlagParserTest, BadIntFails) {
  FlagParser flags = MakeParser();
  EXPECT_FALSE(ParseArgs(&flags, {"--count=abc"}).ok());
  EXPECT_FALSE(ParseArgs(&flags, {"--count=12x"}).ok());
}

TEST(FlagParserTest, BadDoubleFails) {
  FlagParser flags = MakeParser();
  EXPECT_FALSE(ParseArgs(&flags, {"--rate=fast"}).ok());
}

TEST(FlagParserTest, BadBoolFails) {
  FlagParser flags = MakeParser();
  EXPECT_FALSE(ParseArgs(&flags, {"--verbose=maybe"}).ok());
}

TEST(FlagParserTest, MissingValueFails) {
  FlagParser flags = MakeParser();
  EXPECT_FALSE(ParseArgs(&flags, {"--count"}).ok());
}

TEST(FlagParserTest, HelpListsFlags) {
  FlagParser flags = MakeParser();
  const std::string help = flags.Help();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("default: 7"), std::string::npos);
}

}  // namespace
}  // namespace wtpgsched
