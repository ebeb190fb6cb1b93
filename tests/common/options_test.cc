#include "src/common/options.h"

#include <gtest/gtest.h>

namespace pad {
namespace {

std::optional<Options> ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("tool"));
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  std::string error;
  return Options::Parse(static_cast<int>(argv.size()), argv.data(), &error);
}

TEST(OptionsTest, ParsesKeyValues) {
  const auto options = ParseArgs({"users=200", "radio=lte", "wifi=true"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 0), 200);
  EXPECT_EQ(options->GetString("radio", ""), "lte");
  EXPECT_TRUE(options->GetBool("wifi", false));
}

TEST(OptionsTest, FallbacksWhenMissing) {
  const auto options = ParseArgs({});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 42), 42);
  EXPECT_DOUBLE_EQ(options->GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(options->GetString("s", "d"), "d");
  EXPECT_FALSE(options->GetBool("b", false));
}

TEST(OptionsTest, MalformedTokenFails) {
  std::vector<char*> argv;
  char prog[] = "tool";
  char bad[] = "novalue";
  argv = {prog, bad};
  std::string error;
  EXPECT_FALSE(Options::Parse(2, argv.data(), &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
}

TEST(OptionsTest, ParseTextSkipsCommentsAndBlanks) {
  std::string error;
  const auto options = Options::ParseText("# comment\n\nusers = 10\nradio= 3g \n", &error);
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 0), 10);
  EXPECT_EQ(options->GetString("radio", ""), "3g");
}

TEST(OptionsTest, ParseTextRejectsBadLine) {
  std::string error;
  EXPECT_FALSE(Options::ParseText("justakey\n", &error).has_value());
}

TEST(OptionsTest, ConfigFileWithCliOverride) {
  const std::string path = ::testing::TempDir() + "/options_test.conf";
  {
    std::string error;
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("users=10\nradio=3g\n", f);
    fclose(f);
    (void)error;
  }
  const auto options = ParseArgs({"--config", path, "users=99"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 0), 99);     // CLI wins.
  EXPECT_EQ(options->GetString("radio", ""), "3g");  // File value survives.
}

TEST(OptionsTest, MissingConfigFileFails) {
  const auto options = ParseArgs({"--config", "/nonexistent.conf"});
  EXPECT_FALSE(options.has_value());
}

TEST(OptionsTest, BooleanSpellings) {
  const auto options = ParseArgs({"a=yes", "b=off", "c=1", "d=false"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->GetBool("a", false));
  EXPECT_FALSE(options->GetBool("b", true));
  EXPECT_TRUE(options->GetBool("c", false));
  EXPECT_FALSE(options->GetBool("d", true));
}

TEST(OptionsTest, UnusedKeysTracked) {
  const auto options = ParseArgs({"used=1", "typo_key=2"});
  ASSERT_TRUE(options.has_value());
  (void)options->GetInt("used", 0);
  const auto unused = options->UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo_key");
}

TEST(OptionsTest, TypeMismatchRecordsErrorInsteadOfAborting) {
  const auto options = ParseArgs({"n=abc", "f=1.5"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->error().empty());

  // Bad values fall back and record a diagnostic naming the key; the first
  // error sticks so a tool reports the earliest offender.
  EXPECT_EQ(7, options->GetInt("n", 7));
  EXPECT_NE(options->error().find("'n'"), std::string::npos);
  EXPECT_NE(options->error().find("not a number"), std::string::npos);
  EXPECT_EQ(0, options->GetInt("f", 0));       // 1.5 is not an integer.
  EXPECT_FALSE(options->GetBool("n", false));  // "abc" is not a boolean.
  EXPECT_NE(options->error().find("'n'"), std::string::npos);
}

TEST(OptionsTest, IntOutOfRangeRecordsErrorInsteadOfCasting) {
  const auto options = ParseArgs({"big=1e10", "small=-3e9", "nan=nan", "max=2147483647"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(5, options->GetInt("big", 5));
  EXPECT_NE(options->error().find("option 'big' is out of range"), std::string::npos);
  EXPECT_EQ(6, options->GetInt("small", 6));
  EXPECT_EQ(7, options->GetInt("nan", 7));
  EXPECT_EQ(2147483647, options->GetInt("max", 0));
  EXPECT_NE(options->error().find("'big'"), std::string::npos);  // First error sticks.
}

TEST(OptionsTest, CheckReportsTypeErrorBeforeUnknownKeyAndEmptyWhenClean) {
  EXPECT_EQ("", ParseArgs({})->Check());
  const auto options = ParseArgs({"a_typo=1", "n=abc", "ok=2"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(2, options->GetInt("ok", 0));
  EXPECT_EQ("unknown option 'a_typo'", options->Check());
  EXPECT_EQ(0, options->GetInt("n", 0));
  EXPECT_EQ("option 'n' is not a number (value 'abc')", options->Check());
  EXPECT_EQ(1, options->GetInt("a_typo", 0));
  EXPECT_EQ("option 'n' is not a number (value 'abc')", options->Check());

  const auto clean = ParseArgs({"n=3", "b=on"});
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(3, clean->GetInt("n", 0));
  EXPECT_TRUE(clean->GetBool("b", false));
  EXPECT_EQ("", clean->Check());
}

TEST(OptionsTest, WellTypedReadsLeaveErrorEmpty) {
  const auto options = ParseArgs({"n=3", "f=1.5", "b=true"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(3, options->GetInt("n", 0));
  EXPECT_DOUBLE_EQ(1.5, options->GetDouble("f", 0.0));
  EXPECT_TRUE(options->GetBool("b", false));
  EXPECT_TRUE(options->error().empty());
}

}  // namespace
}  // namespace pad
