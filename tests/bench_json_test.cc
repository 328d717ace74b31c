// JsonReporter must emit well-formed JSON even when bench ids or config
// strings contain quotes, backslashes, or control characters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_util.h"

namespace smartssd::bench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(JsonEscapeTest, PassesThroughPlainStrings) {
  EXPECT_EQ(JsonEscape("abl_fault q6 NSM 0.25"), "abl_fault q6 NSM 0.25");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("sel=\"0.1\""), "sel=\\\"0.1\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(JsonEscape(std::string("\x1f", 1)), "\\u001f");
  // 0x7f and high bytes are legal inside JSON strings; pass through.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonReporterTest, WritesEscapedWellFormedOutput) {
  const std::string path =
      testing::TempDir() + "/bench_json_test_output.json";
  std::string json_arg = "--json=" + path;
  char arg0[] = "bench";
  std::vector<char*> argv = {arg0, json_arg.data()};
  JsonReporter reporter("q6 \"quoted\"\\bench",
                        static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(reporter.enabled());
  reporter.Add("config \"A\" \\ tab\there", 1.5, 2.0, 2.25);
  reporter.Add("plain", 0.5, NAN, 1.0);
  reporter.Write();

  const std::string written = ReadFile(path);
  std::remove(path.c_str());
  // The raw quote/backslash/control bytes must not survive unescaped:
  // every '"' is structural or preceded by a backslash, and no raw tab
  // remains.
  EXPECT_EQ(written.find('\t'), std::string::npos);
  EXPECT_NE(written.find("q6 \\\"quoted\\\"\\\\bench"), std::string::npos);
  EXPECT_NE(written.find("config \\\"A\\\" \\\\ tab\\there"),
            std::string::npos);
  EXPECT_NE(written.find("\"paper_ratio\":null"), std::string::npos);
  EXPECT_NE(written.find("\"measured_ratio\":2.25"), std::string::npos);

  // Structural sanity of the array: balanced brackets/braces and an
  // even count of unescaped quotes.
  int depth = 0;
  int quotes = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < written.size(); ++i) {
    const char c = written[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
        ++quotes;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      ++quotes;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0);
}

TEST(JsonReporterTest, MetadataHeaderRowIsEscapedAndFirst) {
  const std::string path =
      testing::TempDir() + "/bench_json_meta_output.json";
  std::string json_arg = "--json=" + path;
  char arg0[] = "bench";
  std::vector<char*> argv = {arg0, json_arg.data()};
  JsonReporter reporter("wall", static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(reporter.enabled());
  reporter.SetMetadata({{"compiler", "gcc \"12\""}, {"kernel_isa", "avx2"}});
  reporter.AddWall("cfg", 0.25, NAN, 1.0, 1e6);
  reporter.Write();

  const std::string written = ReadFile(path);
  std::remove(path.c_str());
  const std::size_t meta_pos = written.find("\"metadata\":{");
  ASSERT_NE(meta_pos, std::string::npos);
  EXPECT_NE(written.find("\"compiler\":\"gcc \\\"12\\\"\""),
            std::string::npos);
  EXPECT_NE(written.find("\"kernel_isa\":\"avx2\""), std::string::npos);
  // Metadata must precede every measurement row.
  EXPECT_LT(meta_pos, written.find("\"config\":\"cfg\""));
  // A wall-clock row reports wall seconds, never virtual ones.
  EXPECT_NE(written.find("\"wall_seconds\":0.25"), std::string::npos);
  EXPECT_EQ(written.find("virtual_seconds"), std::string::npos);
}

}  // namespace
}  // namespace smartssd::bench
