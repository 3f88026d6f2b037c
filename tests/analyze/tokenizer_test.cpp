// Exercises the srcscan scanner: the stripping and token-stream behavior
// every rac-analyze rule depends on, in particular the raw
// string literal and line-continuation handling that per-line strippers
// get wrong.
#include "tokenizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using rac::srcscan::ScanResult;
using rac::srcscan::TokKind;
using rac::srcscan::Token;

std::vector<Token> tokens_of_kind(const ScanResult& r, TokKind kind) {
  std::vector<Token> out;
  for (const auto& t : r.tokens) {
    if (t.kind == kind) out.push_back(t);
  }
  return out;
}

TEST(Tokenizer, RawStringContentsAreBlankedFromCode) {
  const auto r = rac::srcscan::scan(
      "const char* s = R\"(calls std::rand() here)\";\n"
      "int x = 1;\n");
  EXPECT_EQ(r.lines.size(), 2u);
  EXPECT_EQ(r.lines[0].code.find("rand"), std::string::npos);
  // Columns are preserved: the trailing ';' stays at its column.
  EXPECT_EQ(r.lines[0].code.size(), r.lines[0].code.rfind(';') + 1);
  const auto strings = tokens_of_kind(r, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "calls std::rand() here");
}

TEST(Tokenizer, RawStringCustomDelimiterSpansLines) {
  const auto r = rac::srcscan::scan(
      "const char* s = R\"delim(\n"
      "  a quote \" and a fake close )\" inside\n"
      ")delim\";\n"
      "int after = 1;\n");
  ASSERT_EQ(r.lines.size(), 4u);
  EXPECT_EQ(r.lines[1].code.find('"'), std::string::npos);
  // The identifier after the raw string is still tokenized, on the right
  // physical line.
  bool saw_after = false;
  for (const auto& t : r.tokens) {
    if (t.kind == TokKind::kIdent && t.text == "after") {
      saw_after = true;
      EXPECT_EQ(t.line, 4);
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(Tokenizer, EncodingPrefixedRawStringIsNotSplit) {
  const auto r = rac::srcscan::scan("auto s = u8R\"(body)\";\n");
  const auto strings = tokens_of_kind(r, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "body");
}

TEST(Tokenizer, LineCommentContinuationSwallowsNextLine) {
  const auto r = rac::srcscan::scan(
      "int x = 0;  // continued comment \\\n"
      "x = std::rand();\n"
      "int y = 1;\n");
  ASSERT_EQ(r.lines.size(), 3u);
  EXPECT_EQ(r.lines[1].code.find("rand"), std::string::npos);
  EXPECT_NE(r.lines[2].code.find('y'), std::string::npos);
  // Comment text is captured for suppression parsing.
  EXPECT_NE(r.lines[0].comment.find("continued"), std::string::npos);
}

TEST(Tokenizer, StringContinuationSwallowsNextLine) {
  const auto r = rac::srcscan::scan(
      "const char* s = \"continued \\\n"
      "std::rand() in the string\";\n"
      "int z = 2;\n");
  ASSERT_EQ(r.lines.size(), 3u);
  EXPECT_EQ(r.lines[1].code.find("rand"), std::string::npos);
  const auto strings = tokens_of_kind(r, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_NE(strings[0].text.find("rand"), std::string::npos);
}

TEST(Tokenizer, DigitSeparatorIsANumberNotACharLiteral) {
  const auto r = rac::srcscan::scan("long n = 1'000'000;\n");
  const auto numbers = tokens_of_kind(r, TokKind::kNumber);
  ASSERT_EQ(numbers.size(), 1u);
  EXPECT_EQ(numbers[0].text, "1'000'000");
  EXPECT_TRUE(tokens_of_kind(r, TokKind::kCharLit).empty());
}

TEST(Tokenizer, MultiCharOperatorsAreSingleTokens) {
  const auto r = rac::srcscan::scan("a += b; c::d->e; x <<= 1;\n");
  std::vector<std::string> punct;
  for (const auto& t : r.tokens) {
    if (t.kind == TokKind::kPunct) punct.push_back(t.text);
  }
  EXPECT_NE(std::find(punct.begin(), punct.end(), "+="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "::"), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "->"), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "<<="), punct.end());
}

TEST(Tokenizer, UnterminatedStringStopsAtEndOfLine) {
  const auto r = rac::srcscan::scan(
      "const char* s = \"never closed;\n"
      "int still_code = 1;\n");
  ASSERT_EQ(r.lines.size(), 2u);
  EXPECT_NE(r.lines[1].code.find("still_code"), std::string::npos);
}

TEST(Tokenizer, ParseAllowExtractsCommaSeparatedIds) {
  const auto ids = rac::srcscan::parse_allow(
      " rac-analyze: allow(float-eq, rand) justification text",
      "rac-analyze:");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "float-eq");
  EXPECT_EQ(ids[1], "rand");
  EXPECT_TRUE(rac::srcscan::parse_allow("no marker here", "rac-analyze:")
                  .empty());
  // Another tool's marker does not match.
  EXPECT_TRUE(rac::srcscan::parse_allow(" clang-tidy: allow(layer-edge)",
                                        "rac-analyze:")
                  .empty());
}

TEST(Tokenizer, SuppressionSetTracksUse) {
  const auto r = rac::srcscan::scan(
      "int a;  // rac-analyze: allow(layer-edge) used below\n"
      "int b;  // rac-analyze: allow(unordered-iter) never used\n");
  rac::srcscan::SuppressionSet set(r.lines, "rac-analyze:");
  EXPECT_TRUE(set.allowed(1, "layer-edge"));
  EXPECT_FALSE(set.allowed(2, "layer-edge"));
  const auto unused = set.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0].first, 2);
  EXPECT_EQ(unused[0].second, "unordered-iter");
}

}  // namespace
