#include "util/lineio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace rac::util {
namespace {

TEST(LineIo, FormatDoubleRoundTripsExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          1.5,
                          -2.75,
                          0.1,
                          1.0 / 3.0,
                          3.141592653589793,
                          1e-300,
                          -1e300,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::epsilon()};
  for (const double v : cases) {
    const std::string token = format_double(v);
    const double back = parse_double(token, "test");
    // Bit-exact, including the sign of zero.
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << token;
    EXPECT_EQ(back, v) << token;
  }
}

TEST(LineIo, FormatDoubleEmitsHexWithoutPrefix) {
  // to_chars hex format: mantissa 'p' exponent, no "0x".
  const std::string token = format_double(1.5);
  EXPECT_EQ(token, "1.8p+0");
}

TEST(LineIo, ParseDoubleAcceptsDecimalForms) {
  EXPECT_EQ(parse_double("1.25", "test"), 1.25);
  EXPECT_EQ(parse_double("-3", "test"), -3.0);
  EXPECT_EQ(parse_double("2e3", "test"), 2000.0);
}

TEST(LineIo, ParseDoubleHandlesNonFinite) {
  EXPECT_TRUE(std::isinf(parse_double(format_double(
                  std::numeric_limits<double>::infinity()), "test")));
  EXPECT_TRUE(std::isnan(parse_double(format_double(
                  std::numeric_limits<double>::quiet_NaN()), "test")));
}

TEST(LineIo, ParseDoubleRejectsMalformedTokens) {
  // The printf "%a" spellings (0x prefix, leading '+') are not what
  // format_double writes, so they are malformed too.
  for (const char* bad : {"", "x", "1.5x", "1,5", "0x", "p+0", "--1",
                          "1.5 ", "0x1.8p+0z", "0x1.8p+0", "-0x1p-1", "+1.5",
                          "+0x1p-1"}) {
    EXPECT_THROW(parse_double(bad, "ctx"), std::runtime_error) << bad;
  }
}

TEST(LineIo, ParseErrorsNameTheCaller) {
  try {
    parse_double("bogus", "load_qtable row 3");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("load_qtable row 3"),
              std::string::npos);
  }
}

TEST(LineIo, IntegerRoundTrips) {
  EXPECT_EQ(parse_i64(format_i64(-42), "test"), -42);
  EXPECT_EQ(parse_i64(format_i64(std::numeric_limits<std::int64_t>::min()),
                      "test"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_u64(format_u64(std::numeric_limits<std::uint64_t>::max()),
                      "test"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(LineIo, IntegerParsersRejectMalformedTokens) {
  EXPECT_THROW(parse_i64("12x", "ctx"), std::runtime_error);
  EXPECT_THROW(parse_i64("", "ctx"), std::runtime_error);
  EXPECT_THROW(parse_u64("-1", "ctx"), std::runtime_error);
  EXPECT_THROW(parse_int("3000000000", "ctx"), std::runtime_error);
  EXPECT_EQ(parse_int("-7", "ctx"), -7);
}

TEST(LineIo, ReadTokenThrowsAtEndOfStream) {
  std::istringstream is("one two");
  EXPECT_EQ(read_token(is, "ctx"), "one");
  EXPECT_EQ(read_token(is, "ctx"), "two");
  EXPECT_THROW(read_token(is, "ctx"), std::runtime_error);
}

TEST(LineIo, ReadersParseTheNextTokenAndNameTheCaller) {
  std::istringstream is("1.8p+0 -9 18446744073709551615 42 1 0 2 01 x");
  EXPECT_EQ(read_double(is, "ctx"), 1.5);
  EXPECT_EQ(read_i64(is, "ctx"), -9);
  EXPECT_EQ(read_u64(is, "ctx"), 18446744073709551615ULL);
  EXPECT_EQ(read_int(is, "ctx"), 42);
  EXPECT_TRUE(read_bool(is, "ctx"));
  EXPECT_FALSE(read_bool(is, "ctx"));
  EXPECT_EQ(std::string(bool_token(true)) + bool_token(false), "10");
  try {
    read_bool(is, "flags");
    FAIL() << "2 is not a flag";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "flags: flag must be 0 or 1");
  }
  EXPECT_THROW(read_bool(is, "flags"), std::runtime_error);  // "01"
  EXPECT_THROW(read_int(is, "ctx"), std::runtime_error);  // "x"
  EXPECT_THROW(read_double(is, "ctx"), std::runtime_error);  // end
}

TEST(LineIo, ExpectTokenMismatchThrows) {
  std::istringstream is("actual");
  EXPECT_THROW(expect_token(is, "expected", "ctx"), std::runtime_error);
}

TEST(LineIo, AtomicWriteFileReplacesContentsAndLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "/rac_lineio_atomic.txt";
  atomic_write_file(path, "first");
  atomic_write_file(path, {"sec", "", "ond\nline"});  // parts, in order
  std::ifstream is(path);
  std::string contents((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "second\nline");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(LineIo, LongestTokensFitThePutBounds) {
  // Bulk writers size their buffers by kMaxDoubleChars / kMaxI64Chars, and
  // the put forms throw rather than write past those bounds.
  using limits = std::numeric_limits<double>;
  EXPECT_EQ(format_double(-limits::max()), "-1.fffffffffffffp+1023");
  for (const double v : {-limits::min(), -limits::denorm_min(),
                         -limits::min() / 3.0, -1.0 / 3.0,
                         -limits::infinity(), -limits::quiet_NaN()}) {
    char buf[kMaxDoubleChars];
    EXPECT_EQ(std::string(buf, put_double(buf, v)), format_double(v)) << v;
  }
  EXPECT_EQ(format_i64(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
}

TEST(LineIo, AtomicWriteFileThrowsOnUnwritableDirectory) {
  EXPECT_THROW(atomic_write_file("/nonexistent/dir/file.txt", "x"),
               std::ios_base::failure);
}

}  // namespace
}  // namespace rac::util
