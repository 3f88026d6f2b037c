#include "util/lineio.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace rac::util {

namespace {

[[noreturn]] void bad_token(std::string_view token, std::string_view what) {
  throw std::runtime_error(std::string(what) + ": bad numeric token '" +
                           std::string(token) + "'");
}

// std::from_chars over the whole token: `format` is empty for integers
// (base 10) or one std::chars_format for doubles.
template <typename T, typename... Format>
T parse_whole(std::string_view token, std::string_view what,
              Format... format) {
  T value{};
  const auto [ptr, ec] = std::from_chars(
      token.data(), token.data() + token.size(), value, format...);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    bad_token(token, what);
  }
  return value;
}

}  // namespace

char* put_double(char* first, double v) {
  const auto [ptr, ec] =
      std::to_chars(first, first + kMaxDoubleChars, v, std::chars_format::hex);
  if (ec != std::errc{}) {
    throw std::runtime_error("format_double: to_chars failed");
  }
  return ptr;
}

char* put_i64(char* first, std::int64_t v) {
  const auto [ptr, ec] = std::to_chars(first, first + kMaxI64Chars, v, 10);
  if (ec != std::errc{}) {
    throw std::runtime_error("format_i64: to_chars failed");
  }
  return ptr;
}

std::string format_double(double v) {
  char buf[kMaxDoubleChars];
  return std::string(buf, put_double(buf, v));
}

std::string format_double_decimal(double v) {
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general);
  if (ec != std::errc{}) {
    throw std::runtime_error("format_double_decimal: to_chars failed");
  }
  return std::string(buf, ptr);
}

std::string format_i64(std::int64_t v) {
  char buf[kMaxI64Chars];
  return std::string(buf, put_i64(buf, v));
}

std::string format_u64(std::uint64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, 10);
  if (ec != std::errc{}) {
    throw std::runtime_error("format_u64: to_chars failed");
  }
  return std::string(buf, ptr);
}

double parse_double(std::string_view token, std::string_view what) {
  // Hex floats always carry a binary exponent marker ('p'); decimal and
  // special forms ("inf", "nan", "1.5e3") never do, so the marker decides
  // the format unambiguously. from_chars takes neither a leading '+' nor
  // a 0x prefix, and format_double writes neither.
  const bool hex = token.find_first_of("pP") != std::string_view::npos;
  return parse_whole<double>(
      token, what, hex ? std::chars_format::hex : std::chars_format::general);
}

std::int64_t parse_i64(std::string_view token, std::string_view what) {
  return parse_whole<std::int64_t>(token, what);
}

std::uint64_t parse_u64(std::string_view token, std::string_view what) {
  return parse_whole<std::uint64_t>(token, what);
}

int parse_int(std::string_view token, std::string_view what) {
  const std::int64_t wide = parse_i64(token, what);
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    bad_token(token, what);
  }
  return static_cast<int>(wide);
}

std::string read_token(std::istream& is, std::string_view what) {
  std::string token;
  if (!(is >> token)) {
    throw std::runtime_error(std::string(what) + ": unexpected end of input");
  }
  return token;
}

double read_double(std::istream& is, std::string_view what) {
  return parse_double(read_token(is, what), what);
}

std::int64_t read_i64(std::istream& is, std::string_view what) {
  return parse_i64(read_token(is, what), what);
}

std::uint64_t read_u64(std::istream& is, std::string_view what) {
  return parse_u64(read_token(is, what), what);
}

int read_int(std::istream& is, std::string_view what) {
  return parse_int(read_token(is, what), what);
}

bool read_bool(std::istream& is, std::string_view what) {
  const std::string token = read_token(is, what);
  if (token != "0" && token != "1") {
    throw std::runtime_error(std::string(what) + ": flag must be 0 or 1");
  }
  return token == "1";
}

void expect_token(std::istream& is, std::string_view expected,
                  std::string_view what) {
  const std::string token = read_token(is, what);
  if (token != expected) {
    throw std::runtime_error(std::string(what) + ": expected '" +
                             std::string(expected) + "', got '" + token + "'");
  }
}

void expect_header(std::istream& is, std::string_view magic, int version,
                   std::string_view what) {
  const std::string got_magic = read_token(is, what);
  const std::string got_version = read_token(is, what);
  if (got_magic != magic) {
    throw std::runtime_error(std::string(what) + ": not a " +
                             std::string(magic) + " stream");
  }
  if (got_version != "v" + format_i64(version)) {
    throw std::runtime_error(std::string(what) + ": unsupported version " +
                             got_version);
  }
}

void atomic_write_file(const std::string& path,
                       std::initializer_list<std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::ios_base::failure("atomic_write_file: cannot open " + tmp);
    }
    for (const std::string_view part : parts) {
      os.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    os.flush();
    if (!os) {
      throw std::ios_base::failure("atomic_write_file: write failed for " +
                                   tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::ios_base::failure("atomic_write_file: rename to " + path +
                                 " failed");
  }
}

}  // namespace rac::util
