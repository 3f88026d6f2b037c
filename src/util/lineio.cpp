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

template <typename T>
T parse_integer(std::string_view token, std::string_view what) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, 10);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    bad_token(token, what);
  }
  return value;
}

bool parse_with_format(std::string_view token, std::chars_format fmt,
                       double& out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out, fmt);
  return ec == std::errc{} && ptr == token.data() + token.size();
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
  if (token.empty()) bad_token(token, what);
  // from_chars never accepts an explicit '+', but legacy strtod-written
  // files can carry one; strip a single leading plus (and nothing more).
  std::string_view body = token;
  if (body[0] == '+') {
    body.remove_prefix(1);
    if (body.empty() || body[0] == '+' || body[0] == '-') {
      bad_token(token, what);
    }
  }
  double value = 0.0;
  // Hex floats always carry a binary exponent marker ('p'); decimal and
  // special forms ("inf", "nan", "1.5e3") never do, so the marker decides
  // the format unambiguously.
  const bool hex = body.find('p') != std::string_view::npos ||
                   body.find('P') != std::string_view::npos;
  if (!hex) {
    if (!parse_with_format(body, std::chars_format::general, value)) {
      bad_token(token, what);
    }
    return value;
  }
  // from_chars hex format takes no 0x prefix; strip the legacy printf
  // "%a" prefix (after an optional sign) so old files still load.
  std::string stripped;
  std::size_t sign = 0;
  if (!body.empty() && body[0] == '-') sign = 1;
  if (body.size() >= sign + 2 && body[sign] == '0' &&
      (body[sign + 1] == 'x' || body[sign + 1] == 'X')) {
    stripped = body.substr(sign + 2);
    if (sign == 1) stripped.insert(stripped.begin(), '-');
    body = stripped;
  }
  if (!parse_with_format(body, std::chars_format::hex, value)) {
    bad_token(token, what);
  }
  return value;
}

std::int64_t parse_i64(std::string_view token, std::string_view what) {
  return parse_integer<std::int64_t>(token, what);
}

std::uint64_t parse_u64(std::string_view token, std::string_view what) {
  return parse_integer<std::uint64_t>(token, what);
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
  const std::uint64_t v = read_u64(is, what);
  if (v > 1) {
    throw std::runtime_error(std::string(what) + ": flag must be 0 or 1");
  }
  return v == 1;
}

void expect_token(std::istream& is, std::string_view expected,
                  std::string_view what) {
  const std::string token = read_token(is, what);
  if (token != expected) {
    throw std::runtime_error(std::string(what) + ": expected '" +
                             std::string(expected) + "', got '" + token + "'");
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
