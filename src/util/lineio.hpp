// Locale-immune primitives for the line-oriented persistence formats.
//
// Everything the checkpoint/restore subsystem writes to disk -- Q-tables,
// agent snapshots, policy libraries -- must round-trip bit-exactly on any
// host, under any process locale. printf "%a" / std::stod / stream
// numeric inserters all honor the locale (LC_NUMERIC decimal point, num_get
// thousands grouping), so a file written under de_DE is corrupt under "C"
// and vice versa (the PR-4 serialization bug class; rac-analyze rule
// `locale-io`). These helpers route every number through
// std::to_chars/std::from_chars, which are locale-independent by
// specification; callers write the returned tokens as plain strings and
// read whitespace-separated tokens back.
//
// Doubles are formatted as hex floats ("1.91eb851eb851fp+1"): exact
// round-trip, no shortest-decimal ambiguity, still diffable text. The
// parser also accepts plain decimal/scientific forms, but not the 0x
// prefix or leading '+' that printf "%a" writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>

namespace rac::util {

/// Exact hex-float rendering ("-1.8p+3"; "inf"/"nan" pass through).
std::string format_double(double v);

/// Shortest decimal rendering that parses back to exactly `v`
/// (std::to_chars general form, e.g. "0.1", "1e+25"). Locale-independent
/// and a valid JSON number for finite inputs; "inf"/"nan" pass through,
/// so JSON writers must guard non-finite values themselves.
std::string format_double_decimal(double v);

/// Locale-independent integer renderings.
std::string format_i64(std::int64_t v);
std::string format_u64(std::uint64_t v);

/// Longest token format_double / format_i64 produce: a hex float is at
/// most 22 characters ("-1.fffffffffffffp+1023"), an int64 at most 20.
inline constexpr std::size_t kMaxDoubleChars = 24;
inline constexpr std::size_t kMaxI64Chars = 20;

/// Buffer forms of format_double / format_i64 for bulk writers: render the
/// same token at `first`, which must have room for kMaxDoubleChars /
/// kMaxI64Chars bytes, and return one past its last character.
char* put_double(char* first, double v);
char* put_i64(char* first, std::int64_t v);

/// Strict parsers: the whole token must be consumed. Throw
/// std::runtime_error naming `what` on malformed input. parse_double
/// accepts format_double's hex floats and decimal forms.
double parse_double(std::string_view token, std::string_view what);
std::int64_t parse_i64(std::string_view token, std::string_view what);
std::uint64_t parse_u64(std::string_view token, std::string_view what);
/// parse_i64 range-checked into int.
int parse_int(std::string_view token, std::string_view what);

/// Next whitespace-separated token; throws std::runtime_error naming
/// `what` on end of stream.
std::string read_token(std::istream& is, std::string_view what);

/// read_token then parse_*: the next token as a number. Both failures
/// throw std::runtime_error naming `what`.
double read_double(std::istream& is, std::string_view what);
std::int64_t read_i64(std::istream& is, std::string_view what);
std::uint64_t read_u64(std::istream& is, std::string_view what);
int read_int(std::istream& is, std::string_view what);

/// Flags persist as the tokens "1" / "0". read_bool reads one back and
/// throws std::runtime_error ("<what>: flag must be 0 or 1") on any other
/// token.
inline const char* bool_token(bool b) { return b ? "1" : "0"; }
bool read_bool(std::istream& is, std::string_view what);

/// read_token that must equal `expected`; throws otherwise.
void expect_token(std::istream& is, std::string_view expected,
                  std::string_view what);

/// Reads a format's "<magic> v<version>" header and throws
/// std::runtime_error naming `what` unless both tokens match: every loader
/// accepts exactly the version its writer emits.
void expect_header(std::istream& is, std::string_view magic, int version,
                   std::string_view what);

/// Durable file replace: write `parts`, in order, to `path + ".tmp"`,
/// flush, then rename over `path` (atomic on POSIX filesystems -- readers
/// see either the old file or the complete new one, never a torn write).
/// Throws std::ios_base::failure on any I/O error. Writing the parts
/// separately lets callers frame a large payload without copying it.
void atomic_write_file(const std::string& path,
                       std::initializer_list<std::string_view> parts);
inline void atomic_write_file(const std::string& path,
                              std::string_view contents) {
  atomic_write_file(path, {contents});
}

}  // namespace rac::util
