// srcscan: the lexical front end of the project's static checker.
//
// rac-analyze's per-line rules and its token/scope rules both need the
// same first pass over a C++ source file: comments and string literals
// identified and stripped, raw string literals (R"delim(...)delim") and
// backslash line continuations handled, and a token stream with line
// numbers for anything smarter than a per-line regex. Both views come from
// one scan, so a stripper bug cannot make one family of rules quieter than
// the other.
//
// The scanner is error-tolerant by design: an unterminated string stops at
// end of line, an unterminated block comment or raw string runs to end of
// file. It never throws on malformed input -- the worst outcome is a
// noisier (never a quieter) downstream checker.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rac::srcscan {

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // numeric literals (digit separators included)
  kString,   // string literal; text holds the *contents* (no quotes)
  kCharLit,  // character literal; text holds the contents
  kPunct,    // operators/punctuation, multi-char ops as one token ("::")
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based physical line where the token starts
};

/// One physical line of the input after stripping.
struct Line {
  /// The line with comments and string/char literal contents blanked to
  /// spaces (columns preserved), so per-line regex rules cannot fire on
  /// text that is data rather than code.
  std::string code;
  /// Concatenated comment text appearing on this physical line (from //,
  /// /* */, and line-continued // comments). Used for suppression parsing.
  std::string comment;
};

struct ScanResult {
  std::vector<Line> lines;   // lines[0] is line 1; count matches getline()
  std::vector<Token> tokens;
};

/// Scan a whole file. Handles //-comments (including backslash line
/// continuations), /* */ comments, string/char literals with escapes,
/// encoding prefixes (L"", u8""), raw string literals with custom
/// delimiters spanning lines, and digit separators (1'000 is a number, not
/// a char literal).
ScanResult scan(const std::string& contents);

/// Rule ids listed in `<marker> ... allow(a, b)` occurrences inside a
/// comment, e.g. marker "rac-analyze:": the same-line suppression syntax.
std::vector<std::string> parse_allow(const std::string& comment,
                                     std::string_view marker);

/// Tracks the same-line suppressions of one file and which of them
/// actually suppressed a finding, so stale suppressions can be reported
/// (the unused-suppression rule).
class SuppressionSet {
 public:
  SuppressionSet(const std::vector<Line>& lines, std::string_view marker);

  /// True when `rule` is allowed on `line` (1-based); marks every matching
  /// allow entry as used.
  bool allowed(int line, std::string_view rule);

  /// (line, rule-id) pairs of allow entries that never suppressed a
  /// finding, sorted by line then id. Entries that do not look like rule
  /// ids (placeholder text in documentation comments) are skipped, as is
  /// any line that also carries an `unused-suppression` allow entry.
  std::vector<std::pair<int, std::string>> unused() const;

 private:
  struct Entry {
    int line;
    std::string id;
    bool used = false;
  };
  std::vector<Entry> entries_;
};

}  // namespace rac::srcscan
