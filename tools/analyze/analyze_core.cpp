#include "analyze_core.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace rac::analyze {

namespace {

using srcscan::TokKind;
using srcscan::Token;

bool path_starts_with(std::string_view path, std::string_view prefix) {
  return path.size() >= prefix.size() &&
         path.substr(0, prefix.size()) == prefix;
}

/// The simulated subsystems, which must be reproducible from their inputs:
/// scope of the wall-clock and reachability rules.
bool reproducible_file(std::string_view relpath) {
  return path_starts_with(relpath, "src/core/") ||
         path_starts_with(relpath, "src/rl/") ||
         path_starts_with(relpath, "src/env/") ||
         path_starts_with(relpath, "src/tiersim/") ||
         path_starts_with(relpath, "src/queueing/");
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

const std::set<std::string>& call_keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",     "switch",   "catch",
      "return",   "sizeof",   "decltype",  "alignof",  "alignas",
      "noexcept", "new",      "delete",    "throw",    "co_await",
      "co_return", "co_yield", "static_assert", "assert", "defined",
      "int",      "double",   "float",     "bool",     "char",
      "long",     "short",    "unsigned",  "signed",   "void",
      "auto"};
  return kw;
}

/// Index of the matching close token, or -1. Handles only the named
/// open/close pair; `>>` counts as two closes when matching angles.
int match_forward(const std::vector<Token>& toks, std::size_t at,
                  std::string_view open, std::string_view close) {
  int depth = 0;
  for (std::size_t i = at; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == open) {
      ++depth;
    } else if (toks[i].text == close) {
      if (--depth == 0) return static_cast<int>(i);
    } else if (open == "<" && toks[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return static_cast<int>(i);
    } else if (open == "<" &&
               (toks[i].text == ";" || toks[i].text == "{")) {
      return -1;  // not a template argument list after all
    }
  }
  return -1;
}

/// Index of the '(' matching the ')' at `at`, or -1.
int match_back_paren(const std::vector<Token>& toks, std::size_t at) {
  int depth = 0;
  for (int i = static_cast<int>(at); i >= 0; --i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == ")") ++depth;
    if (toks[i].text == "(" && --depth == 0) return i;
  }
  return -1;
}

/// For a '{' at index `at`, the index of the identifier naming the
/// function whose body it opens, or -1 when the brace opens something
/// else (class, namespace, initializer, control statement, lambda --
/// lambda bodies stay attributed to their enclosing function).
int function_name_for_brace(const std::vector<Token>& toks, std::size_t at) {
  int k = static_cast<int>(at) - 1;
  int walked = 0;
  while (k >= 0 && walked < 48) {
    const Token& t = toks[k];
    if (t.kind == TokKind::kIdent &&
        (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
         t.text == "final" || t.text == "mutable" || t.text == "try")) {
      --k;
      ++walked;
      continue;
    }
    if (is_punct(t, ")")) {
      const int open = match_back_paren(toks, k);
      if (open <= 0) return -1;
      const Token& before = toks[open - 1];
      if (is_ident(before, "noexcept")) {  // noexcept(...) specifier
        k = open - 2;
        ++walked;
        continue;
      }
      if (before.kind == TokKind::kIdent &&
          !call_keywords().count(before.text)) {
        return open - 1;
      }
      return -1;
    }
    // Trailing-return-type tokens between ')' and '{'.
    if (t.kind == TokKind::kIdent || t.kind == TokKind::kNumber ||
        (t.kind == TokKind::kPunct &&
         (t.text == "->" || t.text == "::" || t.text == "<" ||
          t.text == ">" || t.text == ">>" || t.text == "&" ||
          t.text == "*" || t.text == "," || t.text == "..."))) {
      --k;
      ++walked;
      continue;
    }
    return -1;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Per-file scope-aware pass: container declarations, range-for bodies,
// parallel lambda captures, function definitions/calls/taints.
// ---------------------------------------------------------------------------

enum class VarKind { kUnordered, kOrderedAssoc };

struct CallSite {
  std::string callee;
  int line = 0;
};

struct TaintSite {
  std::string kind;  // "clock" or "rand"
  std::string what;  // the offending token
  int line = 0;
};

struct FuncRec {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<CallSite> calls;
  std::vector<TaintSite> taints;
};

struct FileAnalysis {
  std::vector<Finding> findings;   // per-file token rules
  std::vector<FuncRec> functions;  // for cross-file reachability
};

bool unordered_container_name(std::string_view id) {
  return id == "unordered_map" || id == "unordered_set" ||
         id == "unordered_multimap" || id == "unordered_multiset";
}

bool ordered_assoc_name(std::string_view id) {
  return id == "map" || id == "set" || id == "multimap" ||
         id == "multiset";
}

bool compound_assign(std::string_view op) {
  return op == "+=" || op == "-=" || op == "*=" || op == "/=" ||
         op == "%=" || op == "&=" || op == "|=" || op == "^=";
}

bool appending_method(std::string_view id) {
  return id == "push_back" || id == "emplace_back" || id == "append" ||
         id == "push";
}

bool inserting_method(std::string_view id) {
  return id == "insert" || id == "emplace";
}

bool mutating_method(std::string_view id) {
  return appending_method(id) || inserting_method(id) || id == "erase" ||
         id == "clear" || id == "resize" || id == "pop_back";
}

class FileAnalyzer {
 public:
  FileAnalyzer(const std::string& relpath, const std::vector<Token>& toks)
      : file_(relpath), toks_(toks) {}

  FileAnalysis run() {
    scopes_.emplace_back();
    prescan_container_decls();
    const bool check_unordered = path_starts_with(file_, "src/") ||
                                 path_starts_with(file_, "bench/");
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (is_punct(t, "{")) {
        open_brace(i);
        continue;
      }
      if (is_punct(t, "}")) {
        close_brace();
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;
      if (unordered_container_name(t.text) || ordered_assoc_name(t.text)) {
        try_register_container_decl(i);
      }
      if (check_unordered && t.text == "for") {
        try_range_for(i);
      }
      if (t.text == "parallel_for" || t.text == "parallel_map") {
        try_parallel_site(i);
      }
      record_call_or_taint(i);
    }
    return std::move(out_);
  }

 private:
  // --- scope bookkeeping --------------------------------------------------

  void open_brace(std::size_t at) {
    const int name_idx = function_name_for_brace(toks_, at);
    if (name_idx >= 0) {
      out_.functions.push_back(FuncRec{toks_[name_idx].text, file_,
                                       toks_[name_idx].line,
                                       {},
                                       {}});
      fn_stack_.push_back({out_.functions.size() - 1, depth_});
    }
    ++depth_;
    scopes_.emplace_back();
  }

  void close_brace() {
    if (depth_ > 0) --depth_;
    if (scopes_.size() > 1) scopes_.pop_back();
    if (!fn_stack_.empty() && fn_stack_.back().second == depth_) {
      fn_stack_.pop_back();
    }
  }

  FuncRec* current_fn() {
    if (fn_stack_.empty()) return nullptr;
    return &out_.functions[fn_stack_.back().first];
  }

  const VarKind* lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    // Fall back to the whole-file pre-pass: class members conventionally
    // sit below the methods that use them, out of lexical-scope reach.
    const auto found = file_decls_.find(name);
    return found != file_decls_.end() ? &found->second : nullptr;
  }

  /// Whole-file pass registering every container declaration by name,
  /// regardless of position. Names declared with conflicting kinds are
  /// dropped as ambiguous.
  void prescan_container_decls() {
    std::set<std::string> ambiguous;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent) continue;
      const bool unordered = unordered_container_name(toks_[i].text);
      if (!unordered && !ordered_assoc_name(toks_[i].text)) continue;
      const int name_idx = container_decl_name(i);
      if (name_idx < 0) continue;
      const std::string& name = toks_[name_idx].text;
      const VarKind kind =
          unordered ? VarKind::kUnordered : VarKind::kOrderedAssoc;
      const auto it = file_decls_.find(name);
      if (it == file_decls_.end()) {
        file_decls_.emplace(name, kind);
      } else if (it->second != kind) {
        ambiguous.insert(name);
      }
    }
    for (const auto& name : ambiguous) file_decls_.erase(name);
  }

  /// Index of the name declared by `unordered_map<...> name` (optionally
  /// `&`/`*`/const-qualified) with the container token at `at`, or -1.
  int container_decl_name(std::size_t at) const {
    std::size_t i = at + 1;
    if (i >= toks_.size() || !is_punct(toks_[i], "<")) return -1;
    const int close = match_forward(toks_, i, "<", ">");
    if (close < 0) return -1;
    i = static_cast<std::size_t>(close) + 1;
    while (i < toks_.size() &&
           (is_punct(toks_[i], "&") || is_punct(toks_[i], "*") ||
            is_ident(toks_[i], "const"))) {
      ++i;
    }
    if (i >= toks_.size() || toks_[i].kind != TokKind::kIdent) return -1;
    return static_cast<int>(i);
  }

  void try_register_container_decl(std::size_t at) {
    const int name_idx = container_decl_name(at);
    if (name_idx < 0) return;
    scopes_.back()[toks_[name_idx].text] =
        unordered_container_name(toks_[at].text) ? VarKind::kUnordered
                                                 : VarKind::kOrderedAssoc;
  }

  /// For a '.' or '->' at `j`, the method name called at the end of the
  /// member chain (`snap.lines.push_back(` resolves to "push_back"), or ""
  /// when the chain ends without a call.
  std::string terminal_method(std::size_t j, std::size_t end) const {
    while (j + 1 < end &&
           (is_punct(toks_[j], ".") || is_punct(toks_[j], "->")) &&
           toks_[j + 1].kind == TokKind::kIdent) {
      if (j + 2 < end && is_punct(toks_[j + 2], "(")) {
        return toks_[j + 1].text;
      }
      j += 2;
      while (j < end && is_punct(toks_[j], "[")) {
        const int close = match_forward(toks_, j, "[", "]");
        if (close < 0) return {};
        j = static_cast<std::size_t>(close) + 1;
      }
    }
    return {};
  }

  // --- shared body helpers ------------------------------------------------

  /// Names declared inside [begin, end): a crude but effective decl
  /// heuristic (type-ish token, then the name, then `=;{,(`), plus
  /// structured bindings.
  std::set<std::string> collect_local_decls(std::size_t begin,
                                            std::size_t end) const {
    std::set<std::string> locals;
    for (std::size_t i = begin; i < end; ++i) {
      const Token& t = toks_[i];
      if (is_punct(t, "[") && i > begin &&
          (is_ident(toks_[i - 1], "auto") || is_punct(toks_[i - 1], "&"))) {
        for (std::size_t j = i + 1;
             j < end && !is_punct(toks_[j], "]"); ++j) {
          if (toks_[j].kind == TokKind::kIdent) locals.insert(toks_[j].text);
        }
        continue;
      }
      if (t.kind != TokKind::kIdent || call_keywords().count(t.text)) {
        continue;
      }
      if (i + 1 >= end || i == begin) continue;
      const Token& next = toks_[i + 1];
      const Token& prev = toks_[i - 1];
      const bool decl_tail = is_punct(next, "=") || is_punct(next, ";") ||
                             is_punct(next, "{") || is_punct(next, "(") ||
                             is_punct(next, ",");
      const bool decl_head =
          (prev.kind == TokKind::kIdent && prev.text != "return") ||
          is_punct(prev, ">") || is_punct(prev, "&") || is_punct(prev, "*");
      if (decl_tail && decl_head) locals.insert(t.text);
    }
    return locals;
  }

  /// Consume a chain of subscripts starting at `i` (which must point at
  /// '['); returns one past the final ']' and records whether any
  /// subscript mentions `needle`.
  std::size_t consume_subscripts(std::size_t i, const std::string& needle,
                                 bool* mentions) const {
    while (i < toks_.size() && is_punct(toks_[i], "[")) {
      const int close = match_forward(toks_, i, "[", "]");
      if (close < 0) return toks_.size();
      for (std::size_t j = i + 1; j < static_cast<std::size_t>(close); ++j) {
        if (!needle.empty() && toks_[j].kind == TokKind::kIdent &&
            toks_[j].text == needle) {
          *mentions = true;
        }
      }
      i = static_cast<std::size_t>(close) + 1;
    }
    return i;
  }

  /// True when, between `from` and the end of the enclosing scope, `name`
  /// appears inside the argument list of a sort/stable_sort call: the
  /// canonical "collect then sort" fix for iteration-order bugs.
  bool sorted_afterwards(std::size_t from, const std::string& name) const {
    int depth = 0;
    for (std::size_t i = from; i < toks_.size(); ++i) {
      if (is_punct(toks_[i], "{")) ++depth;
      if (is_punct(toks_[i], "}")) {
        if (depth == 0) return false;
        --depth;
      }
      if (toks_[i].kind == TokKind::kIdent &&
          (toks_[i].text == "sort" || toks_[i].text == "stable_sort") &&
          i + 1 < toks_.size() && is_punct(toks_[i + 1], "(")) {
        const int close = match_forward(toks_, i + 1, "(", ")");
        for (std::size_t j = i + 2;
             close > 0 && j < static_cast<std::size_t>(close); ++j) {
          if (toks_[j].kind == TokKind::kIdent && toks_[j].text == name) {
            return true;
          }
        }
      }
    }
    return false;
  }

  // --- rule: unordered-iter ----------------------------------------------

  void try_range_for(std::size_t at) {
    if (at + 1 >= toks_.size() || !is_punct(toks_[at + 1], "(")) return;
    const int close = match_forward(toks_, at + 1, "(", ")");
    if (close < 0) return;
    // Top-level ':' between the parens marks a range-for ('::' is its own
    // token, so a plain ':' is unambiguous).
    int colon = -1;
    int depth = 0;
    for (std::size_t i = at + 2; i < static_cast<std::size_t>(close); ++i) {
      if (toks_[i].kind != TokKind::kPunct) continue;
      if (toks_[i].text == "(" || toks_[i].text == "[" ||
          toks_[i].text == "{") {
        ++depth;
      } else if (toks_[i].text == ")" || toks_[i].text == "]" ||
                 toks_[i].text == "}") {
        --depth;
      } else if (depth == 0 && toks_[i].text == ";") {
        return;  // classic for
      } else if (depth == 0 && toks_[i].text == ":") {
        colon = static_cast<int>(i);
        break;
      }
    }
    if (colon < 0) return;

    // Loop variable names (structured bindings included).
    std::set<std::string> loop_vars;
    for (std::size_t i = at + 2; i < static_cast<std::size_t>(colon); ++i) {
      if (toks_[i].kind == TokKind::kIdent &&
          !call_keywords().count(toks_[i].text) &&
          toks_[i].text != "const") {
        loop_vars.insert(toks_[i].text);
      }
    }

    // The iterated expression's root identifier.
    std::string root;
    for (std::size_t i = colon + 1; i < static_cast<std::size_t>(close);
         ++i) {
      if (toks_[i].kind == TokKind::kIdent) {
        root = toks_[i].text;
        break;
      }
    }
    if (root.empty()) return;
    const VarKind* kind = lookup(root);
    if (kind == nullptr || *kind != VarKind::kUnordered) return;

    // Body range.
    std::size_t body_begin = static_cast<std::size_t>(close) + 1;
    std::size_t body_end;
    if (body_begin < toks_.size() && is_punct(toks_[body_begin], "{")) {
      const int end = match_forward(toks_, body_begin, "{", "}");
      if (end < 0) return;
      body_end = static_cast<std::size_t>(end);
      ++body_begin;
    } else {
      body_end = body_begin;
      while (body_end < toks_.size() && !is_punct(toks_[body_end], ";")) {
        ++body_end;
      }
    }

    const std::set<std::string> locals =
        collect_local_decls(body_begin, body_end);
    const auto is_exempt = [&](const std::string& name) {
      return locals.count(name) || loop_vars.count(name);
    };

    for (std::size_t i = body_begin; i < body_end; ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent || call_keywords().count(t.text)) {
        continue;
      }
      if (i > 0 && (is_punct(toks_[i - 1], ".") ||
                    is_punct(toks_[i - 1], "->") ||
                    is_punct(toks_[i - 1], "::"))) {
        continue;  // handled via the base identifier
      }
      if (is_exempt(t.text)) continue;
      bool subscripted = false;
      bool dummy = false;
      std::size_t j = i + 1;
      if (j < body_end && is_punct(toks_[j], "[")) {
        subscripted = true;
        j = consume_subscripts(j, "", &dummy);
      }
      if (j >= body_end) break;
      if (toks_[j].kind == TokKind::kPunct &&
          compound_assign(toks_[j].text)) {
        out_.findings.push_back(
            {file_, t.line, "unordered-iter",
             "range-for over unordered container '" + root +
                 "' accumulates into '" + t.text + "' with " + toks_[j].text +
                 ": the result depends on hash-table iteration order; "
                 "iterate a sorted copy or accumulate order-independent "
                 "state"});
        continue;
      }
      if (!subscripted && is_punct(toks_[j], "=")) {
        bool rhs_uses_element = false;
        for (std::size_t r = j + 1;
             r < body_end && !is_punct(toks_[r], ";"); ++r) {
          if (toks_[r].kind == TokKind::kIdent &&
              loop_vars.count(toks_[r].text)) {
            rhs_uses_element = true;
            break;
          }
        }
        if (rhs_uses_element) {
          out_.findings.push_back(
              {file_, t.line, "unordered-iter",
               "range-for over unordered container '" + root +
                   "' assigns the visited element into '" + t.text +
                   "': which element wins depends on hash-table iteration "
                   "order; iterate a sorted copy or reduce with an "
                   "order-independent criterion"});
        }
        continue;
      }
      if (is_punct(toks_[j], ".") || is_punct(toks_[j], "->")) {
        const std::string method = terminal_method(j, body_end);
        const bool appends = appending_method(method);
        const bool inserts = inserting_method(method);
        if (!appends && !inserts) continue;
        const VarKind* target_kind = lookup(t.text);
        if (inserts && target_kind != nullptr &&
            *target_kind == VarKind::kOrderedAssoc) {
          continue;  // re-keying into an ordered container is a sort
        }
        if (sorted_afterwards(body_end + 1, t.text)) continue;
        out_.findings.push_back(
            {file_, t.line, "unordered-iter",
             "range-for over unordered container '" + root + "' " +
                 (appends ? "appends to" : "inserts into") + " '" + t.text +
                 "' which is never sorted afterwards: its contents will "
                 "follow hash-table iteration order (the retrain "
                 "serialization bug class); sort it or iterate a sorted "
                 "copy"});
      }
    }
  }

  // --- rule: parallel-ref-capture ----------------------------------------

  void try_parallel_site(std::size_t at) {
    if (at + 1 >= toks_.size() || !is_punct(toks_[at + 1], "(")) return;
    const int close = match_forward(toks_, at + 1, "(", ")");
    if (close < 0) return;
    for (std::size_t i = at + 2; i < static_cast<std::size_t>(close); ++i) {
      if (!is_punct(toks_[i], "[")) continue;
      // A '[' after an identifier, ')' or ']' is a subscript, not a
      // lambda introducer.
      const Token& prev = toks_[i - 1];
      if (prev.kind == TokKind::kIdent || is_punct(prev, ")") ||
          is_punct(prev, "]")) {
        continue;
      }
      i = analyze_lambda(i, static_cast<std::size_t>(close));
    }
  }

  /// Analyze the lambda whose introducer '[' sits at `lb`; returns the
  /// index to resume the enclosing scan from.
  std::size_t analyze_lambda(std::size_t lb, std::size_t limit) {
    const int rb = match_forward(toks_, lb, "[", "]");
    if (rb < 0) return limit;

    bool default_ref = false;
    std::set<std::string> ref_caps;
    for (std::size_t i = lb + 1; i < static_cast<std::size_t>(rb); ++i) {
      if (is_punct(toks_[i], "&")) {
        if (i + 1 < static_cast<std::size_t>(rb) &&
            toks_[i + 1].kind == TokKind::kIdent) {
          ref_caps.insert(toks_[i + 1].text);
          ++i;
        } else {
          default_ref = true;
        }
      }
    }

    // Parameter list.
    std::vector<std::string> params;
    std::size_t i = static_cast<std::size_t>(rb) + 1;
    if (i < toks_.size() && is_punct(toks_[i], "(")) {
      const int pc = match_forward(toks_, i, "(", ")");
      if (pc < 0) return limit;
      std::string last_ident;
      int depth = 0;
      for (std::size_t j = i + 1; j < static_cast<std::size_t>(pc); ++j) {
        if (toks_[j].kind == TokKind::kPunct) {
          if (toks_[j].text == "<" || toks_[j].text == "(") ++depth;
          if (toks_[j].text == ">" || toks_[j].text == ")") --depth;
          if (toks_[j].text == ">>") depth -= 2;
          if (depth == 0 && toks_[j].text == ",") {
            if (!last_ident.empty()) params.push_back(last_ident);
            last_ident.clear();
          }
          continue;
        }
        if (toks_[j].kind == TokKind::kIdent) last_ident = toks_[j].text;
      }
      if (!last_ident.empty()) params.push_back(last_ident);
      i = static_cast<std::size_t>(pc) + 1;
    }
    const std::string index_param = params.empty() ? "" : params.front();

    // Skip specifiers / trailing return type up to the body.
    while (i < toks_.size() && !is_punct(toks_[i], "{")) {
      if (is_punct(toks_[i], ";") || is_punct(toks_[i], ")")) return i;
      ++i;
    }
    if (i >= toks_.size()) return i;
    const int body_close = match_forward(toks_, i, "{", "}");
    if (body_close < 0) return toks_.size();
    const std::size_t body_begin = i + 1;
    const std::size_t body_end = static_cast<std::size_t>(body_close);

    const std::set<std::string> locals =
        collect_local_decls(body_begin, body_end);
    const auto by_ref = [&](const std::string& name) {
      if (locals.count(name)) return false;
      if (std::find(params.begin(), params.end(), name) != params.end()) {
        return false;
      }
      return default_ref || ref_caps.count(name) > 0;
    };
    const std::string capture_style = default_ref ? "[&]" : "[&name]";

    for (std::size_t k = body_begin; k < body_end; ++k) {
      const Token& t = toks_[k];
      if (t.kind != TokKind::kIdent || call_keywords().count(t.text)) {
        continue;
      }
      if (k > 0 && (is_punct(toks_[k - 1], ".") ||
                    is_punct(toks_[k - 1], "->") ||
                    is_punct(toks_[k - 1], "::"))) {
        continue;
      }
      if (!by_ref(t.text)) continue;

      const bool pre_incr = k > 0 && (is_punct(toks_[k - 1], "++") ||
                                      is_punct(toks_[k - 1], "--"));
      bool indexed = false;
      std::size_t j = k + 1;
      if (j < body_end && is_punct(toks_[j], "[")) {
        j = consume_subscripts(j, index_param, &indexed);
      }
      if (j >= body_end) break;

      const bool assigns =
          pre_incr ||
          (toks_[j].kind == TokKind::kPunct &&
           (toks_[j].text == "=" || compound_assign(toks_[j].text) ||
            toks_[j].text == "++" || toks_[j].text == "--"));
      std::string method;
      if (is_punct(toks_[j], ".") || is_punct(toks_[j], "->")) {
        method = terminal_method(j, body_end);
        if (!mutating_method(method)) method.clear();
      }
      if ((assigns || !method.empty()) && !indexed) {
        const std::string how =
            method.empty() ? "writes it" : "mutates it via ." + method + "()";
        out_.findings.push_back(
            {file_, t.line, "parallel-ref-capture",
             "lambda passed to parallel_for/parallel_map captures '" +
                 t.text + "' by reference (" + capture_style + ") and " +
                 how +
                 (index_param.empty()
                      ? " with no task-index parameter to disambiguate "
                        "slots"
                      : " without indexing by the task index '" +
                            index_param + "'") +
                 ": concurrent tasks race on it (TSan only catches the "
                 "schedules that interleave); write to a per-index slot "
                 "instead"});
      }
    }
    return body_end;
  }

  // --- direct reads (rand, wall-clock), calls and taints -------------------

  /// The ambient clock or randomness read the identifier at `at` starts,
  /// if any. Member calls (rng.rand(), p->time(0)) are not ambient reads,
  /// and a qualified rand is only std::rand.
  std::optional<TaintSite> ambient_read(std::size_t at) const {
    static const std::set<std::string> kClockIdents = {
        "system_clock", "gettimeofday", "clock_gettime", "localtime",
        "localtime_r",  "gmtime",       "gmtime_r",      "timespec_get"};
    static const std::set<std::string> kRandIdents = {"srand",
                                                      "random_device"};
    const Token& t = toks_[at];
    const auto punct_at = [&](std::size_t i, std::string_view text) {
      return i < toks_.size() && is_punct(toks_[i], text);
    };
    if (at > 0 && (punct_at(at - 1, ".") || punct_at(at - 1, "->"))) {
      return std::nullopt;
    }
    if (kClockIdents.count(t.text)) return TaintSite{"clock", t.text, t.line};
    if (kRandIdents.count(t.text)) return TaintSite{"rand", t.text, t.line};
    const bool called = punct_at(at + 1, "(");
    if (t.text == "rand") {
      const bool qualified = at > 0 && punct_at(at - 1, "::");
      if (qualified ? at > 1 && is_ident(toks_[at - 2], "std") : called) {
        return TaintSite{"rand", "rand()", t.line};
      }
    }
    if (t.text == "time" && called && punct_at(at + 3, ")")) {
      const Token& arg = toks_[at + 2];
      if (is_ident(arg, "nullptr") || is_ident(arg, "NULL") ||
          (arg.kind == TokKind::kNumber && arg.text == "0")) {
        return TaintSite{"clock", "time(nullptr)", t.line};
      }
    }
    return std::nullopt;
  }

  void record_call_or_taint(std::size_t at) {
    FuncRec* fn = current_fn();
    const Token& t = toks_[at];
    if (const auto read = ambient_read(at)) {
      const bool is_rand = read->kind == "rand";
      if (is_rand ? !path_starts_with(file_, "src/util/rng.")
                  : reproducible_file(file_)) {
        out_.findings.push_back(
            {file_, t.line, is_rand ? "rand" : "wall-clock",
             is_rand ? "nondeterministic randomness; use the seeded "
                       "util::Rng (util::derive_seed for per-task streams)"
                     : "wall-clock read in a reproducible subsystem; time "
                       "must come from the simulation clock or the caller"});
      }
      if (fn != nullptr) fn->taints.push_back(*read);
      return;
    }
    if (fn != nullptr && at + 1 < toks_.size() &&
        is_punct(toks_[at + 1], "(") && !call_keywords().count(t.text)) {
      fn->calls.push_back({t.text, t.line});
    }
  }

  const std::string& file_;
  const std::vector<Token>& toks_;
  std::map<std::string, VarKind> file_decls_;
  std::vector<std::map<std::string, VarKind>> scopes_;
  std::vector<std::pair<std::size_t, int>> fn_stack_;  // (fn index, depth)
  int depth_ = 0;
  FileAnalysis out_;
};

// ---------------------------------------------------------------------------
// Cross-file clock/rand reachability.
// ---------------------------------------------------------------------------

/// Files whose direct clock/rand reads are design-sanctioned and must not
/// seed taint: instrumentation, the log timestamp, and the seeded RNG.
bool taint_exempt_file(std::string_view relpath) {
  return path_starts_with(relpath, "src/obs/") ||
         path_starts_with(relpath, "src/util/log.") ||
         path_starts_with(relpath, "src/util/rng.");
}

/// Taint may originate and propagate anywhere in src/ (wrappers live in
/// util); call sites are only *reported* in the reproducible subsystems.
bool taint_source_file(std::string_view relpath) {
  return path_starts_with(relpath, "src/") && !taint_exempt_file(relpath);
}

struct TaintWitness {
  std::string kind;   // "clock" or "rand"
  std::string chain;  // "wrapper (file:line) -> ... -> system_clock"
};

std::vector<Finding> reachability_findings(
    const std::map<std::string, FileAnalysis>& by_file) {
  // Seed: functions in eligible files whose bodies read clocks/rand.
  std::map<std::string, TaintWitness> tainted;
  for (const auto& [file, analysis] : by_file) {
    if (!taint_source_file(file)) continue;
    for (const auto& fn : analysis.functions) {
      if (fn.taints.empty() || tainted.count(fn.name)) continue;
      const TaintSite& site = fn.taints.front();
      tainted.emplace(fn.name,
                      TaintWitness{site.kind,
                                   fn.name + " (" + file + ":" +
                                       std::to_string(site.line) + ") -> " +
                                       site.what});
    }
  }

  // Fixpoint: a function calling a tainted name becomes tainted.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [file, analysis] : by_file) {
      if (!taint_source_file(file)) continue;
      for (const auto& fn : analysis.functions) {
        if (tainted.count(fn.name)) continue;
        for (const auto& call : fn.calls) {
          const auto it = tainted.find(call.callee);
          if (it == tainted.end()) continue;
          tainted.emplace(fn.name,
                          TaintWitness{it->second.kind,
                                       fn.name + " (" + file + ":" +
                                           std::to_string(fn.line) +
                                           ") -> " + it->second.chain});
          changed = true;
          break;
        }
      }
    }
  }

  std::vector<Finding> findings;
  for (const auto& [file, analysis] : by_file) {
    if (!reproducible_file(file)) continue;
    for (const auto& fn : analysis.functions) {
      for (const auto& call : fn.calls) {
        const auto it = tainted.find(call.callee);
        if (it == tainted.end()) continue;
        const bool clock = it->second.kind == "clock";
        findings.push_back(
            {file, call.line,
             clock ? "clock-reachability" : "rand-reachability",
             "call to '" + call.callee + "' reaches " +
                 (clock ? "a wall-clock read" : "ambient randomness") +
                 " through " + it->second.chain +
                 (clock ? "; reproducible subsystems must take time from "
                          "the simulation clock or the caller"
                        : "; derive randomness from the seeded util::Rng "
                          "instead")});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Per-line convention rules over the stripped (or, where a rule inspects
// string-literal contents, the raw) lines.
// ---------------------------------------------------------------------------

struct LineRule {
  std::string_view id;
  std::regex pattern;
  std::string_view message;
  /// Empty: applies everywhere. Otherwise the file must be under one of
  /// these prefixes for the rule to fire.
  std::vector<std::string_view> only_under{};
  /// Files exempt from the rule (exact relpath or directory prefix).
  std::vector<std::string_view> except_under{};
  /// Match the raw line instead of the stripped one; such patterns must be
  /// anchored tightly enough not to fire inside comments.
  bool match_raw = false;
};

const std::vector<LineRule>& line_rules() {
  static const std::string kFloatLit =
      R"((\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fFlL]?)";
  // Scoped to src/: a CLI binary under tools/, bench/ or examples/ owns the
  // process, its stdout, and may report from the default registry.
  static const std::vector<LineRule> rules = {
      {"default-registry", std::regex(R"(\bdefault_registry\b)"),
       "default_registry() referenced outside src/obs/; take an "
       "obs::Registry* and resolve via obs::registry_or_default",
       {"src/"}, {"src/obs/"}},
      {"raw-assert",
       std::regex(R"((^|[^\w])assert\s*\(|#\s*include\s*<cassert>)"),
       "raw assert in library code (vanishes under NDEBUG); use "
       "RAC_EXPECT/RAC_ENSURE/RAC_INVARIANT from util/contracts.hpp"},
      {"iostream", std::regex(R"(\bstd\s*::\s*(cout|cerr|clog)\b)"),
       "direct console I/O in library code; report via return values, "
       "exceptions, or util::log_warn",
       {"src/"}, {"src/util/log.cpp"}},
      {"include-hygiene", std::regex(R"(^\s*#\s*include\s*"[^"]*\.\./)"),
       "path-traversing include; project includes are rooted at src/",
       {}, {}, /*match_raw=*/true},
      {"locale-io",
       std::regex(
           R"(\bstd\s*::\s*(stod|stof|stold)\b|\b(strtod|strtof|strtold|atof)\s*\(|\bsetlocale\s*\()"),
       "locale-sensitive numeric parsing (result depends on the process "
       "locale); use util/lineio parse_double/std::from_chars"},
      // printf/scanf-family calls with a floating-point conversion in the
      // format string, which stripping blanks: needs the raw line.
      {"locale-io",
       std::regex(
           R"(\b((f|s|sn|v|vf|vs|vsn)?printf|(f|s|v|vf|vs)?scanf)\s*\(.*"[^"]*%[-+ #'0-9.*]*(l|L)?[aAeEfFgG])"),
       "locale-sensitive printf/scanf float conversion (output depends on "
       "the process locale); use util/lineio format_double/std::to_chars",
       {}, {}, /*match_raw=*/true},
      {"unchecked-measure", std::regex(R"((\.|->)\s*measure\s*\()"),
       "direct Environment::measure() in the online management loop; "
       "use measure_interval() and check its `lost` flag so a lost "
       "interval degrades gracefully, or justify an offline/bootstrap "
       "probe with a suppression",
       {"src/core/"}},
      {"untracked-timer",
       std::regex(R"(\b(steady_clock|high_resolution_clock)\s*::\s*now\s*\()"),
       "raw clock read in library code; time phases with obs::ProfileScope "
       "(pass it a Histogram to also export a latency metric) so the work "
       "shows up in bench reports, or justify with a suppression",
       {"src/"}, {"src/obs/"}},
      {"hot-path-alloc",
       std::regex(
           R"(\bnew\b|\bmake_unique\s*<|\bmake_shared\s*<|\bunordered_(map|set)\s*<|\bstd\s*::\s*(map|set|list|multimap|multiset)\s*<)"),
       "per-element heap allocation in a hot-path subsystem (operator "
       "new, make_unique/make_shared, or a node-based container); use "
       "flat/arena storage, or justify a cold-path site with a "
       "suppression",
       {"src/queueing/", "src/tiersim/", "src/rl/"}},
      {"float-eq",
       std::regex(R"((==|!=)\s*[-+]?)" + kFloatLit + "|" + kFloatLit +
                  R"(\s*(==|!=))"),
       "exact floating-point comparison against a literal; compare with a "
       "tolerance or justify with a suppression"},
      // Bitwise determinism at any RAC_THREADS needs every pool thread to
      // compute in one FP mode; the MVA recursion's scoped flush guard is
      // the one writer, and it restores the caller's mode on exit.
      {"fp-env",
       std::regex(
           R"(\b(_mm_setcsr|_MM_SET_FLUSH_ZERO_MODE|_MM_SET_DENORMALS_ZERO_MODE|fesetenv|feupdateenv|fesetround)\b)"),
       "floating-point environment write in library code; pool threads "
       "must all compute in one FP mode, so only the MVA recursion's "
       "scoped guard in src/queueing/mva.cpp sets it",
       {"src/"}, {"src/queueing/mva.cpp"}},
  };
  return rules;
}

bool rule_applies(const LineRule& rule, std::string_view relpath) {
  for (const auto& exempt : rule.except_under) {
    if (path_starts_with(relpath, exempt)) return false;
  }
  if (rule.only_under.empty()) return true;
  for (const auto& prefix : rule.only_under) {
    if (path_starts_with(relpath, prefix)) return true;
  }
  return false;
}

/// Line-rule and pragma-once findings for one file (before suppression).
std::vector<Finding> line_findings(const SourceFile& file,
                                   const srcscan::ScanResult& scanned) {
  const std::string& relpath = file.relpath;
  std::vector<Finding> findings;
  std::istringstream in(file.contents);
  std::string raw;
  for (std::size_t i = 0;
       i < scanned.lines.size() && std::getline(in, raw); ++i) {
    const std::string& code = scanned.lines[i].code;
    for (const auto& rule : line_rules()) {
      if (!rule_applies(rule, relpath)) continue;
      const std::string& target = rule.match_raw ? raw : code;
      for (auto it = std::sregex_iterator(target.begin(), target.end(),
                                          rule.pattern);
           it != std::sregex_iterator(); ++it) {
        findings.push_back({relpath, static_cast<int>(i) + 1,
                            std::string(rule.id), std::string(rule.message)});
      }
    }
  }
  // A header's first tokens must be `#pragma once`; report at the first
  // token's line.
  const std::vector<Token>& toks = scanned.tokens;
  const bool header = relpath.ends_with(".hpp") || relpath.ends_with(".h");
  if (header && !(toks.size() >= 3 && is_punct(toks[0], "#") &&
                  is_ident(toks[1], "pragma") && is_ident(toks[2], "once"))) {
    findings.push_back({relpath, toks.empty() ? 1 : toks[0].line,
                        "pragma-once",
                        "header does not open with #pragma once"});
  }
  return findings;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> info = {
      {"rand", "randomness outside util::Rng (determinism)"},
      {"wall-clock", "wall-clock reads in simulated subsystems"},
      {"clock-reachability",
       "wall-clock read reachable through helpers in a reproducible "
       "subsystem"},
      {"rand-reachability",
       "ambient randomness reachable through helpers in a reproducible "
       "subsystem"},
      {"unordered-iter",
       "order-dependent work in a range-for over an unordered container"},
      {"parallel-ref-capture",
       "parallel lambda writes by-ref state not indexed by the task index"},
      {"include-cycle", "quoted-include cycle among project files"},
      {"layer-unknown", "src/ module not declared in layers.manifest"},
      {"layer-order", "module includes a module from a higher layer"},
      {"layer-edge", "module include edge not declared in layers.manifest"},
      {"layer-cycle", "cycle in the observed module dependency graph"},
      {"default-registry", "default_registry() pinned outside src/obs/"},
      {"raw-assert", "assert() in library code; use contract macros"},
      {"iostream", "std::cout/cerr/clog in library code; use util::log_warn"},
      {"pragma-once", "headers must open with #pragma once"},
      {"include-hygiene", "no path-traversing quoted includes"},
      {"locale-io", "locale-sensitive numeric I/O; use util/lineio"},
      {"untracked-timer",
       "raw steady/high_resolution clock reads in src/ outside obs/"},
      {"hot-path-alloc",
       "per-element heap allocation in src/{queueing,tiersim,rl}"},
      {"float-eq", "exact float comparison against a literal"},
      {"unchecked-measure",
       "raw measure() in src/core/; use measure_interval or suppress"},
      {"fp-env",
       "FP-environment writes in src/ outside the MVA recursion's guard"},
      {"unused-suppression",
       "allow() comment that suppresses no findings; remove it"},
  };
  return info;
}

std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const Manifest* manifest) {
  std::vector<const SourceFile*> ordered;
  ordered.reserve(files.size());
  for (const auto& f : files) ordered.push_back(&f);
  std::sort(ordered.begin(), ordered.end(),
            [](const SourceFile* a, const SourceFile* b) {
              return a->relpath < b->relpath;
            });

  std::map<std::string, srcscan::ScanResult> scans;
  IncludeGraph graph;
  for (const SourceFile* f : ordered) {
    auto scanned = srcscan::scan(f->contents);
    graph.add_file(f->relpath, scanned.tokens);
    scans.emplace(f->relpath, std::move(scanned));
  }
  graph.resolve();

  std::vector<Finding> findings = graph.find_cycles();
  if (manifest != nullptr) {
    auto layer_findings = graph.check_layers(*manifest);
    findings.insert(findings.end(), layer_findings.begin(),
                    layer_findings.end());
  }

  std::map<std::string, FileAnalysis> by_file;
  for (const SourceFile* f : ordered) {
    const srcscan::ScanResult& scanned = scans.at(f->relpath);
    auto lines = line_findings(*f, scanned);
    findings.insert(findings.end(), lines.begin(), lines.end());
    FileAnalyzer analyzer(f->relpath, scanned.tokens);
    auto analysis = analyzer.run();
    findings.insert(findings.end(), analysis.findings.begin(),
                    analysis.findings.end());
    by_file.emplace(f->relpath, std::move(analysis));
  }

  auto reach = reachability_findings(by_file);
  findings.insert(findings.end(), reach.begin(), reach.end());

  // Same-line suppressions, then the unused-suppression sweep.
  std::map<std::string, srcscan::SuppressionSet> suppressions;
  for (const auto& [file, scanned] : scans) {
    suppressions.emplace(
        file, srcscan::SuppressionSet(scanned.lines, "rac-analyze:"));
  }
  std::vector<Finding> kept;
  for (auto& finding : findings) {
    auto it = suppressions.find(finding.file);
    if (it != suppressions.end() &&
        it->second.allowed(finding.line, finding.rule)) {
      continue;
    }
    kept.push_back(std::move(finding));
  }
  for (auto& [file, supp] : suppressions) {
    for (const auto& [line, id] : supp.unused()) {
      kept.push_back(Finding{file, line, "unused-suppression",
                             "suppression allow(" + id +
                                 ") matched no finding on this line; "
                                 "remove it"});
    }
  }

  std::sort(kept.begin(), kept.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return kept;
}

std::vector<SourceFile> load_tree(const std::filesystem::path& root,
                                  const std::vector<std::string>& subdirs) {
  std::vector<SourceFile> out;
  const auto load = [&](const std::filesystem::path& path,
                        const std::string& relpath) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("rac-analyze: cannot open " + path.string());
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out.push_back(SourceFile{relpath, buffer.str()});
  };
  for (const auto& subdir : subdirs) {
    const std::filesystem::path dir = root / subdir;
    if (std::filesystem::is_regular_file(dir)) {
      load(dir, subdir);
      continue;
    }
    if (!std::filesystem::is_directory(dir)) {
      throw std::runtime_error("rac-analyze: no such directory: " +
                               dir.string());
    }
    std::vector<std::filesystem::path> paths;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      load(path, std::filesystem::relative(path, root).generic_string());
    }
  }
  return out;
}

std::map<std::string, std::set<std::string>> observed_module_deps(
    const std::vector<SourceFile>& files) {
  IncludeGraph graph;
  for (const auto& f : files) {
    graph.add_file(f.relpath, srcscan::scan(f.contents).tokens);
  }
  graph.resolve();
  return graph.module_deps();
}

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "{\"count\": " + std::to_string(findings.size()) +
                    ", \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"file\": \"";
    append_json_escaped(out, findings[i].file);
    out += "\", \"line\": " + std::to_string(findings[i].line) +
           ", \"rule\": \"";
    append_json_escaped(out, findings[i].rule);
    out += "\", \"message\": \"";
    append_json_escaped(out, findings[i].message);
    out += "\"}";
  }
  out += "]}";
  return out;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  std::string out =
      "{\"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\", "
      "\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": "
      "{\"name\": \"rac-analyze\", \"informationUri\": "
      "\"tools/analyze\", \"rules\": [";
  const auto& table = rules();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"id\": \"";
    append_json_escaped(out, table[i].id);
    out += "\", \"shortDescription\": {\"text\": \"";
    append_json_escaped(out, table[i].summary);
    out += "\"}}";
  }
  out += "]}}, \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"ruleId\": \"";
    append_json_escaped(out, findings[i].rule);
    out += "\", \"level\": \"error\", \"message\": {\"text\": \"";
    append_json_escaped(out, findings[i].message);
    out +=
        "\"}, \"locations\": [{\"physicalLocation\": "
        "{\"artifactLocation\": {\"uri\": \"";
    append_json_escaped(out, findings[i].file);
    out += "\"}, \"region\": {\"startLine\": " +
           std::to_string(findings[i].line) + "}}}]}";
  }
  out += "]}]}";
  return out;
}

std::string to_text(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

}  // namespace rac::analyze
