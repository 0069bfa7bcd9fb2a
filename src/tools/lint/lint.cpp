#include "tools/lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

// llamp-lint is deliberately a tokenizer, not a compiler: it strips
// comments and literals with a small state machine, then matches identifier
// tokens with just enough context (previous token, next character) to
// enforce the repo's named invariants.  No AST means no build dependency,
// sub-second runs, and rules that are simple enough to byte-pin — the
// trade-off is that every rule must tolerate an `allow()` escape hatch for
// the cases a tokenizer cannot judge.

namespace llamp::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule catalogue.
// ---------------------------------------------------------------------------

constexpr const char* kDetRand = "det-rand";
constexpr const char* kDetClock = "det-clock";
constexpr const char* kDetUnordered = "det-unordered";
constexpr const char* kHotAlloc = "hot-alloc";
constexpr const char* kHotMetric = "hot-metric";
constexpr const char* kHotRegion = "hot-region";
constexpr const char* kPragmaOnce = "hyg-pragma-once";
constexpr const char* kUsingNamespace = "hyg-using-namespace";
constexpr const char* kIostream = "hyg-iostream";
constexpr const char* kSuppression = "lint-suppression";

// ---------------------------------------------------------------------------
// File classification: which file-scoped rules apply where.
// ---------------------------------------------------------------------------

struct FileClass {
  bool header = false;        ///< *.hpp
  bool clock_exempt = false;  ///< util/time.hpp, bench/: may read clocks
  bool print_exempt = false;  ///< src/tools/, util/cli.cpp: may use cout/cerr
  bool emitter = false;       ///< byte-determinism-critical serialization
  bool hot_designated = false;  ///< must contain >= 1 hot-path region
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Emitters and (de)serializers whose output bytes are golden-pinned: their
/// iteration order must never depend on hash-table layout.
bool is_emitter_path(std::string_view rel) {
  static const std::set<std::string_view> exact = {
      "src/api/batch.cpp",   "src/api/request.cpp", "src/core/report.cpp",
      "src/core/report.hpp", "src/util/json.cpp",   "src/util/json.hpp",
      "src/util/table.cpp",  "src/util/table.hpp",
  };
  if (exact.count(rel) != 0) return true;
  // Wire formats (trace_io) follow the *_io naming convention.
  return ends_with(rel, "_io.cpp") || ends_with(rel, "_io.hpp");
}

FileClass classify(std::string_view rel) {
  FileClass fc;
  fc.header = ends_with(rel, ".hpp");
  fc.clock_exempt =
      rel == "src/util/time.hpp" || rel.substr(0, 6) == "bench/";
  fc.print_exempt =
      rel.substr(0, 10) == "src/tools/" || rel == "src/util/cli.cpp";
  fc.emitter = is_emitter_path(rel);
  fc.hot_designated = rel == "src/lp/parametric.cpp" ||
                      rel == "src/lp/batch.cpp" || rel == "src/stoch/mc.cpp";
  return fc;
}

// ---------------------------------------------------------------------------
// Comment / literal stripping.
// ---------------------------------------------------------------------------

/// One physical line after the stripper: `code` has every comment and
/// literal body replaced by spaces (columns preserved, so token context
/// checks see the original layout); `comments` holds the comment text for
/// directive parsing.
struct Line {
  std::string code;
  std::vector<std::string> comments;
};

std::vector<Line> strip(const std::string& content) {
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  std::vector<Line> lines(1);
  St st = St::kCode;
  std::string raw_delim;        // the `delim)` terminator of a raw string
  std::string* comment = nullptr;
  auto code = [&]() -> std::string& { return lines.back().code; };
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      lines.emplace_back();
      comment = nullptr;
      if (st == St::kBlockComment) {
        // A block comment spanning lines keeps accumulating text, one
        // comments[] entry per physical line.
        lines.back().comments.emplace_back();
        comment = &lines.back().comments.back();
      }
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          lines.back().comments.emplace_back();
          comment = &lines.back().comments.back();
          code() += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          lines.back().comments.emplace_back();
          comment = &lines.back().comments.back();
          code() += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (code().empty() || !(std::isalnum(static_cast<unsigned char>(
                                            code().back())) ||
                                        code().back() == '_'))) {
          // R"delim( ... )delim"
          std::size_t j = i + 2;
          raw_delim = ")";
          while (j < content.size() && content[j] != '(') {
            raw_delim += content[j++];
          }
          raw_delim += '"';
          st = St::kRaw;
          code() += "R\"";
          i = j;  // at '(' (or end)
        } else if (c == '"') {
          st = St::kString;
          code() += '"';
        } else if (c == '\'') {
          st = St::kChar;
          code() += '\'';
        } else {
          code() += c;
        }
        break;
      case St::kLineComment:
        *comment += c;
        code() += ' ';
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          comment = nullptr;
          code() += "  ";
          ++i;
        } else {
          *comment += c;
          code() += ' ';
        }
        break;
      case St::kString:
        if (c == '\\') {
          code() += "  ";
          ++i;
          if (next == '\0') break;
        } else if (c == '"') {
          st = St::kCode;
          code() += '"';
        } else {
          code() += ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          code() += "  ";
          ++i;
          if (next == '\0') break;
        } else if (c == '\'') {
          st = St::kCode;
          code() += '\'';
        } else {
          code() += ' ';
        }
        break;
      case St::kRaw:
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          st = St::kCode;
          code() += '"';
          i += raw_delim.size() - 1;
        } else {
          code() += ' ';
        }
        break;
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Token helpers on stripped code lines.
// ---------------------------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Call fn(name, begin, end) for every identifier token on `code`.
template <typename Fn>
void for_each_ident(std::string_view code, Fn&& fn) {
  std::size_t i = 0;
  while (i < code.size()) {
    if (ident_char(code[i]) &&
        !std::isdigit(static_cast<unsigned char>(code[i]))) {
      std::size_t j = i;
      while (j < code.size() && ident_char(code[j])) ++j;
      fn(code.substr(i, j - i), i, j);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(code[i]))) {
      while (i < code.size() && ident_char(code[i])) ++i;  // skip numbers
    } else {
      ++i;
    }
  }
}

char next_nonspace(std::string_view code, std::size_t from) {
  while (from < code.size() &&
         std::isspace(static_cast<unsigned char>(code[from]))) {
    ++from;
  }
  return from < code.size() ? code[from] : '\0';
}

/// True when the identifier ending at `end` is called with one of `args` as
/// its sole argument, e.g. `time(nullptr)`.
bool called_with(std::string_view code, std::size_t end,
                 const std::vector<std::string_view>& args) {
  std::size_t i = end;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  if (i >= code.size() || code[i] != '(') return false;
  ++i;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  for (const std::string_view a : args) {
    if (code.compare(i, a.size(), a) == 0 &&
        next_nonspace(code, i + a.size()) == ')') {
      return true;
    }
  }
  return false;
}

/// True when the identifier ending at `end` is called with a string
/// literal as its first argument, e.g. `counter("name")`.  The stripper
/// blanks literal bodies but keeps their quote characters, so the check is
/// one '(' followed by one '"'.
bool called_with_string_literal(std::string_view code, std::size_t end) {
  std::size_t i = end;
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  if (i >= code.size() || code[i] != '(') return false;
  return next_nonspace(code, i + 1) == '"';
}

/// The identifier scope-qualifying the token at `begin` (empty when it is
/// not `X::`-qualified), e.g. "steady_clock" for the `now` of
/// `steady_clock::now()`.
std::string_view scope_qualifier(std::string_view code, std::size_t begin) {
  std::size_t i = begin;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  if (i < 2 || code[i - 1] != ':' || code[i - 2] != ':') return {};
  i -= 2;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  std::size_t j = i;
  while (j > 0 && ident_char(code[j - 1])) --j;
  return code.substr(j, i - j);
}

/// Does `qual` name a wall/steady clock type?  Catches `chrono` itself plus
/// anything ending in "clock" ("steady_clock", bench-style `Clock` aliases).
bool clock_qualifier(std::string_view qual) {
  if (qual == "chrono") return true;
  if (qual.size() < 5) return false;
  std::string tail(qual.substr(qual.size() - 5));
  for (char& c : tail) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return tail == "clock";
}

/// True when the token beginning at `begin` is qualified as `std::` (or a
/// bare leading `::`), e.g. `std::string`, `std::cout`.
bool std_qualified(std::string_view code, std::size_t begin) {
  std::size_t i = begin;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  if (i < 2 || code[i - 1] != ':' || code[i - 2] != ':') return false;
  i -= 2;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  if (i >= 3 && code.compare(i - 3, 3, "std") == 0 &&
      (i == 3 || !ident_char(code[i - 4]))) {
    return true;
  }
  // A bare `::cout` (global qualification) still counts.
  return i == 0 || !ident_char(code[i - 1]);
}

// ---------------------------------------------------------------------------
// Directives: `// llamp-lint: ...`.
// ---------------------------------------------------------------------------

struct Allow {
  std::string rule;
  bool reasoned = false;
  int line = 0;      ///< directive line
  int covers = 0;    ///< line whose findings it may suppress
  bool used = false;
  bool known = true;
};

struct Directives {
  std::vector<Allow> allows;
  std::vector<int> region_begin;   // lines of `hot-path begin`
  std::vector<int> region_end;     // lines of `hot-path end`
  std::vector<Finding> findings;   // malformed / unknown directives
};

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_catalogue()) {
    // The suppressor cannot suppress itself, or stale allows could hide.
    if (id == r.id && id != std::string(kSuppression)) return true;
  }
  return false;
}

void parse_directive(const std::string& file, int line, bool code_blank,
                     std::string_view text, Directives& out) {
  // A directive must open its comment ("// llamp-lint: ..."); mentions of
  // the marker mid-prose (docs, this file) are not directives.
  std::size_t pos = 0;
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  if (text.compare(pos, 11, "llamp-lint:") != 0) return;
  std::string_view rest = text.substr(pos + 11);
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front()))) {
    rest.remove_prefix(1);
  }
  if (rest.substr(0, 14) == "hot-path begin") {
    out.region_begin.push_back(line);
    return;
  }
  if (rest.substr(0, 12) == "hot-path end") {
    out.region_end.push_back(line);
    return;
  }
  if (rest.substr(0, 6) == "allow(") {
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      out.findings.push_back({file, line, kSuppression,
                              "malformed allow(): missing ')'"});
      return;
    }
    Allow a;
    a.rule = std::string(rest.substr(6, close - 6));
    a.line = line;
    // An allow on its own line covers the next line; inline, its own.
    a.covers = code_blank ? line + 1 : line;
    std::string_view reason = rest.substr(close + 1);
    while (!reason.empty() &&
           (std::isspace(static_cast<unsigned char>(reason.front())) ||
            reason.front() == ':' || reason.front() == '-')) {
      reason.remove_prefix(1);
    }
    a.reasoned = !reason.empty();
    a.known = known_rule(a.rule);
    if (!a.known) {
      out.findings.push_back(
          {file, line, kSuppression,
           "allow(" + a.rule + "): unknown rule id"});
    } else if (!a.reasoned) {
      out.findings.push_back(
          {file, line, kSuppression,
           "allow(" + a.rule + ") requires a reason, e.g. "
           "// llamp-lint: allow(" + a.rule + "): <why this is safe>"});
    }
    out.allows.push_back(std::move(a));
    return;
  }
  out.findings.push_back(
      {file, line, kSuppression,
       "unrecognized llamp-lint directive: '" + std::string(rest) + "'"});
}

// ---------------------------------------------------------------------------
// The checker proper.
// ---------------------------------------------------------------------------

const std::set<std::string_view>& rand_idents() {
  static const std::set<std::string_view> s = {
      "rand",    "srand",   "rand_r",        "drand48",
      "lrand48", "mrand48", "random_device",
  };
  return s;
}

const std::set<std::string_view>& hot_alloc_idents() {
  static const std::set<std::string_view> s = {
      "new",         "make_unique", "make_shared", "push_back",
      "emplace_back", "resize",     "reserve",
  };
  return s;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> rules = {
      {"det-rand",
       "non-deterministic randomness (rand/srand/random_device/"
       "time-seeding); use the seedable llamp::Rng"},
      {"det-clock",
       "wall/steady clock read (::now()) outside util/time.hpp and bench "
       "code; results must not depend on when they run"},
      {"det-unordered",
       "unordered container in an emitter/serialization file; iteration "
       "order is unspecified and golden bytes would vary by libc++"},
      {"hot-alloc",
       "allocation in a '// llamp-lint: hot-path' region (new/make_unique/"
       "make_shared/push_back/emplace_back/resize/reserve/std::string)"},
      {"hot-metric",
       "metric registration (counter(\"name\")-style string lookup) in a "
       "hot-path region; record through a pre-registered handle"},
      {"hot-region",
       "hot-path region marker hygiene (unterminated/unmatched begin-end, "
       "designated file without a region)"},
      {"hyg-pragma-once", "header does not open with #pragma once"},
      {"hyg-using-namespace", "using namespace at header scope"},
      {"hyg-iostream",
       "std::cout/std::cerr outside src/tools/ and src/util/cli.cpp; "
       "library code reports through return values and errors"},
      {"lint-suppression",
       "suppression hygiene (unknown rule id, missing reason, unused or "
       "malformed allow())"},
  };
  return rules;
}

std::vector<Finding> lint_file(const std::string& relpath,
                               const std::string& content) {
  const FileClass fc = classify(relpath);
  const std::vector<Line> lines = strip(content);

  Directives dirs;
  std::vector<bool> blank(lines.size());
  for (std::size_t li = 0; li < lines.size(); ++li) {
    blank[li] = lines[li].code.find_first_not_of(" \t") == std::string::npos;
    for (const std::string& c : lines[li].comments) {
      parse_directive(relpath, static_cast<int>(li) + 1, blank[li], c, dirs);
    }
  }
  // An own-line allow() covers the next *code* line, so a suppression
  // comment may wrap across several comment lines.
  for (Allow& a : dirs.allows) {
    if (a.covers > a.line) {
      std::size_t li = static_cast<std::size_t>(a.covers) - 1;
      while (li < lines.size() && blank[li]) ++li;
      a.covers = static_cast<int>(li) + 1;
    }
  }

  // Resolve hot-path regions from the begin/end marker streams.
  std::vector<Finding> raw;
  std::vector<std::pair<int, int>> regions;  // [begin_line, end_line]
  {
    std::size_t bi = 0;
    std::size_t ei = 0;
    int open = 0;
    while (bi < dirs.region_begin.size() || ei < dirs.region_end.size()) {
      const int b = bi < dirs.region_begin.size() ? dirs.region_begin[bi]
                                                  : INT32_MAX;
      const int e =
          ei < dirs.region_end.size() ? dirs.region_end[ei] : INT32_MAX;
      if (b < e) {
        if (open != 0) {
          raw.push_back({relpath, b, kHotRegion,
                         "nested 'hot-path begin' (previous region still "
                         "open)"});
        } else {
          open = b;
        }
        ++bi;
      } else {
        if (open == 0) {
          raw.push_back({relpath, e, kHotRegion,
                         "'hot-path end' without a matching begin"});
        } else {
          regions.emplace_back(open, e);
          open = 0;
        }
        ++ei;
      }
    }
    if (open != 0) {
      raw.push_back({relpath, open, kHotRegion,
                     "unterminated hot-path region (missing "
                     "'// llamp-lint: hot-path end')"});
      regions.emplace_back(open, static_cast<int>(lines.size()));
    }
  }
  if (fc.hot_designated && dirs.region_begin.empty()) {
    raw.push_back({relpath, 1, kHotRegion,
                   "designated hot-path file has no "
                   "'// llamp-lint: hot-path begin' region"});
  }
  const auto in_region = [&](int line) {
    for (const auto& [b, e] : regions) {
      if (line > b && line < e) return true;
    }
    return false;
  };

  // #pragma once: the first code on a header must be exactly that.
  if (fc.header) {
    bool seen_code = false;
    for (std::size_t li = 0; li < lines.size() && !seen_code; ++li) {
      std::string_view code = lines[li].code;
      const std::size_t first = code.find_first_not_of(" \t");
      if (first == std::string_view::npos) continue;
      seen_code = true;
      std::string compact;
      for (const char c : code) {
        if (!std::isspace(static_cast<unsigned char>(c))) compact += c;
      }
      if (compact != "#pragmaonce") {
        raw.push_back({relpath, static_cast<int>(li) + 1, kPragmaOnce,
                       "header must open with #pragma once"});
      }
    }
    if (!seen_code) {
      raw.push_back({relpath, 1, kPragmaOnce,
                     "header must open with #pragma once"});
    }
  }

  // Token rules, line by line.
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const int line = static_cast<int>(li) + 1;
    const std::string_view code = lines[li].code;
    std::string prev_ident;
    for_each_ident(code, [&](std::string_view tok, std::size_t begin,
                             std::size_t end) {
      if (rand_idents().count(tok) != 0) {
        raw.push_back({relpath, line, kDetRand,
                       "'" + std::string(tok) +
                           "' is not seed-reproducible; use llamp::Rng"});
      } else if (tok == "time" &&
                 called_with(code, end, {"0", "NULL", "nullptr"})) {
        raw.push_back({relpath, line, kDetRand,
                       "time(...) seeding is not reproducible; use a fixed "
                       "or caller-provided seed"});
      } else if (tok == "now" && !fc.clock_exempt &&
                 clock_qualifier(scope_qualifier(code, begin)) &&
                 next_nonspace(code, end) == '(') {
        raw.push_back({relpath, line, kDetClock,
                       "clock read '::now()' outside util/time.hpp and "
                       "bench code"});
      } else if ((tok == "unordered_map" || tok == "unordered_set") &&
                 fc.emitter) {
        raw.push_back({relpath, line, kDetUnordered,
                       "'" + std::string(tok) +
                           "' in an emitter file: iteration order is "
                           "unspecified; use std::map or a sorted vector"});
      } else if (tok == "namespace" && prev_ident == "using" && fc.header) {
        raw.push_back({relpath, line, kUsingNamespace,
                       "'using namespace' in a header leaks into every "
                       "includer"});
      } else if ((tok == "cout" || tok == "cerr") && !fc.print_exempt &&
                 std_qualified(code, begin)) {
        raw.push_back({relpath, line, kIostream,
                       "'std::" + std::string(tok) +
                           "' outside src/tools/ and src/util/cli.cpp"});
      } else if (in_region(line)) {
        if (hot_alloc_idents().count(tok) != 0) {
          raw.push_back({relpath, line, kHotAlloc,
                         "'" + std::string(tok) +
                             "' allocates in a hot-path region"});
        } else if (tok == "string" && std_qualified(code, begin)) {
          raw.push_back({relpath, line, kHotAlloc,
                         "std::string construction in a hot-path region"});
        } else if ((tok == "counter" || tok == "gauge" ||
                    tok == "histogram") &&
                   called_with_string_literal(code, end)) {
          // The registry's contract split (obs/metrics.hpp): by-name
          // lookup locks and may allocate; hot paths must record through
          // a handle registered at setup time.
          raw.push_back({relpath, line, kHotMetric,
                         "'" + std::string(tok) +
                             "(\"...\")' registers a metric by name in a "
                             "hot-path region; use a pre-registered "
                             "handle"});
        }
      }
      prev_ident = std::string(tok);
    });
  }

  // Apply suppressions: a reasoned allow(rule) covering the finding's line
  // eats it; everything else (and stale allows) surfaces.
  std::vector<Finding> out;
  for (Finding& f : raw) {
    bool suppressed = false;
    for (Allow& a : dirs.allows) {
      if (a.known && a.reasoned && a.rule == f.rule && a.covers == f.line) {
        a.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }
  for (const Allow& a : dirs.allows) {
    if (a.known && a.reasoned && !a.used) {
      out.push_back({relpath, a.line, kSuppression,
                     "unused suppression: allow(" + a.rule +
                         ") matched no finding"});
    }
  }
  out.insert(out.end(), dirs.findings.begin(), dirs.findings.end());
  sort_findings(out);
  return out;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file;
    out += ':';
    out += std::to_string(f.line);
    out += ": [";
    out += f.rule;
    out += "] ";
    out += f.message;
    out += '\n';
  }
  return out;
}

namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("llamp-lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

std::string to_rel(const std::filesystem::path& p,
                   const std::filesystem::path& root) {
  const std::filesystem::path rel = p.lexically_relative(root);
  return (rel.empty() || rel.native()[0] == '.') ? p.generic_string()
                                                 : rel.generic_string();
}

}  // namespace

std::vector<Finding> lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(root) / "src";
  if (!fs::is_directory(src)) {
    throw std::runtime_error("llamp-lint: no src/ directory under '" + root +
                             "'");
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
  }
  std::vector<std::string> rels;
  rels.reserve(files.size());
  for (const fs::path& p : files) rels.push_back(to_rel(p, root));
  std::vector<std::size_t> order(files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rels[a] < rels[b];
  });
  std::vector<Finding> all;
  for (const std::size_t i : order) {
    std::vector<Finding> fs_one = lint_file(rels[i], read_file(files[i]));
    all.insert(all.end(), std::make_move_iterator(fs_one.begin()),
               std::make_move_iterator(fs_one.end()));
  }
  return all;
}

int run_cli(int argc, const char* const* argv, std::string& out,
            std::string& err) {
  std::string root = ".";
  std::vector<std::string> files;
  bool list_rules = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        err = "llamp-lint: --root requires a directory\n";
        return 2;
      }
      root = argv[++i];
    } else if (arg.substr(0, 7) == "--root=") {
      root = std::string(arg.substr(7));
    } else if (arg == "--help" || arg == "-h") {
      out =
          "usage: llamp-lint [--root DIR] [--list-rules] [file...]\n"
          "Checks DIR/src (or the given files) against the llamp invariant "
          "rules.\nExit 0 clean, 1 findings, 2 usage error.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err = "llamp-lint: unknown option '" + std::string(arg) + "'\n";
      return 2;
    } else {
      files.emplace_back(arg);
    }
  }
  if (list_rules) {
    for (const RuleInfo& r : rule_catalogue()) {
      out += "[";
      out += r.id;
      out += "] ";
      out += r.summary;
      out += '\n';
    }
    return 0;
  }
  std::vector<Finding> findings;
  std::size_t checked = 0;
  try {
    if (files.empty()) {
      findings = lint_tree(root);
      namespace fs = std::filesystem;
      for (const auto& entry :
           fs::recursive_directory_iterator(fs::path(root) / "src")) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() && (ext == ".hpp" || ext == ".cpp")) {
          ++checked;
        }
      }
    } else {
      for (const std::string& f : files) {
        const std::string rel =
            to_rel(std::filesystem::path(f), std::filesystem::path(root));
        std::vector<Finding> one = lint_file(rel, read_file(f));
        findings.insert(findings.end(), std::make_move_iterator(one.begin()),
                        std::make_move_iterator(one.end()));
        ++checked;
      }
      sort_findings(findings);
    }
  } catch (const std::exception& e) {
    err = std::string(e.what()) + "\n";
    return 2;
  }
  out = format_findings(findings);
  err = "llamp-lint: checked " + std::to_string(checked) + " files, " +
        std::to_string(findings.size()) + " finding(s)\n";
  return findings.empty() ? 0 : 1;
}

}  // namespace llamp::lint
