#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <regex>
#include <string_view>

namespace vplint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parses `vprofile-lint: allow(rule, rule2)` plus the `hot`/`cold`
/// function markers out of one comment body and records them against
/// `line`.
void parse_allow(const std::string& comment, std::size_t line,
                 ScrubbedSource& out) {
  static const std::regex kAllow(
      R"(vprofile-lint:\s*allow\(([A-Za-z0-9_,\- ]+)\))");
  std::smatch m;
  if (std::regex_search(comment, m, kAllow)) {
    const std::string rules = m[1].str();
    std::size_t start = 0;
    while (start < rules.size()) {
      std::size_t end = rules.find(',', start);
      if (end == std::string::npos) end = rules.size();
      std::string rule = rules.substr(start, end - start);
      rule.erase(std::remove(rule.begin(), rule.end(), ' '), rule.end());
      if (!rule.empty()) out.allowed[line].insert(rule);
      start = end + 1;
    }
  }
  static const std::regex kMarker(R"(vprofile-lint:\s*(hot|cold)\b)");
  if (std::regex_search(comment, m, kMarker)) {
    if (m[1].str() == "hot") {
      out.hot_lines.insert(line);
    } else {
      out.cold_lines.insert(line);
    }
  }
}

/// Builds a prefix table of line-start offsets for offset->line lookups.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

std::size_t line_of(const std::vector<std::size_t>& starts,
                    std::size_t offset) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), offset);
  return static_cast<std::size_t>(it - starts.begin());
}

/// Last non-space character before `pos`, or '\0' at start of file.
char prev_nonspace(const std::string& text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    const char c = text[pos];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return c;
  }
  return '\0';
}

/// First non-space character at or after `pos`, or '\0' at end of file.
char next_nonspace(const std::string& text, std::size_t pos) {
  while (pos < text.size()) {
    const char c = text[pos];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return c;
    ++pos;
  }
  return '\0';
}

/// Reads the identifier token ending immediately before `pos` (skipping
/// trailing spaces), e.g. to recognize `operator` before `new`.
std::string prev_token(const std::string& text, std::size_t pos) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(text[pos - 1]))) {
    --pos;
  }
  std::size_t end = pos;
  while (pos > 0 && ident_char(text[pos - 1])) --pos;
  return text.substr(pos, end - pos);
}

/// Finds the next occurrence of `word` as a whole identifier at or after
/// `from`; returns npos when absent.
std::size_t find_word(const std::string& text, std::string_view word,
                      std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(word.data(), pos, word.size())) !=
         std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !ident_char(text[after]);
    if (left_ok && right_ok) return pos;
    pos = after;
  }
  return std::string::npos;
}

/// Matches a balanced bracket run starting at the opener `text[pos]`;
/// returns the offset one past the closer, or npos when unbalanced.
std::size_t skip_balanced(const std::string& text, std::size_t pos,
                          char open, char close) {
  int depth = 0;
  for (; pos < text.size(); ++pos) {
    if (text[pos] == open) {
      ++depth;
    } else if (text[pos] == close) {
      if (--depth == 0) return pos + 1;
    }
  }
  return std::string::npos;
}

struct RuleContext {
  const std::string& path;
  const std::string& code;
  const std::vector<std::size_t>& starts;
  std::vector<Finding>& findings;

  void add(std::size_t offset, std::string rule, std::string message) const {
    findings.push_back(Finding{path, line_of(starts, offset),
                               std::move(rule), std::move(message)});
  }
};

// ---------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------

void check_determinism(const RuleContext& ctx) {
  // Call-like uses of the wall-clock / process-global randomness API.
  static constexpr std::array<std::string_view, 5> kCalls = {
      "rand", "srand", "time", "clock", "getpid"};
  for (const auto word : kCalls) {
    std::size_t pos = 0;
    while ((pos = find_word(ctx.code, word, pos)) != std::string::npos) {
      const std::size_t after = pos + word.size();
      const char prev = prev_nonspace(ctx.code, pos);
      // Member calls (`frame.time()`, `p->clock()`) are unrelated APIs.
      const bool member = prev == '.' || prev == '>';
      if (!member && next_nonspace(ctx.code, after) == '(') {
        ctx.add(pos, "determinism",
                std::string(word) +
                    "() draws entropy outside the seeded stream; route "
                    "randomness through stats::Rng with an explicit seed");
      }
      pos = after;
    }
  }
  // Any mention of std::random_device seeds from the environment.
  std::size_t pos = 0;
  while ((pos = find_word(ctx.code, "random_device", pos)) !=
         std::string::npos) {
    ctx.add(pos, "determinism",
            "std::random_device seeds from the environment; use "
            "stats::Rng with an explicit seed");
    pos += 13;
  }
}

// ---------------------------------------------------------------------
// Rule: raw-new-delete
// ---------------------------------------------------------------------

void check_raw_new_delete(const RuleContext& ctx) {
  std::size_t pos = 0;
  while ((pos = find_word(ctx.code, "new", pos)) != std::string::npos) {
    // Allocator shims (`operator new`) are the sanctioned escape hatch.
    if (prev_token(ctx.code, pos) != "operator") {
      ctx.add(pos, "raw-new-delete",
              "raw new; own memory with containers or std::unique_ptr");
    }
    pos += 3;
  }
  pos = 0;
  while ((pos = find_word(ctx.code, "delete", pos)) != std::string::npos) {
    const char prev = prev_nonspace(ctx.code, pos);
    // `= delete` declarations and `operator delete` shims are fine.
    if (prev != '=' && prev_token(ctx.code, pos) != "operator") {
      ctx.add(pos, "raw-new-delete",
              "raw delete; own memory with containers or std::unique_ptr");
    }
    pos += 6;
  }
}

// ---------------------------------------------------------------------
// Rule: unordered-iteration
// ---------------------------------------------------------------------

void check_unordered_iteration(const RuleContext& ctx) {
  static constexpr std::array<std::string_view, 4> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  // Pass 1: collect the names of variables declared with an unordered
  // container type (template argument lists may span lines).
  std::set<std::string> vars;
  for (const auto type : kTypes) {
    std::size_t pos = 0;
    while ((pos = find_word(ctx.code, type, pos)) != std::string::npos) {
      std::size_t cursor = pos + type.size();
      while (cursor < ctx.code.size() &&
             std::isspace(static_cast<unsigned char>(ctx.code[cursor]))) {
        ++cursor;
      }
      if (cursor < ctx.code.size() && ctx.code[cursor] == '<') {
        cursor = skip_balanced(ctx.code, cursor, '<', '>');
        if (cursor == std::string::npos) break;
        while (cursor < ctx.code.size() &&
               (std::isspace(static_cast<unsigned char>(ctx.code[cursor])) ||
                ctx.code[cursor] == '&' || ctx.code[cursor] == '*')) {
          ++cursor;
        }
        std::size_t end = cursor;
        while (end < ctx.code.size() && ident_char(ctx.code[end])) ++end;
        if (end > cursor) vars.insert(ctx.code.substr(cursor, end - cursor));
      }
      pos += type.size();
    }
  }

  // Pass 2: flag any for-loop whose control clause touches an unordered
  // container (declared variable by name, or the type spelled inline).
  std::size_t pos = 0;
  while ((pos = find_word(ctx.code, "for", pos)) != std::string::npos) {
    std::size_t open = pos + 3;
    while (open < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[open]))) {
      ++open;
    }
    if (open >= ctx.code.size() || ctx.code[open] != '(') {
      pos += 3;
      continue;
    }
    const std::size_t close = skip_balanced(ctx.code, open, '(', ')');
    if (close == std::string::npos) break;
    const std::string clause = ctx.code.substr(open, close - open);
    bool hit = clause.find("unordered_") != std::string::npos;
    for (auto it = vars.begin(); !hit && it != vars.end(); ++it) {
      hit = find_word(clause, *it, 0) != std::string::npos;
    }
    if (hit) {
      ctx.add(pos, "unordered-iteration",
              "iteration over an unordered container has "
              "implementation-defined order; sort first or use std::map");
    }
    pos = close;
  }
}

// ---------------------------------------------------------------------
// Rule: unit-cast
// ---------------------------------------------------------------------

void check_unit_cast(const RuleContext& ctx) {
  // Form 1: static_cast<units::X>(...).
  std::size_t pos = 0;
  while ((pos = find_word(ctx.code, "static_cast", pos)) !=
         std::string::npos) {
    std::size_t cursor = pos + 11;
    while (cursor < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[cursor]))) {
      ++cursor;
    }
    if (ctx.code.compare(cursor, 1, "<") == 0) {
      std::size_t inner = cursor + 1;
      while (inner < ctx.code.size() &&
             std::isspace(static_cast<unsigned char>(ctx.code[inner]))) {
        ++inner;
      }
      if (ctx.code.compare(inner, 7, "units::") == 0) {
        ctx.add(pos, "unit-cast",
                "static_cast to a unit type hides the dimension change; "
                "use the named conversion helpers in core/units.hpp");
      }
    }
    pos = cursor;
  }

  // Form 2: re-wrapping one unit's raw value as another unit,
  // units::A{units::B{...}.value()}.
  // Matches both temporaries (units::X{...}) and brace-initialized
  // declarations (units::X name{...}).
  static const std::regex kWrap(R"(units::(\w+)(?:\s+\w+)?\s*\{)");
  auto begin = std::sregex_iterator(ctx.code.begin(), ctx.code.end(), kWrap);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string outer = (*it)[1].str();
    const std::size_t offset = static_cast<std::size_t>(it->position(0));
    const std::size_t open =
        offset + static_cast<std::size_t>(it->length(0)) - 1;
    const std::size_t close = skip_balanced(ctx.code, open, '{', '}');
    if (close == std::string::npos) continue;
    const std::string arg = ctx.code.substr(open + 1, close - open - 2);
    if (arg.find(".value()") == std::string::npos) continue;
    static const std::regex kInner(R"(units::(\w+))");
    auto inner_begin = std::sregex_iterator(arg.begin(), arg.end(), kInner);
    for (auto jt = inner_begin; jt != std::sregex_iterator(); ++jt) {
      if ((*jt)[1].str() != outer) {
        ctx.add(offset, "unit-cast",
                "re-wrapping units::" + (*jt)[1].str() + " as units::" +
                    outer +
                    " through .value() bypasses the dimension check; use "
                    "the named conversion helpers in core/units.hpp");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: metric-name
// ---------------------------------------------------------------------

/// Checks literal metric names passed to the obs::MetricsRegistry
/// factories (`.counter("...")`, `.gauge(...)`, `.histogram(...)`):
/// snake_case plus one of the project's unit suffixes.  Needs the
/// unscrubbed source because the scrubber blanks string literals: the
/// factory call is located in scrubbed code (so matches inside comments
/// or strings cannot fire), then the name is read from the original text
/// at the same offset.  Dynamic (non-literal) names are skipped — the
/// token scanner cannot evaluate them.
void check_metric_name(const RuleContext& ctx, const std::string& original) {
  static constexpr std::array<std::string_view, 3> kFactories = {
      "counter", "gauge", "histogram"};
  static constexpr std::array<std::string_view, 3> kSuffixes = {
      "_ns", "_bytes", "_total"};
  for (const auto word : kFactories) {
    std::size_t pos = 0;
    while ((pos = find_word(ctx.code, word, pos)) != std::string::npos) {
      const std::size_t after = pos + word.size();
      const char prev = prev_nonspace(ctx.code, pos);
      // Only member calls on a registry; free functions named `counter`
      // or type names like obs::Counter are unrelated.
      const bool member = prev == '.' || prev == '>';
      if (!member || next_nonspace(ctx.code, after) != '(') {
        pos = after;
        continue;
      }
      std::size_t cursor = ctx.code.find('(', after) + 1;
      while (cursor < original.size() &&
             std::isspace(static_cast<unsigned char>(original[cursor]))) {
        ++cursor;
      }
      if (cursor >= original.size() || original[cursor] != '"') {
        pos = after;  // dynamic name; not checkable at token level
        continue;
      }
      std::size_t end = cursor + 1;
      std::string name;
      while (end < original.size() && original[end] != '"') {
        name.push_back(original[end]);
        ++end;
      }
      bool snake = !name.empty() &&
                   std::islower(static_cast<unsigned char>(name[0])) != 0;
      for (const char c : name) {
        snake = snake && (std::islower(static_cast<unsigned char>(c)) != 0 ||
                          std::isdigit(static_cast<unsigned char>(c)) != 0 ||
                          c == '_');
      }
      bool suffixed = false;
      for (const auto suffix : kSuffixes) {
        suffixed = suffixed ||
                   (name.size() > suffix.size() &&
                    name.compare(name.size() - suffix.size(), suffix.size(),
                                 suffix) == 0);
      }
      if (!snake || !suffixed) {
        ctx.add(pos, "metric-name",
                "metric name \"" + name +
                    "\" must be snake_case with a unit suffix "
                    "(_ns, _bytes, _total) so exported series stay "
                    "machine-sortable; see src/obs/metrics.hpp");
      }
      pos = after;
    }
  }
}

// ---------------------------------------------------------------------
// Rule: seed-literal
// ---------------------------------------------------------------------

/// Flags seeded entry points constructed straight from an integer
/// literal: `units::Seed64{1234}`, `stats::Rng rng(42)`,
/// `ScenarioRunner runner(7)`.  A literal there detaches the stream from
/// the audited bench seed catalog; seeds must come from
/// bench::bench_seed or be derived from an upstream seed
/// (sim::derive_stream_seed).  Only the single-argument pure-literal
/// form is matched — expressions and named values pass, because they
/// trace back to something reviewable.
void check_seed_literal(const RuleContext& ctx) {
  static const std::regex kSeedLiteral(
      R"(\b(Seed64|Rng|ScenarioRunner)(?:\s+\w+)?\s*[({]\s*)"
      R"((0[xX][0-9a-fA-F']+|[0-9][0-9']*)[uUlL]*\s*[})])");
  for (auto it = std::sregex_iterator(ctx.code.begin(), ctx.code.end(),
                                      kSeedLiteral);
       it != std::sregex_iterator(); ++it) {
    const std::size_t offset = static_cast<std::size_t>(it->position(0));
    if (offset > 0 && ident_char(ctx.code[offset - 1])) continue;
    ctx.add(offset, "seed-literal",
            "literal seed " + (*it)[2].str() + " handed to " +
                (*it)[1].str() +
                "; draw seeds from the bench catalog (bench::bench_seed) "
                "or derive them from an upstream seed "
                "(sim::derive_stream_seed) so published artifacts trace "
                "to one audited entry");
  }
}

// ---------------------------------------------------------------------
// Rule: simd-boundary
// ---------------------------------------------------------------------

void check_simd_boundary(const RuleContext& ctx) {
  // Intrinsic calls (_mm_*, _mm256_*, _mm512_*) and vector register types
  // (__m128/__m256/__m512 with their d/i suffixes).  Word boundaries on
  // the left keep identifiers like `my_mm256_helper` out.
  static const std::regex kSimdToken(
      R"((_mm(?:256|512)?_\w+|__m(?:128|256|512)[a-z]?))");
  for (auto it = std::sregex_iterator(ctx.code.begin(), ctx.code.end(),
                                      kSimdToken);
       it != std::sregex_iterator(); ++it) {
    const std::size_t offset = static_cast<std::size_t>(it->position(0));
    if (offset > 0 && ident_char(ctx.code[offset - 1])) continue;
    ctx.add(offset, "simd-boundary",
            "raw SIMD token " + (*it)[1].str() +
                " outside src/linalg/simd_*; vector code must live behind "
                "the runtime dispatch boundary (linalg/simd_dispatch.hpp) "
                "so unsupported ISAs can never execute");
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------

ScrubbedSource scrub(const std::string& source) {
  ScrubbedSource out;
  out.code.assign(source.size(), ' ');
  std::size_t line = 1;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string comment;          // accumulating comment body for allow-parse
  std::size_t comment_line = 0; // line the comment started on
  std::string raw_delim;        // closing delimiter of a raw string

  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
      if (state == State::kLineComment) {
        parse_allow(comment, comment_line, out);
        comment.clear();
        state = State::kCode;
      }
      continue;
    }

    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment.clear();
          comment_line = line;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment.clear();
          comment_line = line;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(source[i - 1]))) {
          // Raw string literal: R"delim( ... )delim".
          std::size_t d = i + 2;
          while (d < source.size() && source[d] != '(') ++d;
          // Built up in pieces: GCC 12's -Wrestrict false-positives on the
          // `const char* + std::string&&` chain under heavy inlining.
          raw_delim = ")";
          raw_delim += source.substr(i + 2, d - (i + 2));
          raw_delim += '"';
          state = State::kRawString;
          i = d;  // everything from R through ( is stripped
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          // A quote directly after a digit is a C++14 digit separator
          // (1'000'000), not a character literal.
          const bool separator =
              i > 0 && std::isdigit(static_cast<unsigned char>(source[i - 1]));
          if (separator) {
            out.code[i] = c;
          } else {
            state = State::kChar;
          }
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
        comment.push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          parse_allow(comment, comment_line, out);
          comment.clear();
          state = State::kCode;
          ++i;
        } else {
          comment.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
          if (i < source.size() && source[i] == '\n') ++line;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (source.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    parse_allow(comment, comment_line, out);
  }
  return out;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

std::vector<Finding> lint_source_raw(const std::string& path,
                                     const std::string& source,
                                     const Options& opts) {
  const ScrubbedSource scrubbed = scrub(source);
  const std::vector<std::size_t> starts = line_starts(scrubbed.code);

  std::vector<Finding> findings;
  const RuleContext ctx{path, scrubbed.code, starts, findings};

  bool determinism_exempt = false;
  for (const auto& allow : opts.determinism_allowlist) {
    if (path.find(allow) != std::string::npos) determinism_exempt = true;
  }
  if (!determinism_exempt) check_determinism(ctx);
  bool simd_exempt = false;
  for (const auto& allow : opts.simd_allowlist) {
    if (path.find(allow) != std::string::npos) simd_exempt = true;
  }
  if (!simd_exempt) check_simd_boundary(ctx);
  bool seed_literal_exempt = false;
  for (const auto& allow : opts.seed_literal_allowlist) {
    if (path.find(allow) != std::string::npos) seed_literal_exempt = true;
  }
  if (!seed_literal_exempt) check_seed_literal(ctx);
  check_raw_new_delete(ctx);
  check_unordered_iteration(ctx);
  check_unit_cast(ctx);
  check_metric_name(ctx, source);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

void apply_suppressions(
    std::vector<Finding>& findings, const ScrubbedSource& scrubbed,
    std::set<std::pair<std::size_t, std::string>>* used) {
  const std::vector<std::size_t> starts = line_starts(scrubbed.code);
  // A suppression covers its own line, or the next line when the comment
  // stands alone (a trailing comment covers only its own statement).
  auto line_has_code = [&](std::size_t line) {
    if (line == 0 || line > starts.size()) return false;
    const std::size_t begin = starts[line - 1];
    const std::size_t end =
        line < starts.size() ? starts[line] : scrubbed.code.size();
    for (std::size_t i = begin; i < end; ++i) {
      if (!std::isspace(static_cast<unsigned char>(scrubbed.code[i]))) {
        return true;
      }
    }
    return false;
  };
  auto allows = [&](std::size_t line, const std::string& rule,
                    std::string* matched) {
    const auto it = scrubbed.allowed.find(line);
    if (it == scrubbed.allowed.end()) return false;
    if (it->second.count(rule) != 0) {
      *matched = rule;
      return true;
    }
    if (it->second.count("all") != 0) {
      *matched = "all";
      return true;
    }
    return false;
  };
  auto suppressed = [&](const Finding& f) {
    std::string matched;
    if (allows(f.line, f.rule, &matched)) {
      if (used != nullptr) used->insert({f.line, matched});
      return true;
    }
    if (f.line > 1 && !line_has_code(f.line - 1) &&
        allows(f.line - 1, f.rule, &matched)) {
      if (used != nullptr) used->insert({f.line - 1, matched});
      return true;
    }
    return false;
  };
  findings.erase(
      std::remove_if(findings.begin(), findings.end(), suppressed),
      findings.end());
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source,
                                 const Options& opts) {
  std::vector<Finding> findings = lint_source_raw(path, source, opts);
  apply_suppressions(findings, scrub(source));
  return findings;
}

std::vector<std::string> files_from_compile_commands(
    const std::string& json_text) {
  std::vector<std::string> files;
  std::size_t pos = 0;
  while ((pos = json_text.find("\"file\"", pos)) != std::string::npos) {
    pos += 6;
    while (pos < json_text.size() &&
           (std::isspace(static_cast<unsigned char>(json_text[pos])) ||
            json_text[pos] == ':')) {
      ++pos;
    }
    if (pos >= json_text.size() || json_text[pos] != '"') continue;
    ++pos;
    std::string value;
    while (pos < json_text.size() && json_text[pos] != '"') {
      if (json_text[pos] == '\\' && pos + 1 < json_text.size()) {
        ++pos;  // CMake only escapes backslash and quote in paths
      }
      value.push_back(json_text[pos]);
      ++pos;
    }
    files.push_back(std::move(value));
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace vplint
