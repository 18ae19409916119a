// vprofile_lint: token-level invariant checker for the vProfile codebase.
//
// The linter enforces project rules that the compiler cannot:
//
//   determinism          no rand()/srand()/time()/clock()/getpid() and no
//                        std::random_device — every stochastic quantity must
//                        flow from an explicitly seeded stats::Rng stream,
//                        or the golden tables stop being reproducible.
//   raw-new-delete       no raw new/delete outside allocator shims
//                        (`operator new`/`operator delete` definitions);
//                        containers and values own memory here.
//   unordered-iteration  no iteration over std::unordered_map/_set — the
//                        traversal order is implementation-defined and any
//                        scored or golden-file output fed from it would
//                        differ across standard libraries.
//   unit-cast            no casts between the strong unit types from
//                        core/units.hpp (static_cast<units::X>(...) or
//                        re-wrapping units::A{units::B{...}.value()}) —
//                        dimension changes go through the named conversion
//                        helpers so they are visible and checked.
//   metric-name          literal names handed to the obs::MetricsRegistry
//                        factories (.counter/.gauge/.histogram) must be
//                        snake_case with a unit suffix (_ns, _bytes,
//                        _total), keeping the exported series greppable
//                        and unit-unambiguous.
//   simd-boundary        no raw SIMD intrinsics (_mm_*/_mm256_*/_mm512_*)
//                        or vector register types (__m128/__m256/__m512)
//                        outside src/linalg/simd_* — all vector code goes
//                        through the runtime dispatch boundary
//                        (linalg/simd_dispatch.hpp) so a binary never
//                        executes an ISA the CPU check did not approve and
//                        the scalar oracle stays the single reference.
//   seed-literal         no integer-literal seeds at the seeded entry
//                        points (units::Seed64{1234}, stats::Rng(42),
//                        ScenarioRunner(7)) — seeds must come from the
//                        bench seed catalog (bench::bench_seed) or be
//                        derived from an upstream seed
//                        (sim::derive_stream_seed), so every random
//                        stream in a published artifact traces back to
//                        one audited catalog entry.
//
// Floating-point equality is left to the compiler: the root CMakeLists.txt
// builds with -Wfloat-equal under -Werror.
//
// Scanning is token-level over comment- and string-stripped source: no
// libclang, no compiler dependency. A finding can be suppressed where a
// human has judged it safe with a trailing or preceding comment:
//
//     int* p = new int;  // vprofile-lint: allow(raw-new-delete)
//
// The suppression names the rule explicitly so grep can audit every
// exemption in the tree.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace vplint {

/// One rule violation at a source location.
struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Knobs for lint_source. Defaults match the repository layout.
struct Options {
  /// Files whose path contains one of these substrings are exempt from the
  /// determinism rule: the seeded-stream helper legitimately names the
  /// engine machinery it wraps.
  std::vector<std::string> determinism_allowlist = {"src/stats/rng.hpp"};
  /// Files whose path contains one of these substrings may use raw SIMD
  /// intrinsics: the dispatched kernel implementations themselves.
  std::vector<std::string> simd_allowlist = {"src/linalg/simd_"};
  /// Files whose path contains one of these substrings may construct
  /// seeds from integer literals: the bench seed catalog is the one
  /// sanctioned home for them.
  std::vector<std::string> seed_literal_allowlist = {"bench/bench_common.cpp"};
};

/// Source text with comments and string/char-literal bodies blanked out.
struct ScrubbedSource {
  /// Same length as the input; every stripped character becomes a space,
  /// newlines are preserved so offsets map to the original lines.
  std::string code;
  /// line (1-based) -> rule names suppressed there via
  /// `vprofile-lint: allow(rule, ...)`. A suppression covers the comment's
  /// own line and the line after it (for standalone suppression lines).
  std::map<std::size_t, std::set<std::string>> allowed;
  /// Lines carrying a `vprofile-lint: hot` marker: the next function
  /// definition is a hot-path purity root (see passes_purity.cpp).
  std::set<std::size_t> hot_lines;
  /// Lines carrying a `vprofile-lint: cold` marker: the next function
  /// definition is a sanctioned boundary — the purity traversal neither
  /// descends into it nor scans its body.
  std::set<std::size_t> cold_lines;
};

/// Strips comments, string literals (including raw strings) and character
/// literals, collecting suppression annotations along the way.
ScrubbedSource scrub(const std::string& source);

/// Runs every rule over one in-memory source file.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source,
                                 const Options& opts = Options{});

/// Like lint_source, but before `allow(...)` suppressions are applied.
/// The project analyzer uses this to tell live suppressions from stale
/// ones (tools/lint/passes_consistency.cpp).
std::vector<Finding> lint_source_raw(const std::string& path,
                                     const std::string& source,
                                     const Options& opts = Options{});

/// Erases findings covered by an `allow(...)` on their own line or on a
/// preceding standalone comment line.  When `used` is non-null, every
/// (line, rule) suppression entry that actually fired is recorded there —
/// an entry of `scrubbed.allowed` absent from `used` afterwards is stale.
void apply_suppressions(
    std::vector<Finding>& findings, const ScrubbedSource& scrubbed,
    std::set<std::pair<std::size_t, std::string>>* used = nullptr);

/// Extracts the "file" entries from a compile_commands.json document
/// (sorted, deduplicated). Tolerates the subset of JSON CMake emits.
std::vector<std::string> files_from_compile_commands(
    const std::string& json_text);

}  // namespace vplint
