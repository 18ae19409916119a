// RunManifest: the provenance stamp every telemetry artifact carries.
//
// A metrics file or a bench JSON is only evidence if it says *what ran*:
// which binary, which commit, when, and under which seeds and config.
// RunManifest gathers exactly that and serializes it as one JSON object
// that exporters embed verbatim, so any artifact can be traced back to a
// reproducible invocation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace obs {

/// Quote and escape a string as a JSON string literal (including the
/// surrounding double quotes).  Shared by manifest, exporters and the
/// bench reporter so everybody escapes the same way.
std::string json_quote(const std::string& s);

/// Exact-double JSON scalar: %.17g round-trips every finite double bit
/// for bit through strtod (the incident replay contract).  Non-finite
/// values are not valid JSON numbers, so they render as quoted strings
/// ("nan", "inf", "-inf"); readers use io::json::flexible_number.
std::string json_double(double v);

/// Decimal JSON rendering of an unsigned 64-bit count.
std::string json_u64(std::uint64_t v);

struct RunManifest {
  std::string tool;          ///< binary / logical run name
  std::string git_describe;  ///< from `git describe` at configure time
  std::uint64_t unix_time_s = 0;
  std::string iso8601;  ///< UTC, e.g. "2026-08-05T12:34:56Z"
  /// Named deterministic seeds the run used (bench_seed catalog entries,
  /// scenario seeds, ...).
  std::vector<std::pair<std::string, std::uint64_t>> seeds;
  /// Free-form config key/values worth reproducing the run from
  /// (paths, worker counts, thresholds as strings).
  std::vector<std::pair<std::string, std::string>> config;

  /// Manifest for this process: git describe baked in at build time plus
  /// the current wall clock.  Callers append seeds/config afterwards.
  static RunManifest create(std::string tool_name);

  /// One JSON object: {"tool":...,"git_describe":...,"unix_time_s":...,
  /// "iso8601":...,"seeds":{...},"config":{...}}.
  std::string to_json() const;
};

}  // namespace obs
