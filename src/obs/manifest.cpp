#include "obs/manifest.hpp"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <ctime>

#ifndef VPROFILE_GIT_DESCRIBE
#define VPROFILE_GIT_DESCRIBE "unknown"
#endif

namespace obs {

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  out += '"';
  return out;
}

std::string json_double(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return std::signbit(v) ? "\"-inf\"" : "\"inf\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

RunManifest RunManifest::create(std::string tool_name) {
  RunManifest m;
  m.tool = std::move(tool_name);
  m.git_describe = VPROFILE_GIT_DESCRIBE;
  // Wall-clock provenance, not part of any deterministic result — the
  // detection math never sees it.
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  m.unix_time_s = static_cast<std::uint64_t>(secs);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  m.iso8601 = buf;
  return m;
}

std::string RunManifest::to_json() const {
  std::string out = "{";
  out += "\"tool\":" + json_quote(tool);
  out += ",\"git_describe\":" + json_quote(git_describe);
  out += ",\"unix_time_s\":" + std::to_string(unix_time_s);
  out += ",\"iso8601\":" + json_quote(iso8601);
  out += ",\"seeds\":{";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += json_quote(seeds[i].first) + ":" + std::to_string(seeds[i].second);
  }
  out += "},\"config\":{";
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += json_quote(config[i].first) + ":" + json_quote(config[i].second);
  }
  out += "}}";
  return out;
}

}  // namespace obs
