// Minimal recursive-descent JSON reader for the project's own artifacts
// (incident bundles, manifests, bench reports).
//
// Scope is deliberately small: parse a complete UTF-8 document into an
// owning Value tree, preserving object key order.  Numbers are parsed
// with strtod, so a double serialized with %.17g (the project's exact-
// double convention, see obs/flight_recorder.cpp) round-trips bit-for-
// bit — the property vprofile_replay's verdict comparison rests on.
// Non-finite doubles are not valid JSON numbers; writers emit them as
// the strings "inf"/"-inf"/"nan" and readers go through
// flexible_number().
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace io::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Key/value pairs in document order (deterministic iteration).
  std::vector<std::pair<std::string, Value>> object;

  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const Value* find(const std::string& key) const;
};

/// Null-tolerant member lookup: get(get(&root, "a"), "b") walks a path
/// and yields nullptr as soon as any link is missing.
const Value* get(const Value* value, const std::string& key);

/// Parses exactly one JSON document (trailing whitespace allowed).
/// Returns false and fills `*error` (if non-null) with a byte offset and
/// reason on malformed input.
bool parse(const std::string& text, Value* out, std::string* error = nullptr);

/// Reads a number that may have been serialized as "inf"/"-inf"/"nan"
/// (the non-finite escape used by the project's writers).  Returns false
/// when the value is neither a number nor one of those strings.
bool flexible_number(const Value& value, double* out);

}  // namespace io::json
