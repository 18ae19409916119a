// FNV-1a folding — the one copy every fingerprint in the tree uses
// (supervisor result streams, fleet shard pins and tenant digests, the
// scenario and frontier fingerprints).  Determinism across runs and
// platforms is the only property needed, not cryptographic strength.
// Values are folded byte by byte in memory order, so changing this file
// changes every recorded fingerprint.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vprofile {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Folds `len` raw bytes into `hash`.
inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Folds the eight bytes of `value`.
inline std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  return fnv1a(hash, &value, sizeof(value));
}

}  // namespace vprofile
