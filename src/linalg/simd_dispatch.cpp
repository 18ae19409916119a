#include "linalg/simd_dispatch.hpp"

#include <cstdlib>
#include <cstring>

namespace linalg::simd {
namespace {

/// -1 = no override, 0/1 = overridden value (tests compare both dispatch
/// paths in one process through this).
int g_force_override = -1;

bool env_force_scalar() {
  // Read exactly once per process (static init in force_scalar), before
  // any frame is scored: a CI knob, not steady-state entropy.
  // vprofile-lint: allow(hot-path-purity)
  const char* v = std::getenv("VPROFILE_FORCE_SCALAR");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool force_scalar() {
  if (g_force_override >= 0) return g_force_override != 0;
  // Read once: the env var is a process-level CI knob, not a live toggle.
  static const bool forced = env_force_scalar();
  return forced;
}

void set_force_scalar_override(int forced) { g_force_override = forced; }

// vprofile-lint: hot
Backend resolve(Backend requested) {
  switch (requested) {
    case Backend::kScalar:
      return requested;
    case Backend::kAuto:
    case Backend::kAvx2:
      if (force_scalar() || !cpu_has_avx2()) return Backend::kScalar;
      return Backend::kAvx2;
  }
  return Backend::kScalar;
}

bool resolve_pclmul() {
#if defined(__x86_64__) || defined(__i386__)
  return !force_scalar() && __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

}  // namespace linalg::simd
