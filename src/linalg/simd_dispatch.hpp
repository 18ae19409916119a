// Runtime backend selection for the batched scoring kernels.
//
// All SIMD in this codebase lives behind this boundary: callers name a
// Backend (usually kAuto) and the dispatcher resolves it against the CPU
// and the VPROFILE_FORCE_SCALAR escape hatch.  The scalar kernels are the
// bit-identical oracle — the AVX2 kernels vectorize across *edges* (one
// edge per lane) and perform, per lane, exactly the operation sequence of
// the scalar code, so a resolved backend never changes a verdict, only
// the wall clock.  CI runs both resolutions (see the runtime-dispatch job)
// and tests/test_simd_differential.cpp holds the equivalence.
#pragma once

namespace linalg::simd {

/// Scoring backend.  kAuto resolves at runtime; the rest request a
/// specific implementation.
enum class Backend {
  kAuto,    // kAvx2 when the CPU supports it (and scalar is not forced)
  kScalar,  // portable reference kernels — the bit-identity oracle
  kAvx2,    // 4-wide double kernels; falls back to kScalar off-AVX2 CPUs
};

/// True when the executing CPU supports AVX2.
bool cpu_has_avx2();

/// True when SIMD dispatch is pinned to the scalar kernels: the
/// VPROFILE_FORCE_SCALAR environment variable is set to anything but "0",
/// or a test installed an override.
bool force_scalar();

/// Test hook: overrides (or, with -1, un-overrides) force_scalar()
/// regardless of the environment.  Lets one process compare both dispatch
/// paths; not thread-safe against concurrent resolve() calls.
void set_force_scalar_override(int forced);

/// Resolves a requested backend to the one that will actually run:
/// kAuto/kAvx2 become kScalar when forced or unsupported, kScalar is
/// returned unchanged.  Never returns kAuto.
Backend resolve(Backend requested);

}  // namespace linalg::simd
