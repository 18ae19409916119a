// Runtime backend selection for the batched scoring kernels, the
// training kernels and the wire codec kernels.
//
// All SIMD in this codebase lives behind this boundary: callers name a
// Backend (usually kAuto) and the dispatcher resolves it against the CPU
// and the VPROFILE_FORCE_SCALAR escape hatch.  The scalar kernels are the
// bit-identical oracle — the AVX2 kernels vectorize across *edges* (one
// edge per lane) and perform, per lane, exactly the operation sequence of
// the scalar code, so a resolved backend never changes a verdict, only
// the wall clock.  CI runs both resolutions (see the runtime-dispatch job)
// and tests/test_simd_differential.cpp holds the equivalence.
//
// The training kernels (the covariance accumulator's rank-1 updates,
// Cholesky::inverse's column solves and the trainer's threshold pass over
// the scoring kernels) follow the same rule: per matrix element, inverse
// column or member, each backend runs the scalar sequence, so a trained
// model has the same bytes on both.  CovarianceAccumulator resolves
// kAuto when it is built, Cholesky::inverse and the trainer on every
// call; test_trainer's TrainerDispatch suite flips
// set_force_scalar_override() between two trainings in one process.
//
// The codec kernels (io::crc32's carry-less-multiply fold, fleet::wire's
// AVX2 u16 pack and unpack) hold no Backend: each call resolves afresh,
// through resolve_pclmul() and resolve(Backend::kAuto), so a test can
// flip set_force_scalar_override() between two calls.  They change no
// byte: test_io's Checksum and test_fleet's Wire suites compare both
// resolutions in one process.
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

/// True when io::crc32 may fold with PCLMULQDQ (crc32_fold_pclmul): the
/// executing CPU supports carry-less multiply and scalar is not forced.
bool resolve_pclmul();

}  // namespace linalg::simd
