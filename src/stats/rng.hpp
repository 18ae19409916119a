// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library (waveform noise, traffic jitter,
// attack injection) draws from an explicitly seeded Rng so that a run is
// fully determined by its top-level seed.
#pragma once

#include <cstdint>
#include <random>

#include "core/units.hpp"

namespace stats {

/// Seeded pseudo-random source with the distributions the library needs.
///
/// Thin wrapper over std::mt19937_64 that keeps seeding explicit and
/// centralizes the distribution helpers (uniform, Gaussian, Bernoulli,
/// bounded integers) used throughout the simulator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  explicit Rng(units::Seed64 seed) : engine_(seed.value()) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal draw scaled to the given mean and standard deviation.
  double gaussian(double mean = 0.0, double sigma = 1.0) {
    return mean + sigma * normal_(engine_);
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Uniform integer in [0, n).  n must be positive.
  std::uint64_t below(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
  }

  /// Derives an independent child generator; used to give each subsystem
  /// its own stream so adding draws in one place does not perturb another.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace stats
