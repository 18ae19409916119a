// Propagation-delay sender locator (Moreno & Fischmeister, Section 1.2.2):
// two differential probes at opposite ends of the bus see each message
// with a position-dependent arrival-time difference.  Cross-correlating
// the two captures estimates that difference with sub-sample resolution,
// locating the transmitter on the harness — a third, independent
// fingerprint besides voltage (vProfile) and timing (clock skew).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dsp/trace.hpp"

namespace baseline {

/// Sub-sample arrival-delay estimator.
class DelayEstimator {
 public:
  /// `max_lag_samples`: largest |delay| searched; `sample_rate_hz` for
  /// conversion to seconds.  Throws on non-positive arguments.
  DelayEstimator(std::size_t max_lag_samples, double sample_rate_hz);

  /// Delay of `b` relative to `a` in seconds (positive = b lags a),
  /// estimated by the cross-correlation peak with parabolic sub-sample
  /// interpolation.  std::nullopt when the traces are too short or flat.
  std::optional<double> estimate(const dsp::Trace& a,
                                 const dsp::Trace& b) const;

 private:
  std::size_t max_lag_;
  double sample_rate_hz_;
};

/// Per-SA position fingerprinting and verification.
class DelayLocatorIds {
 public:
  struct Options {
    std::size_t max_lag_samples = 8;
    double sample_rate_hz = 20.0e6;
    /// Verification threshold in trained standard deviations.
    double threshold_sigma = 6.0;
    std::size_t min_train_messages = 8;
  };

  explicit DelayLocatorIds(Options options);

  /// One training observation: the two tap captures plus the SA the
  /// message carried (trusted during training).
  struct TapPair {
    dsp::Trace tap_a;
    dsp::Trace tap_b;
    std::uint8_t sa = 0;
  };

  /// Learns per-SA delay-difference distributions.  False with a
  /// diagnostic when an SA has too few usable pairs.
  bool train(const std::vector<TapPair>& pairs, std::string* error);

  struct Classification {
    bool anomaly = false;
    /// Estimated delay difference (seconds) of the incoming message.
    double delay_s = 0.0;
    /// z-score against the claimed SA's trained distribution.
    double z = 0.0;
  };

  /// Verifies a message against its claimed SA's position.  std::nullopt
  /// when the SA is unknown or the delay cannot be estimated.
  std::optional<Classification> classify(const dsp::Trace& tap_a,
                                         const dsp::Trace& tap_b,
                                         std::uint8_t claimed_sa) const;

 private:
  Options options_;
  DelayEstimator estimator_;
  struct Profile {
    double mean = 0.0;
    double sigma = 0.0;
  };
  std::map<std::uint8_t, Profile> profiles_;
};

}  // namespace baseline
