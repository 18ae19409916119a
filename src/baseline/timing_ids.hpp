// Timing-based intrusion detection in the style of CIDS (Cho & Shin,
// discussed in Section 1.2.2): each ECU's oscillator has a unique skew, so
// the accumulated clock offset of its periodic messages grows at an
// ECU-specific slope.  A recursive-least-squares estimate of that slope
// plus a CUSUM on the identification error detects when the timing
// fingerprint changes — e.g. a different (hijacking) ECU taking over an
// ID, or injected extra messages.
//
// The paper recommends pairing vProfile with exactly this kind of
// message-property IDS for coverage of attacks vProfile cannot see
// (a hijacked ECU abusing its own SAs, Section 6.1).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace baseline {

/// One observed message arrival.
struct TimedMessage {
  double time_s = 0.0;
  std::uint8_t sa = 0;
};

/// Clock-skew intrusion detector over periodic message streams.
class ClockSkewIds {
 public:
  struct Options {
    /// CUSUM control limit in residual standard deviations.
    double cusum_threshold = 8.0;
    /// CUSUM drift allowance (slack) in standard deviations.
    double cusum_slack = 0.5;
    /// Minimum training messages per SA.
    std::size_t min_train_messages = 16;
  };

  explicit ClockSkewIds(Options options) : options_(options) {}

  /// Learns, per SA, the nominal period, the clock-skew slope, and the
  /// residual jitter.  Returns false with a diagnostic when any SA has
  /// too few messages.
  bool train(const std::vector<TimedMessage>& messages, std::string* error);

  /// Online verdicts.
  enum class Verdict {
    kOk,
    kAnomaly,    // CUSUM crossed the control limit
    kUnknownSa,  // SA absent from training
  };

  /// Feeds one live message; maintains per-SA RLS + CUSUM state.
  Verdict observe(const TimedMessage& message);

  /// Resets the online state (e.g. after an alarm was handled).
  void reset_online_state();

 private:
  struct Profile {
    double period = 0.0;       // nominal inter-arrival
    double skew = 0.0;         // offset slope per message index
    double residual_sigma = 0.0;
  };
  struct Online {
    bool started = false;
    double t0 = 0.0;
    std::size_t k = 0;
    /// Offset intercept learned from the first few live messages; without
    /// it the first message's jitter would bias every CUSUM step.
    double intercept_sum = 0.0;
    std::size_t intercept_n = 0;
    double cusum_pos = 0.0;
    double cusum_neg = 0.0;
  };
  /// Live messages used to settle the intercept before scoring starts.
  static constexpr std::size_t kInterceptWarmup = 8;

  Options options_;
  std::map<std::uint8_t, Profile> profiles_;
  std::map<std::uint8_t, Online> online_;
};

}  // namespace baseline
