// Analog fault injection for captured voltage traces.
//
// A deployed voltage tap lives in a hostile place: connectors corrode,
// grounds drift, ignition coils spray EMI, ADC front ends clip and drop
// samples, and an adversary can corrupt the signal on purpose (Sagong et
// al., "Mitigating Vulnerabilities of Voltage-based Intrusion Detection
// Systems in CAN", 2019).  This layer models the analog failure modes as
// composable transforms over dsp::Trace so every capture stream — clean,
// hijack, foreign, masquerade — can be replayed through any fault
// profile.  All randomness comes from one seeded Rng, so a profile + seed
// fully determines the corrupted stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "dsp/trace.hpp"
#include "stats/rng.hpp"

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

namespace faults {

/// The analog failure modes the injector can apply.
enum class FaultKind {
  kClipping,    // front-end saturates: codes clamp at a reduced rail
  kDropout,     // sample run lost (loose connector / DMA underrun), reads 0
  kDcShift,     // ground/offset shift of the whole trace
  kEmiBurst,    // additive burst noise (ignition / motor EMI)
  kClockDrift,  // sampling clock runs fast/slow, stretching the trace
  kTruncation,  // capture window ends before the message does
  kSlowDrift,   // cumulative ramping offset (thermal creep / slow poisoning)
  // IDS-aware attack transforms (Sagong et al.): shaped on purpose to
  // search for detector blind spots, not to model accidental damage.
  // They are appended after the environmental kinds so existing profiles
  // draw bit-identical random streams (the injector only consumes RNG
  // for faults a profile actually configures).
  kOvercurrent,      // second driver: dominant-level gain + offset shaping
  kCorruptionBurst,  // periodic additive voltage-corruption burst
  kDriftMasquerade,  // duty-cycled cumulative masquerade ramp
};

inline constexpr std::size_t kNumFaultKinds = 10;

const char* to_string(FaultKind kind);

/// Per-kind parameters.  Every fault fires independently per trace with
/// its own probability; a probability of 0 disables it.

/// Clamp codes above `level_fraction` of full scale (and below
/// `(1 - level_fraction)` of full scale when `symmetric`).  A symmetric
/// fault with `level_fraction < 0.5` has an inverted band, its upper
/// level below its lower one: every sample is then raised to the lower
/// level and cut to the upper, so the trace comes out flat at
/// `level_fraction` of full scale (NaN samples stay NaN).
struct ClippingFault {
  double probability = 0.0;
  double level_fraction = 0.8;
  bool symmetric = false;
};

/// Zero out a run of `min_len`..`max_len` samples at a random position.
struct DropoutFault {
  double probability = 0.0;
  std::size_t min_len = 8;
  std::size_t max_len = 64;
};

/// Add a constant offset drawn uniformly from [min_shift, max_shift]
/// (ADC codes); the result is clamped to the ADC range like a real
/// front end would.
struct DcShiftFault {
  double probability = 0.0;
  double min_shift = -2000.0;
  double max_shift = 2000.0;
};

/// Add Gaussian noise of `sigma` codes over a run of `min_len`..`max_len`
/// samples at a random position, clamped to the ADC range.
struct EmiBurstFault {
  double probability = 0.0;
  double sigma = 3000.0;
  std::size_t min_len = 16;
  std::size_t max_len = 200;
};

/// Resample the trace as if the sampling clock ran off-nominal by up to
/// `max_drift_ppm` parts per million (sign drawn at random).
struct ClockDriftFault {
  double probability = 0.0;
  double max_drift_ppm = 20000.0;
};

/// Keep only the first `min_keep`..1.0 fraction of the trace (uniform).
struct TruncationFault {
  double probability = 0.0;
  double min_keep = 0.25;
};

/// A slowly ramping offset: each firing advances the injector's cumulative
/// shift by `step` codes (saturating at ±`max_shift`) and applies it to the
/// trace.  Unlike DcShiftFault this is *stateful* — it models thermal /
/// ground creep and, crucially, the Sagong-style slow-poisoning adversary:
/// each individual step is small enough to pass the detector's margin, but
/// an ungated online updater that keeps folding the shifted frames walks
/// the stored profile toward the attacker's signature.
struct SlowDriftFault {
  double probability = 0.0;
  double step = 25.0;         // codes added to the cumulative shift per firing
  double max_shift = 3000.0;  // |cumulative shift| saturates here
};

/// Sagong-style overcurrent shaping: the attacker drives the bus on top
/// of the legitimate transmitter, boosting the dominant-level samples by
/// `gain` and offsetting the whole trace by `offset` codes.  Unlike the
/// environmental faults this transform is parameter-deterministic (no
/// RNG draw inside the transform) so an adversary search can evaluate a
/// parameter point reproducibly.
struct OvercurrentFault {
  double probability = 0.0;
  double gain = 0.25;              // extra drive on dominant-level samples
  double dominant_fraction = 0.6;  // samples >= this fraction of full scale
                                   // count as dominant
  double offset = 0.0;             // codes added to every sample
};

/// Sagong-style voltage-corruption burst: an additive sinusoid of
/// `amplitude` codes with period `period_samples`, applied only during the
/// first `duty` fraction of each period (phase in cycles shifts where the
/// corrupted windows land).  amplitude 0 is a bit-exact no-op.
struct CorruptionBurstFault {
  double probability = 0.0;
  double amplitude = 2000.0;
  double period_samples = 64.0;
  double phase = 0.0;  // cycles, [0, 1)
  double duty = 0.5;   // corrupted fraction of each period
};

/// Drift-exploiting slow masquerade: like kSlowDrift the injector keeps a
/// cumulative shift, but the ramp only advances on a `duty` fraction of
/// firings (deterministic Bresenham schedule, no RNG) — the adversary's
/// knob for staying under a drift sentinel's per-sample tolerance while
/// still reaching `max_shift` eventually.
struct DriftMasqueradeFault {
  double probability = 0.0;
  double ramp_rate = 25.0;    // codes added to the shift per advancing firing
  double max_shift = 1500.0;  // |cumulative shift| saturates here
  double duty = 1.0;          // fraction of firings that advance the ramp
};

/// A named, composable set of faults.  Faults are applied in the fixed
/// order of the FaultKind enum so a profile + seed is reproducible.
struct FaultProfile {
  std::string name = "clean";
  std::optional<ClippingFault> clipping;
  std::optional<DropoutFault> dropout;
  std::optional<DcShiftFault> dc_shift;
  std::optional<EmiBurstFault> emi_burst;
  std::optional<ClockDriftFault> clock_drift;
  std::optional<TruncationFault> truncation;
  std::optional<SlowDriftFault> slow_drift;
  std::optional<OvercurrentFault> overcurrent;
  std::optional<CorruptionBurstFault> corruption_burst;
  std::optional<DriftMasqueradeFault> drift_masquerade;

  /// True when no fault can ever fire.
  bool empty() const;
};

/// Canned profiles for the scenario matrix, the monitor tool and benches.
FaultProfile clean_profile();
/// Front end saturating at 70% full scale on most frames.
FaultProfile saturated_tap();
/// Loose connector: frequent dropouts plus a wandering ground offset.
FaultProfile flaky_connector();
/// Heavy ignition EMI bursts.
FaultProfile emi_storm();
/// Sampling clock off by up to 2% (drifting crystal).
FaultProfile drifting_clock();
/// Capture windows that frequently end mid-message.
FaultProfile truncating_tap();
/// Everything at once, at moderate rates — the worst-case soak profile.
FaultProfile harsh_environment();
/// Slow-poisoning ramp that always fires: every trace shifts a little
/// further than the last, staying under the margin per step.
FaultProfile slow_poison();

/// All canned profiles above, for grids and CLI lookups.
std::vector<FaultProfile> canned_profiles();
/// Profile by name, or std::nullopt for an unknown name.
std::optional<FaultProfile> profile_by_name(const std::string& name);

/// How often each fault actually fired.
struct FaultStats {
  std::array<std::uint64_t, kNumFaultKinds> applied{};
  std::uint64_t faulted_traces = 0;  // traces hit by at least one fault
  std::uint64_t total_traces = 0;
};

/// Applies a profile to traces, one at a time, deterministically.
///
/// `max_code` is the ADC full-scale code (results clamp to [0, max_code]
/// where the physical front end would).  Two injectors with equal
/// (profile, max_code, seed) produce identical outputs for identical
/// input sequences.
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, double max_code, units::Seed64 seed);
  FaultInjector(FaultProfile profile, double max_code, std::uint64_t seed)
      : FaultInjector(std::move(profile), max_code, units::Seed64{seed}) {}

  /// Returns the corrupted trace and updates the per-fault counters.
  dsp::Trace apply(const dsp::Trace& trace);

  const FaultProfile& profile() const { return profile_; }
  const FaultStats& stats() const { return stats_; }

  /// Mirrors activations into `fault_activations_total{kind=...}` (plus
  /// `fault_traces_total`) on top of the local stats.  Null detaches.
  /// Injection itself stays bit-identical — the RNG never sees this.
  void bind_metrics(obs::MetricsRegistry* registry);

 private:
  FaultProfile profile_;
  double max_code_;
  stats::Rng rng_;
  FaultStats stats_;
  /// Cumulative offsets in codes of the slow-drift and drift-masquerade
  /// ramps; independent of each other, the two ramps compose.
  double slow_drift_shift_ = 0.0;
  double masquerade_shift_ = 0.0;
  std::uint64_t masquerade_ticks_ = 0;
  std::array<obs::Counter*, kNumFaultKinds> metric_applied_{};
  obs::Counter* metric_traces_ = nullptr;
};

/// The individual transforms, exposed for tests and custom pipelines.
/// Each draws its parameters from `rng` and never throws on any input
/// (including empty traces, which pass through unchanged).
dsp::Trace apply_clipping(const dsp::Trace& trace, const ClippingFault& f,
                          double max_code);
dsp::Trace apply_dropout(const dsp::Trace& trace, const DropoutFault& f,
                         stats::Rng& rng);
dsp::Trace apply_dc_shift(const dsp::Trace& trace, const DcShiftFault& f,
                          double max_code, stats::Rng& rng);
dsp::Trace apply_emi_burst(const dsp::Trace& trace, const EmiBurstFault& f,
                           double max_code, stats::Rng& rng);
dsp::Trace apply_clock_drift(const dsp::Trace& trace, const ClockDriftFault& f,
                             stats::Rng& rng);
dsp::Trace apply_truncation(const dsp::Trace& trace, const TruncationFault& f,
                            stats::Rng& rng);
/// Applies a caller-maintained cumulative shift (see SlowDriftFault); the
/// injector advances its own state before calling this.
dsp::Trace apply_slow_drift(const dsp::Trace& trace, double shift,
                            double max_code);
/// Parameter-deterministic overcurrent shaping (no RNG): gain 0 and
/// offset 0 return the input bit-exactly.
dsp::Trace apply_overcurrent(const dsp::Trace& trace,
                             const OvercurrentFault& f, double max_code);
/// Parameter-deterministic corruption burst (no RNG): amplitude 0 returns
/// the input bit-exactly.
dsp::Trace apply_corruption_burst(const dsp::Trace& trace,
                                  const CorruptionBurstFault& f,
                                  double max_code);
/// True when the `tick`-th firing (1-based) of a duty-cycled schedule
/// advances: the deterministic Bresenham spacing DriftMasqueradeFault and
/// the adversary harness share.  duty is clamped to [0, 1].
bool duty_cycle_fires(std::uint64_t tick, double duty);

}  // namespace faults
