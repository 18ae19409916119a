#include "faults/fault.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kClipping: return "clipping";
    case FaultKind::kDropout: return "dropout";
    case FaultKind::kDcShift: return "dc-shift";
    case FaultKind::kEmiBurst: return "emi-burst";
    case FaultKind::kClockDrift: return "clock-drift";
    case FaultKind::kTruncation: return "truncation";
    case FaultKind::kSlowDrift: return "slow-drift";
    case FaultKind::kOvercurrent: return "overcurrent";
    case FaultKind::kCorruptionBurst: return "corruption-burst";
    case FaultKind::kDriftMasquerade: return "drift-masquerade";
  }
  return "unknown";
}

bool FaultProfile::empty() const {
  const auto active = [](const auto& f) { return f && f->probability > 0.0; };
  return !(active(clipping) || active(dropout) || active(dc_shift) ||
           active(emi_burst) || active(clock_drift) || active(truncation) ||
           active(slow_drift) || active(overcurrent) ||
           active(corruption_burst) || active(drift_masquerade));
}

FaultProfile clean_profile() { return FaultProfile{}; }

FaultProfile saturated_tap() {
  FaultProfile p;
  p.name = "saturated-tap";
  p.clipping = ClippingFault{0.8, 0.7, false};
  return p;
}

FaultProfile flaky_connector() {
  FaultProfile p;
  p.name = "flaky-connector";
  p.dropout = DropoutFault{0.5, 8, 96};
  p.dc_shift = DcShiftFault{0.5, -1500.0, 1500.0};
  return p;
}

FaultProfile emi_storm() {
  FaultProfile p;
  p.name = "emi-storm";
  p.emi_burst = EmiBurstFault{0.7, 4000.0, 32, 400};
  return p;
}

FaultProfile drifting_clock() {
  FaultProfile p;
  p.name = "drifting-clock";
  p.clock_drift = ClockDriftFault{1.0, 20000.0};
  return p;
}

FaultProfile truncating_tap() {
  FaultProfile p;
  p.name = "truncating-tap";
  p.truncation = TruncationFault{0.4, 0.3};
  return p;
}

FaultProfile harsh_environment() {
  FaultProfile p;
  p.name = "harsh";
  p.clipping = ClippingFault{0.3, 0.75, false};
  p.dropout = DropoutFault{0.25, 8, 64};
  p.dc_shift = DcShiftFault{0.3, -1000.0, 1000.0};
  p.emi_burst = EmiBurstFault{0.3, 2500.0, 16, 200};
  p.clock_drift = ClockDriftFault{0.3, 10000.0};
  p.truncation = TruncationFault{0.15, 0.4};
  return p;
}

FaultProfile slow_poison() {
  FaultProfile p;
  p.name = "slow-poison";
  // Always fires; each step is ~0.06% of a 16-bit full scale — far inside
  // any sane margin — but the saturated shift is a full signature's worth.
  p.slow_drift = SlowDriftFault{1.0, 25.0, 3000.0};
  return p;
}

std::vector<FaultProfile> canned_profiles() {
  return {clean_profile(),   saturated_tap(),  flaky_connector(),
          emi_storm(),       drifting_clock(), truncating_tap(),
          harsh_environment(), slow_poison()};
}

std::optional<FaultProfile> profile_by_name(const std::string& name) {
  for (FaultProfile& p : canned_profiles()) {
    if (p.name == name) return std::move(p);
  }
  return std::nullopt;
}

namespace {

double clamp_code(double code, double max_code) {
  return std::clamp(code, 0.0, max_code);
}

/// Random window [start, start+len) inside a trace; len clamped to size.
std::pair<std::size_t, std::size_t> draw_window(std::size_t size,
                                                std::size_t min_len,
                                                std::size_t max_len,
                                                stats::Rng& rng) {
  const std::size_t lo = std::max<std::size_t>(1, std::min(min_len, size));
  const std::size_t hi = std::max(lo, std::min(max_len, size));
  const std::size_t len =
      lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
  const std::size_t start =
      static_cast<std::size_t>(rng.below(size - len + 1));
  return {start, len};
}

}  // namespace

dsp::Trace apply_clipping(const dsp::Trace& trace, const ClippingFault& f,
                          double max_code) {
  const double high = f.level_fraction * max_code;
  const double low = f.symmetric ? (1.0 - f.level_fraction) * max_code : 0.0;
  dsp::Trace out = trace;
  for (double& c : out) c = std::clamp(c, low, high);
  return out;
}

dsp::Trace apply_dropout(const dsp::Trace& trace, const DropoutFault& f,
                         stats::Rng& rng) {
  if (trace.empty()) return trace;
  dsp::Trace out = trace;
  const auto [start, len] = draw_window(out.size(), f.min_len, f.max_len, rng);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(start),
            out.begin() + static_cast<std::ptrdiff_t>(start + len), 0.0);
  return out;
}

dsp::Trace apply_dc_shift(const dsp::Trace& trace, const DcShiftFault& f,
                          double max_code, stats::Rng& rng) {
  const double shift = rng.uniform(f.min_shift, f.max_shift);
  dsp::Trace out = trace;
  for (double& c : out) c = clamp_code(c + shift, max_code);
  return out;
}

dsp::Trace apply_emi_burst(const dsp::Trace& trace, const EmiBurstFault& f,
                           double max_code, stats::Rng& rng) {
  if (trace.empty()) return trace;
  dsp::Trace out = trace;
  const auto [start, len] = draw_window(out.size(), f.min_len, f.max_len, rng);
  for (std::size_t i = start; i < start + len; ++i) {
    out[i] = clamp_code(out[i] + rng.gaussian(0.0, f.sigma), max_code);
  }
  return out;
}

dsp::Trace apply_clock_drift(const dsp::Trace& trace, const ClockDriftFault& f,
                             stats::Rng& rng) {
  if (trace.size() < 2) return trace;
  // Effective sampling ratio: > 1 when the tap clock runs slow (reads the
  // message stretched), < 1 when fast.
  const double drift = rng.uniform(-f.max_drift_ppm, f.max_drift_ppm) * 1e-6;
  const double ratio = 1.0 + drift;
  const std::size_t out_len = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::floor(static_cast<double>(trace.size() - 1) / ratio)) +
             1);
  dsp::Trace out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    const double pos = static_cast<double>(i) * ratio;
    const std::size_t lo =
        std::min(static_cast<std::size_t>(pos), trace.size() - 1);
    const std::size_t hi = std::min(lo + 1, trace.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = trace[lo] + (trace[hi] - trace[lo]) * frac;
  }
  return out;
}

dsp::Trace apply_truncation(const dsp::Trace& trace, const TruncationFault& f,
                            stats::Rng& rng) {
  if (trace.empty()) return trace;
  const double keep = rng.uniform(std::clamp(f.min_keep, 0.0, 1.0), 1.0);
  const std::size_t len = std::max<std::size_t>(
      1, static_cast<std::size_t>(keep * static_cast<double>(trace.size())));
  return dsp::Trace(trace.begin(),
                    trace.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(len, trace.size())));
}

dsp::Trace apply_slow_drift(const dsp::Trace& trace, double shift,
                            double max_code) {
  dsp::Trace out = trace;
  for (double& c : out) c = clamp_code(c + shift, max_code);
  return out;
}

dsp::Trace apply_overcurrent(const dsp::Trace& trace,
                             const OvercurrentFault& f, double max_code) {
  const double dominant_level = f.dominant_fraction * max_code;
  dsp::Trace out = trace;
  for (double& c : out) {
    // With gain 0 the factor is exactly 1.0 and with offset 0 the addend
    // is exactly 0.0, so the zero-parameter transform is bit-exact
    // identity for in-range codes (the no-op property the adversary
    // search and the tests rely on).
    const double driven = c >= dominant_level ? c * (1.0 + f.gain) : c;
    c = clamp_code(driven + f.offset, max_code);
  }
  return out;
}

dsp::Trace apply_corruption_burst(const dsp::Trace& trace,
                                  const CorruptionBurstFault& f,
                                  double max_code) {
  const double period = std::max(1.0, f.period_samples);
  const double duty = std::clamp(f.duty, 0.0, 1.0);
  dsp::Trace out = trace;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double cycles = static_cast<double>(i) / period + f.phase;
    const double frac = cycles - std::floor(cycles);
    if (frac < duty) {
      const double corruption =
          f.amplitude * std::sin(2.0 * 3.14159265358979323846 * cycles);
      out[i] = clamp_code(out[i] + corruption, max_code);
    }
  }
  return out;
}

bool duty_cycle_fires(std::uint64_t tick, double duty) {
  const double d = std::clamp(duty, 0.0, 1.0);
  // Fire when the running quota floor(tick * duty) advances over the
  // previous tick's quota — the classic Bresenham spacing, exact in
  // double for any realistic tick count.
  const double quota = std::floor(static_cast<double>(tick) * d);
  const double prev = std::floor(static_cast<double>(tick - 1) * d);
  return quota > prev;
}

FaultInjector::FaultInjector(FaultProfile profile, double max_code,
                             units::Seed64 seed)
    : profile_(std::move(profile)), max_code_(max_code), rng_(seed) {}

void FaultInjector::bind_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_applied_ = {};
    metric_traces_ = nullptr;
    return;
  }
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    metric_applied_[k] = registry->counter(
        "fault_activations_total",
        {{"kind", to_string(static_cast<FaultKind>(k))}});
  }
  metric_traces_ = registry->counter("fault_traces_total");
}

dsp::Trace FaultInjector::apply(const dsp::Trace& trace) {
  ++stats_.total_traces;
  if (metric_traces_ != nullptr) metric_traces_->add();
  dsp::Trace out = trace;
  bool any = false;
  const auto fire = [&](const auto& fault, FaultKind kind, auto&& transform) {
    // The Bernoulli draw happens for every configured fault on every
    // trace, so the random stream (and thus the whole corrupted capture
    // sequence) is a pure function of profile + seed.
    if (!fault || fault->probability <= 0.0) return;
    if (!rng_.bernoulli(fault->probability)) return;
    out = transform(*fault);
    ++stats_.applied[static_cast<std::size_t>(kind)];
    if (obs::Counter* c = metric_applied_[static_cast<std::size_t>(kind)]) {
      c->add();
    }
    any = true;
  };
  fire(profile_.clipping, FaultKind::kClipping, [&](const ClippingFault& f) {
    return apply_clipping(out, f, max_code_);
  });
  fire(profile_.dropout, FaultKind::kDropout, [&](const DropoutFault& f) {
    return apply_dropout(out, f, rng_);
  });
  fire(profile_.dc_shift, FaultKind::kDcShift, [&](const DcShiftFault& f) {
    return apply_dc_shift(out, f, max_code_, rng_);
  });
  fire(profile_.emi_burst, FaultKind::kEmiBurst, [&](const EmiBurstFault& f) {
    return apply_emi_burst(out, f, max_code_, rng_);
  });
  fire(profile_.clock_drift, FaultKind::kClockDrift,
       [&](const ClockDriftFault& f) { return apply_clock_drift(out, f, rng_); });
  fire(profile_.truncation, FaultKind::kTruncation,
       [&](const TruncationFault& f) { return apply_truncation(out, f, rng_); });
  fire(profile_.slow_drift, FaultKind::kSlowDrift,
       [&](const SlowDriftFault& f) {
         slow_drift_shift_ = std::clamp(slow_drift_shift_ + f.step,
                                        -f.max_shift, f.max_shift);
         return apply_slow_drift(out, slow_drift_shift_, max_code_);
       });
  fire(profile_.overcurrent, FaultKind::kOvercurrent,
       [&](const OvercurrentFault& f) {
         return apply_overcurrent(out, f, max_code_);
       });
  fire(profile_.corruption_burst, FaultKind::kCorruptionBurst,
       [&](const CorruptionBurstFault& f) {
         return apply_corruption_burst(out, f, max_code_);
       });
  fire(profile_.drift_masquerade, FaultKind::kDriftMasquerade,
       [&](const DriftMasqueradeFault& f) {
         ++masquerade_ticks_;
         if (duty_cycle_fires(masquerade_ticks_, f.duty)) {
           masquerade_shift_ = std::clamp(masquerade_shift_ + f.ramp_rate,
                                          -f.max_shift, f.max_shift);
         }
         return apply_slow_drift(out, masquerade_shift_, max_code_);
       });
  if (any) ++stats_.faulted_traces;
  return out;
}

}  // namespace faults
