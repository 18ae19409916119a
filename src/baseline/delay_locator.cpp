#include "baseline/delay_locator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/welford.hpp"

namespace baseline {

DelayEstimator::DelayEstimator(std::size_t max_lag_samples,
                               double sample_rate_hz)
    : max_lag_(max_lag_samples), sample_rate_hz_(sample_rate_hz) {
  if (max_lag_samples == 0 || sample_rate_hz <= 0.0) {
    throw std::invalid_argument("DelayEstimator: invalid arguments");
  }
}

std::optional<double> DelayEstimator::estimate(const dsp::Trace& a,
                                               const dsp::Trace& b) const {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 4 * max_lag_ + 8) return std::nullopt;

  // Work on mean-removed signals so the DC level does not dominate.
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);

  // Cross-correlation over integer lags in [-max_lag, +max_lag]:
  // r(L) = sum_a (a[i]-ma) * (b[i+L]-mb); the peak lag is where b best
  // matches a shifted by L, i.e. b lags a by L samples.
  const std::ptrdiff_t max_lag = static_cast<std::ptrdiff_t>(max_lag_);
  std::vector<double> r(2 * max_lag_ + 1, 0.0);
  double energy = 0.0;
  for (std::ptrdiff_t lag = -max_lag; lag <= max_lag; ++lag) {
    double s = 0.0;
    const std::size_t first = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, -lag));
    const std::size_t last =
        n - static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, lag));
    for (std::size_t i = first; i < last; ++i) {
      s += (a[i] - mean_a) *
           (b[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) + lag)] -
            mean_b);
    }
    r[static_cast<std::size_t>(lag + max_lag)] = s;
    energy = std::max(energy, std::fabs(s));
  }
  if (energy <= 0.0) return std::nullopt;  // flat signals

  const auto peak_it = std::max_element(r.begin(), r.end());
  const std::size_t peak = static_cast<std::size_t>(peak_it - r.begin());

  // Parabolic interpolation around the peak for sub-sample resolution.
  double frac = 0.0;
  if (peak > 0 && peak + 1 < r.size()) {
    const double y0 = r[peak - 1];
    const double y1 = r[peak];
    const double y2 = r[peak + 1];
    const double denom = y0 - 2.0 * y1 + y2;
    if (std::fabs(denom) > 1e-12 * std::fabs(y1)) {
      frac = 0.5 * (y0 - y2) / denom;
      frac = std::clamp(frac, -0.5, 0.5);
    }
  }
  const double lag_samples =
      static_cast<double>(static_cast<std::ptrdiff_t>(peak) - max_lag) + frac;
  return lag_samples / sample_rate_hz_;
}

DelayLocatorIds::DelayLocatorIds(Options options)
    : options_(options),
      estimator_(options.max_lag_samples, options.sample_rate_hz) {}

bool DelayLocatorIds::train(const std::vector<TapPair>& pairs,
                            std::string* error) {
  auto set_error = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::map<std::uint8_t, stats::Welford> acc;
  for (const TapPair& p : pairs) {
    const auto delay = estimator_.estimate(p.tap_a, p.tap_b);
    if (delay) acc[p.sa].add(*delay);
  }
  if (acc.empty()) return set_error("DelayLocatorIds: no usable pairs");

  profiles_.clear();
  for (const auto& [sa, w] : acc) {
    if (w.count() < options_.min_train_messages) {
      return set_error("DelayLocatorIds: SA " + std::to_string(sa) +
                       " has too few usable pairs");
    }
    Profile p;
    p.mean = w.mean();
    // Floor the spread at a tenth of a sample period: a perfectly stable
    // estimate would otherwise make every test message an outlier.
    p.sigma = std::max(w.sample_stddev(),
                       0.1 / options_.sample_rate_hz);
    profiles_[sa] = p;
  }
  return true;
}

std::optional<DelayLocatorIds::Classification> DelayLocatorIds::classify(
    const dsp::Trace& tap_a, const dsp::Trace& tap_b,
    std::uint8_t claimed_sa) const {
  const auto it = profiles_.find(claimed_sa);
  if (it == profiles_.end()) return std::nullopt;
  const auto delay = estimator_.estimate(tap_a, tap_b);
  if (!delay) return std::nullopt;

  Classification c;
  c.delay_s = *delay;
  c.z = (*delay - it->second.mean) / it->second.sigma;
  c.anomaly = std::fabs(c.z) > options_.threshold_sigma;
  return c;
}

}  // namespace baseline
