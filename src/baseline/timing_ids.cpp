#include "baseline/timing_ids.hpp"

#include <algorithm>
#include <cmath>

namespace baseline {

bool ClockSkewIds::train(const std::vector<TimedMessage>& messages,
                         std::string* error) {
  auto set_error = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  std::map<std::uint8_t, std::vector<double>> arrivals;
  for (const TimedMessage& m : messages) arrivals[m.sa].push_back(m.time_s);
  if (arrivals.empty()) return set_error("ClockSkewIds: no training data");

  profiles_.clear();
  for (auto& [sa, ts] : arrivals) {
    if (ts.size() < options_.min_train_messages) {
      return set_error("ClockSkewIds: SA " + std::to_string(sa) +
                       " has too few messages");
    }
    std::sort(ts.begin(), ts.end());
    const std::size_t n = ts.size();

    // Nominal period from the full span (robust to jitter).
    Profile p;
    p.period = (ts.back() - ts.front()) / static_cast<double>(n - 1);

    // Offsets against the nominal grid; the slope of offset vs index is
    // the clock skew (least squares with intercept, since t0 is itself
    // jittered).
    double sum_k = 0.0;
    double sum_o = 0.0;
    double sum_kk = 0.0;
    double sum_ko = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double k = static_cast<double>(i);
      const double offset =
          ts[i] - (ts.front() + k * p.period);
      sum_k += k;
      sum_o += offset;
      sum_kk += k * k;
      sum_ko += k * offset;
    }
    const double denom =
        static_cast<double>(n) * sum_kk - sum_k * sum_k;
    // Exact-zero guard against division by zero, not a tolerance test.
    p.skew = (std::fpclassify(denom) != FP_ZERO)
                 ? (static_cast<double>(n) * sum_ko - sum_k * sum_o) / denom
                 : 0.0;

    // Residual jitter around the skew line.
    const double intercept =
        (sum_o - p.skew * sum_k) / static_cast<double>(n);
    double ss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double k = static_cast<double>(i);
      const double offset = ts[i] - (ts.front() + k * p.period);
      const double resid = offset - (intercept + p.skew * k);
      ss += resid * resid;
    }
    p.residual_sigma =
        std::max(1e-9, std::sqrt(ss / static_cast<double>(n)));
    profiles_[sa] = p;
  }
  reset_online_state();
  return true;
}

ClockSkewIds::Verdict ClockSkewIds::observe(const TimedMessage& message) {
  const auto it = profiles_.find(message.sa);
  if (it == profiles_.end()) return Verdict::kUnknownSa;
  const Profile& p = it->second;
  Online& state = online_[message.sa];

  if (!state.started) {
    state.started = true;
    state.t0 = message.time_s;
    state.k = 0;
    return Verdict::kOk;
  }
  ++state.k;

  // Accumulated offset against the trained period grid.
  const double k = static_cast<double>(state.k);
  const double offset = message.time_s - (state.t0 + k * p.period);

  // Warm-up: settle the offset intercept (t0's own jitter) before
  // scoring, otherwise every step inherits a constant bias.
  if (state.intercept_n < kInterceptWarmup) {
    state.intercept_sum += offset - p.skew * k;
    ++state.intercept_n;
    return Verdict::kOk;
  }
  const double intercept =
      state.intercept_sum / static_cast<double>(state.intercept_n);

  // Identification error: deviation from the trained skew line,
  // normalized by sqrt(k) so small period-estimation errors (which grow
  // the raw deviation linearly in k) do not accumulate into false alarms
  // over long horizons, while genuine skew changes still dominate.
  const double expected = intercept + p.skew * k;
  const double e =
      (offset - expected) / (p.residual_sigma * std::sqrt(k));

  // Two-sided CUSUM.
  state.cusum_pos = std::max(0.0, state.cusum_pos + e - options_.cusum_slack);
  state.cusum_neg = std::max(0.0, state.cusum_neg - e - options_.cusum_slack);
  if (state.cusum_pos > options_.cusum_threshold ||
      state.cusum_neg > options_.cusum_threshold) {
    return Verdict::kAnomaly;
  }
  return Verdict::kOk;
}

void ClockSkewIds::reset_online_state() { online_.clear(); }

}  // namespace baseline
