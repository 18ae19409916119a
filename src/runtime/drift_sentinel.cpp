#include "runtime/drift_sentinel.hpp"

#include <algorithm>

namespace runtime {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDrifting: return "drifting";
    case HealthState::kRetraining: return "retraining";
    case HealthState::kDegraded: return "degraded";
  }
  return "unknown";
}

DriftSentinel::DriftSentinel(std::size_t num_clusters, DriftConfig config)
    : config_(config), state_(num_clusters) {}

bool DriftSentinel::observe(std::size_t cluster, double distance) {
  ClusterState& s = state_[cluster];
  if (s.alarmed) return false;
  ++s.n;
  // Running mean first, excursion second: a sample only contributes the
  // part of its deviation the mean has not already absorbed.
  s.mean += (distance - s.mean) / static_cast<double>(s.n);
  s.cumulative += distance - s.mean - config_.delta;
  s.cumulative_min = std::min(s.cumulative_min, s.cumulative);
  if (s.n < config_.min_samples) return false;
  if (s.cumulative - s.cumulative_min > config_.lambda) {
    s.alarmed = true;
    ++alarms_;
    return true;
  }
  return false;
}

void DriftSentinel::reset(std::size_t cluster) {
  state_[cluster] = ClusterState{};
}

void DriftSentinel::reset_all() {
  for (std::size_t c = 0; c < state_.size(); ++c) reset(c);
}

}  // namespace runtime
