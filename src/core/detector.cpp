#include "core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace vprofile {

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kUnknownSa: return "unknown SA";
    case Verdict::kClusterMismatch: return "cluster mismatch";
    case Verdict::kDistanceExceeded: return "distance exceeded";
    case Verdict::kDegraded: return "degraded";
  }
  return "unknown";
}

namespace {

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

}  // namespace

bool detect_prescore(const Model& model, const EdgeSet& edge_set,
                     const DetectionConfig& config, Detection* out) {
  Detection& result = *out;
  result = Detection{};

  // Quality gate first: a mangled capture makes every downstream quantity
  // (including the decoded SA) untrustworthy, so no confident verdict can
  // be built on top of it.
  std::size_t unreliable = 0;
  bool non_finite = false;
  const bool rails_gate = std::isfinite(config.saturation_code) ||
                          config.dead_code >
                              -std::numeric_limits<double>::infinity();
  for (double s : edge_set.samples) {
    if (!std::isfinite(s)) {
      non_finite = true;
      ++unreliable;
    } else if (rails_gate &&
               (s >= config.saturation_code || s <= config.dead_code)) {
      ++unreliable;
    }
  }
  if (config.flat_run_min > 1) {
    // Count samples sitting in runs of identical values; overlap with the
    // rail check is deliberate (a sample is unreliable once, whichever
    // symptom exposed it first) so the run scan only counts samples the
    // rails did not already claim.
    const auto& xs = edge_set.samples;
    std::size_t i = 0;
    while (i < xs.size()) {
      std::size_t j = i + 1;
      // Exact equality by intent: a flat run repeats one value exactly
      // (NaN never joins a run).  std::equal_to is the plain ==, spelled
      // out because -Wfloat-equal flags only a bare one.
      while (j < xs.size() && std::equal_to<double>{}(xs[j], xs[i])) ++j;
      const std::size_t run = j - i;
      if (run >= config.flat_run_min && std::isfinite(xs[i]) &&
          (!rails_gate || (xs[i] < config.saturation_code &&
                           xs[i] > config.dead_code))) {
        unreliable += run;
      }
      i = j;
    }
  }
  result.unreliable_samples = unreliable;
  result.expected_cluster = model.cluster_of(edge_set.sa);

  const std::size_t dim = edge_set.samples.size();
  const bool wrong_dim = dim != model.dimension();
  const bool too_many_bad =
      dim > 0 && static_cast<double>(unreliable) >
                     config.degraded_fraction * static_cast<double>(dim);
  if (non_finite || wrong_dim || dim == 0 || too_many_bad) {
    result.verdict = Verdict::kDegraded;
    result.confidence =
        (non_finite || wrong_dim || dim == 0)
            ? 0.0
            : clamp01(1.0 - static_cast<double>(unreliable) /
                                static_cast<double>(dim));
    return false;
  }

  if (!result.expected_cluster) {
    result.verdict = Verdict::kUnknownSa;
    return false;
  }
  return true;
}

void detect_postscore(const Model& model, const DetectionConfig& config,
                      std::size_t predicted, double min_distance,
                      Detection* out) {
  Detection& result = *out;
  result.predicted_cluster = predicted;
  result.min_distance = min_distance;

  if (predicted != *result.expected_cluster) {
    result.verdict = Verdict::kClusterMismatch;
    return;
  }
  const double threshold =
      model.clusters()[predicted].max_distance + config.margin;
  if (min_distance > threshold) {
    result.verdict = Verdict::kDistanceExceeded;
    // Far beyond the threshold -> confident anomaly; barely over -> weak.
    result.confidence = min_distance > 0.0
                            ? clamp01((min_distance - threshold) / min_distance)
                            : 0.0;
    return;
  }
  result.verdict = Verdict::kOk;
  // Deep inside the threshold -> confident pass; close to it -> weak.
  result.confidence =
      threshold > 0.0 ? clamp01((threshold - min_distance) / threshold) : 1.0;
}

Detection detect(const Model& model, const EdgeSet& edge_set,
                 const DetectionConfig& config) {
  Detection result;
  if (!detect_prescore(model, edge_set, config, &result)) return result;
  const auto [predicted, min_dist] = model.nearest_cluster(edge_set.samples);
  detect_postscore(model, config, predicted, min_dist, &result);
  return result;
}

}  // namespace vprofile
