#include "core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

#include "core/batch_scorer.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/simd_dispatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace vprofile {
namespace {

/// Members per pass of the threshold distance kernels (a multiple of 4).
constexpr std::size_t kThresholdChunk = 64;

/// Edge sets grouped into clusters, each with a name and its SA list.
struct ClusterGroup {
  std::string name;
  std::vector<std::uint8_t> sas;
  std::vector<const EdgeSet*> members;
};

/// Per-cluster outcome.
struct ClusterBuild {
  std::optional<ClusterModel> cluster;
  std::string error;
  double ridge_used = 0.0;
};

/// Accumulates one cluster's statistics (covariance, factorization,
/// inverse, max training distance).  Consumes the group.
ClusterBuild build_cluster(ClusterGroup& g, const TrainingConfig& config) {
  ClusterBuild build;
  const std::size_t dim = config.extraction.dimension();
  if (g.members.size() < config.min_cluster_size) {
    std::ostringstream os;
    os << "cluster '" << g.name << "' has only " << g.members.size()
       << " edge sets (min " << config.min_cluster_size << ")";
    build.error = os.str();
    return build;
  }
  linalg::CovarianceAccumulator acc(dim);
  for (const EdgeSet* e : g.members) {
    if (e->samples.size() != dim) {
      build.error = "edge set dimension mismatch";
      return build;
    }
    acc.add(e->samples);
  }

  ClusterModel cm;
  cm.name = std::move(g.name);
  cm.sas = std::move(g.sas);
  cm.mean = acc.mean();
  cm.edge_set_count = acc.count();

  if (config.metric == DistanceMetric::kMahalanobis) {
    cm.covariance = acc.covariance();
    std::optional<linalg::Cholesky> factor =
        linalg::Cholesky::factorize(cm.covariance);
    if (!factor && config.ridge > 0.0) {
      auto ridged = linalg::factorize_with_ridge(cm.covariance, config.ridge);
      if (ridged) {
        build.ridge_used = ridged->ridge;
        cm.covariance.add_ridge(ridged->ridge);
        factor = std::move(ridged->factor);
      }
    }
    if (!factor) {
      build.error = "singular covariance matrix for cluster '" + cm.name + "'";
      return build;
    }
    cm.inv_covariance = factor->inverse();
  }

  // Detection threshold: the largest training distance to the mean.  The
  // Mahalanobis distances come from the batch kernels, each bit-identical
  // to mahalanobis_distance_inv.
  double max_dist = 0.0;
  if (config.metric == DistanceMetric::kEuclidean) {
    for (const EdgeSet* e : g.members) {
      max_dist =
          std::max(max_dist, linalg::euclidean_distance(e->samples, cm.mean));
    }
  } else {
    // kThresholdChunk members at a time, so the transpose stays a few
    // tens of KB (cache-resident, and below malloc's mmap threshold)
    // whatever the cluster size.
    const linalg::simd::Backend backend =
        linalg::simd::resolve(linalg::simd::Backend::kAuto);
    const std::size_t n = g.members.size();
    FeatureBatch batch;
    double dist[kThresholdChunk];
    for (std::size_t off = 0; off < n; off += kThresholdChunk) {
      const std::size_t m = std::min(kThresholdChunk, n - off);
      batch.transpose_sets(g.members.data() + off, nullptr, m, dim);
      batch.mahalanobis_distances(backend, cm.mean.data(),
                                  cm.inv_covariance.data().data(), nullptr,
                                  dist);
      for (std::size_t e = 0; e < m; ++e) {
        max_dist = std::max(max_dist, dist[e]);
      }
    }
  }
  cm.max_distance = max_dist;
  build.cluster = std::move(cm);
  return build;
}

/// Builds the per-cluster statistics and assembles the model.  Every
/// cluster is fitted (and observed) before the outcome is assembled.
TrainOutcome finalize(std::vector<ClusterGroup> groups,
                      const TrainingConfig& config) {
  TrainOutcome outcome;
  if (groups.empty()) {
    outcome.error = "no training data";
    return outcome;
  }

  const std::size_t n = groups.size();
  std::vector<ClusterBuild> builds(n);
  obs::Histogram* fit_hist =
      config.metrics != nullptr
          ? config.metrics->histogram("train_cluster_fit_ns")
          : nullptr;
  obs::Counter* fit_total =
      config.metrics != nullptr
          ? config.metrics->counter("train_clusters_total")
          : nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (fit_hist == nullptr && config.tracer == nullptr) {
      builds[i] = build_cluster(groups[i], config);
      continue;
    }
    const std::uint64_t trace_start =
        config.tracer != nullptr ? config.tracer->now_ns() : 0;
    const auto t0 = std::chrono::steady_clock::now();
    builds[i] = build_cluster(groups[i], config);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (fit_hist != nullptr) {
      fit_hist->observe(ns);
      fit_total->add();
    }
    if (config.tracer != nullptr) {
      config.tracer->record("train.cluster_fit", trace_start, ns);
    }
  }

  // Aggregate in cluster order: the first failing cluster's error is
  // reported, with the ridge accumulated over the clusters before it.
  std::vector<ClusterModel> clusters;
  clusters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    outcome.ridge_used = std::max(outcome.ridge_used, builds[i].ridge_used);
    if (!builds[i].error.empty()) {
      outcome.error = builds[i].error;
      return outcome;
    }
    clusters.push_back(std::move(*builds[i].cluster));
  }

  outcome.model.emplace(config.metric, config.extraction, std::move(clusters));
  return outcome;
}

}  // namespace

TrainOutcome train_with_database(const std::vector<EdgeSet>& edge_sets,
                                 const SaDatabase& database,
                                 const TrainingConfig& config) {
  TrainOutcome outcome;
  if (edge_sets.empty()) {
    outcome.error = "no training data";
    return outcome;
  }

  // One group per distinct ECU name; SA lists from the database.
  std::map<std::string, ClusterGroup> by_name;
  for (const auto& [sa, name] : database) {
    ClusterGroup& g = by_name[name];
    g.name = name;
    g.sas.push_back(sa);
  }
  for (const EdgeSet& e : edge_sets) {
    auto it = database.find(e.sa);
    if (it == database.end()) {
      std::ostringstream os;
      os << "training edge set with SA " << static_cast<int>(e.sa)
         << " not present in the database";
      outcome.error = os.str();
      return outcome;
    }
    by_name[it->second].members.push_back(&e);
  }

  std::vector<ClusterGroup> groups;
  groups.reserve(by_name.size());
  for (auto& [name, g] : by_name) {
    if (g.members.empty()) continue;  // DB entry that never transmitted
    groups.push_back(std::move(g));
  }
  return finalize(std::move(groups), config);
}

std::vector<std::size_t> cluster_sa_groups_by_distance(
    const std::vector<std::uint8_t>& sas,
    const std::vector<linalg::Vector>& sa_means, double merge_threshold) {
  const std::size_t n = sas.size();
  if (n != sa_means.size()) {
    throw std::invalid_argument(
        "cluster_sa_groups_by_distance: size mismatch");
  }
  if (n == 0) return {};

  // Pairwise distances between SA-group means.
  struct Pair {
    double dist;
    std::size_t a, b;
  };
  std::vector<Pair> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      pairs.push_back(
          {linalg::euclidean_distance(sa_means[i], sa_means[j]), i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& x, const Pair& y) { return x.dist < y.dist; });

  // Automatic threshold: the largest relative gap in the sorted distance
  // list separates same-ECU pairs from different-ECU pairs.  Only gaps in
  // the lower half of the list are considered — merge candidates are by
  // definition the small distances, and gaps between two genuinely
  // different ECUs (e.g. a near-twin pair vs the rest) must not move the
  // threshold above them.
  double threshold = merge_threshold;
  if (threshold <= 0.0 && pairs.size() >= 2) {
    double best_ratio = 0.0;
    const std::size_t last_gap = std::max<std::size_t>(1, pairs.size() / 2);
    for (std::size_t k = 0; k < last_gap && k + 1 < pairs.size(); ++k) {
      const double lo = std::max(pairs[k].dist, 1e-12);
      const double ratio = pairs[k + 1].dist / lo;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        threshold = (pairs[k].dist + pairs[k + 1].dist) / 2.0;
      }
    }
    // Without a pronounced gap (same-ECU pairs are typically orders of
    // magnitude closer than cross-ECU pairs), treat every SA as its own
    // ECU rather than merging on incidental spacing differences.
    if (best_ratio < 3.0) threshold = -1.0;
  }

  // Union-find over SA groups, merging pairs under the threshold.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Pair& p : pairs) {
    if (p.dist >= threshold) break;
    parent[find(p.a)] = find(p.b);
  }

  // Compact root ids into dense cluster indices in first-seen order.
  std::map<std::size_t, std::size_t> root_to_cluster;
  std::vector<std::size_t> assignment(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    auto [it, inserted] =
        root_to_cluster.try_emplace(root, root_to_cluster.size());
    assignment[i] = it->second;
  }
  return assignment;
}

TrainOutcome train_by_distance(const std::vector<EdgeSet>& edge_sets,
                               const TrainingConfig& config) {
  TrainOutcome outcome;
  if (edge_sets.empty()) {
    outcome.error = "no training data";
    return outcome;
  }

  // GroupBySA.
  std::map<std::uint8_t, std::vector<const EdgeSet*>> by_sa;
  for (const EdgeSet& e : edge_sets) by_sa[e.sa].push_back(&e);

  std::vector<std::uint8_t> sas;
  std::vector<linalg::Vector> means;
  sas.reserve(by_sa.size());
  means.reserve(by_sa.size());
  const std::size_t dim = config.extraction.dimension();
  for (const auto& [sa, members] : by_sa) {
    linalg::CovarianceAccumulator acc(dim);
    for (const EdgeSet* e : members) {
      if (e->samples.size() != dim) {
        outcome.error = "edge set dimension mismatch";
        return outcome;
      }
      acc.add(e->samples);
    }
    sas.push_back(sa);
    means.push_back(acc.mean());
  }

  const std::vector<std::size_t> assignment =
      cluster_sa_groups_by_distance(sas, means, config.merge_threshold);
  const std::size_t num_clusters =
      assignment.empty()
          ? 0
          : 1 + *std::max_element(assignment.begin(), assignment.end());

  std::vector<ClusterGroup> groups(num_clusters);
  for (std::size_t i = 0; i < sas.size(); ++i) {
    ClusterGroup& g = groups[assignment[i]];
    if (g.name.empty()) {
      g.name = "ECU " + std::to_string(assignment[i]);
    }
    g.sas.push_back(sas[i]);
    for (const EdgeSet* e : by_sa[sas[i]]) g.members.push_back(e);
  }
  return finalize(std::move(groups), config);
}

}  // namespace vprofile
