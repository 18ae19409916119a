#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "core/online_update.hpp"
#include "core/trainer.hpp"
#include "stats/rng.hpp"
#include "oracles.hpp"

namespace {

using vprofile::DistanceMetric;
using vprofile::EdgeSet;
using vprofile::Model;
using vprofile::OnlineUpdater;
using vprofile::UpdateStatus;

vprofile::ExtractionConfig tiny_extraction() {
  vprofile::ExtractionConfig ex;
  ex.prefix_len = 1;
  ex.suffix_len = 2;
  return ex;
}

EdgeSet gaussian_edge_set(std::uint8_t sa, double level, double sigma,
                          stats::Rng& rng, std::size_t dim) {
  EdgeSet es;
  es.sa = sa;
  es.samples.resize(dim);
  for (auto& v : es.samples) v = level + rng.gaussian(0.0, sigma);
  return es;
}

std::vector<EdgeSet> cluster_data(std::uint8_t sa, double level, double sigma,
                                  std::size_t n, stats::Rng& rng,
                                  std::size_t dim) {
  std::vector<EdgeSet> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(gaussian_edge_set(sa, level, sigma, rng, dim));
  }
  return out;
}

Model train_two_clusters(stats::Rng& rng, std::size_t per_cluster = 150) {
  const auto ex = tiny_extraction();
  std::vector<EdgeSet> sets = cluster_data(1, 100.0, 1.0, per_cluster, rng,
                                           ex.dimension());
  const auto more = cluster_data(7, 200.0, 1.0, per_cluster, rng,
                                 ex.dimension());
  sets.insert(sets.end(), more.begin(), more.end());
  vprofile::TrainingConfig cfg;
  cfg.metric = DistanceMetric::kMahalanobis;
  cfg.extraction = ex;
  auto outcome =
      vprofile::train_with_database(sets, {{1, "A"}, {7, "B"}}, cfg);
  EXPECT_TRUE(outcome.ok()) << outcome.error;
  return std::move(*outcome.model);
}

TEST(OnlineUpdate, UpdatesCountMeanAndMaxDistance) {
  stats::Rng rng(1);
  Model model = train_two_clusters(rng);
  const std::size_t cluster = *model.cluster_of(1);
  const std::size_t n_before = model.clusters()[cluster].edge_set_count;

  OnlineUpdater updater(&model, 10000);
  const EdgeSet es = gaussian_edge_set(1, 100.0, 1.0, rng,
                                       model.dimension());
  EXPECT_EQ(updater.update(es), UpdateStatus::kUpdated);
  EXPECT_EQ(model.clusters()[cluster].edge_set_count, n_before + 1);
}

TEST(OnlineUpdate, UnknownSaIsRefused) {
  stats::Rng rng(2);
  Model model = train_two_clusters(rng);
  OnlineUpdater updater(&model, 10000);
  const EdgeSet es = gaussian_edge_set(0x55, 100.0, 1.0, rng,
                                       model.dimension());
  EXPECT_EQ(updater.update(es), UpdateStatus::kUnknownSa);
}

TEST(OnlineUpdate, DimensionMismatchIsRefused) {
  stats::Rng rng(3);
  Model model = train_two_clusters(rng);
  OnlineUpdater updater(&model, 10000);
  EdgeSet es;
  es.sa = 1;
  es.samples = {1.0, 2.0};
  EXPECT_EQ(updater.update(es), UpdateStatus::kDimensionMismatch);
}

TEST(OnlineUpdate, RetrainBoundStopsUpdates) {
  stats::Rng rng(4);
  Model model = train_two_clusters(rng, 150);
  // Bound just above the current count: one update passes, the next is
  // refused and the cluster is flagged.
  OnlineUpdater updater(&model, 151);
  const EdgeSet es = gaussian_edge_set(1, 100.0, 1.0, rng,
                                       model.dimension());
  EXPECT_EQ(updater.update(es), UpdateStatus::kUpdated);
  EXPECT_EQ(updater.update(es), UpdateStatus::kRetrainRequired);
  const auto need = updater.clusters_needing_retrain();
  ASSERT_EQ(need.size(), 1u);
  EXPECT_EQ(need[0], *model.cluster_of(1));
}

TEST(OnlineUpdate, RejectsEuclideanModelAndBadArguments) {
  stats::Rng rng(5);
  const auto ex = tiny_extraction();
  auto sets = cluster_data(1, 100.0, 1.0, 50, rng, ex.dimension());
  vprofile::TrainingConfig cfg;
  cfg.metric = DistanceMetric::kEuclidean;
  cfg.extraction = ex;
  auto outcome = vprofile::train_with_database(sets, {{1, "A"}}, cfg);
  ASSERT_TRUE(outcome.ok());
  EXPECT_THROW(OnlineUpdater(&*outcome.model, 100), std::invalid_argument);
  EXPECT_THROW(OnlineUpdater(nullptr, 100), std::invalid_argument);

  stats::Rng rng2(6);
  Model model = train_two_clusters(rng2);
  EXPECT_THROW(OnlineUpdater(&model, 0), std::invalid_argument);
}

// Property: updating with a batch must land exactly where retraining on
// the concatenated data lands (population-normalized covariance).
TEST(OnlineUpdate, MatchesRetrainingOnConcatenatedData) {
  stats::Rng rng(7);
  const auto ex = tiny_extraction();
  const std::size_t dim = ex.dimension();

  auto initial = cluster_data(1, 100.0, 1.5, 120, rng, dim);
  auto more = cluster_data(1, 100.6, 1.5, 60, rng, dim);  // slight drift

  vprofile::TrainingConfig cfg;
  cfg.metric = DistanceMetric::kMahalanobis;
  cfg.extraction = ex;
  auto base = vprofile::train_with_database(initial, {{1, "A"}}, cfg);
  ASSERT_TRUE(base.ok());
  Model updated = std::move(*base.model);
  OnlineUpdater updater(&updated, 100000);
  EXPECT_EQ(updater.update_all(more), more.size());

  auto all = initial;
  all.insert(all.end(), more.begin(), more.end());
  auto retrained = vprofile::train_with_database(all, {{1, "A"}}, cfg);
  ASSERT_TRUE(retrained.ok());

  const auto& uc = updated.clusters()[0];
  const auto& rc = retrained.model->clusters()[0];
  EXPECT_EQ(uc.edge_set_count, rc.edge_set_count);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(uc.mean[i], rc.mean[i], 1e-9);
  }
  EXPECT_LT(oracle::max_abs_diff(uc.covariance, rc.covariance), 1e-8);
  EXPECT_LT(oracle::max_abs_diff(uc.inv_covariance, rc.inv_covariance),
            1e-5);
  // max_distance can only be >= the retrained one (it never shrinks),
  // and both must cover the new data.
  EXPECT_GE(uc.max_distance + 1e-9, rc.max_distance * 0.5);
}

// The paper's §5.3 use case: a drifting bus voltage pushes distances up;
// online updates pull the model back toward the new operating point.
TEST(OnlineUpdate, AdaptsToDrift) {
  stats::Rng rng(8);
  Model model = train_two_clusters(rng);
  const std::size_t cluster = *model.cluster_of(1);

  // Drifted operating point.
  const double drifted_level = 103.0;
  auto drifted_probe = gaussian_edge_set(1, drifted_level, 1.0, rng,
                                         model.dimension());
  const double before = model.distance(cluster, drifted_probe.samples);

  OnlineUpdater updater(&model, 100000);
  for (int i = 0; i < 400; ++i) {
    updater.update(gaussian_edge_set(1, drifted_level, 1.0, rng,
                                     model.dimension()));
  }
  const double after = model.distance(cluster, drifted_probe.samples);
  EXPECT_LT(after, before * 0.8);
}

TEST(OnlineUpdate, StatusNamesAreStable) {
  EXPECT_STREQ(to_string(UpdateStatus::kUpdated), "updated");
  EXPECT_STREQ(to_string(UpdateStatus::kUnknownSa), "unknown SA");
  EXPECT_STREQ(to_string(UpdateStatus::kRetrainRequired),
               "retrain required");
  EXPECT_STREQ(to_string(UpdateStatus::kDimensionMismatch),
               "dimension mismatch");
}

double max_abs_mean_diff(const Model& a, const Model& b, std::size_t cluster) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.dimension(); ++i) {
    worst = std::max(worst, std::abs(a.clusters()[cluster].mean[i] -
                                     b.clusters()[cluster].mean[i]));
  }
  return worst;
}

TEST(GatedUpdate, FoldsHighMarginBenignFramesOnly) {
  stats::Rng rng(10);
  Model model = train_two_clusters(rng);
  const std::size_t cluster = *model.cluster_of(1);
  const std::size_t n_before = model.clusters()[cluster].edge_set_count;

  vprofile::GatedUpdater gated(&model, {});
  const vprofile::DetectionConfig dc;

  // A frame at the cluster's own mean (distance exactly 0) passes the
  // gate unconditionally — no dependence on a lucky draw.
  EdgeSet benign;
  benign.sa = 1;
  benign.samples = model.clusters()[cluster].mean;
  EXPECT_EQ(gated.consider(benign, vprofile::detect(model, benign, dc)),
            vprofile::GateDecision::kAccepted);
  EXPECT_EQ(model.clusters()[cluster].edge_set_count, n_before + 1);

  // An unknown-SA frame is rejected on the verdict alone.
  const EdgeSet foreign = gaussian_edge_set(0x55, 100.0, 1.0, rng,
                                            model.dimension());
  EXPECT_EQ(gated.consider(foreign, vprofile::detect(model, foreign, dc)),
            vprofile::GateDecision::kRejectedVerdict);

  // A frame near (but inside) the threshold passes detection yet fails
  // the high-margin requirement — the slow-poisoning band.
  vprofile::Detection near_threshold;
  near_threshold.verdict = vprofile::Verdict::kOk;
  near_threshold.expected_cluster = cluster;
  near_threshold.min_distance =
      0.95 * model.clusters()[cluster].max_distance;
  EXPECT_EQ(gated.consider(benign, near_threshold),
            vprofile::GateDecision::kRejectedMargin);

  EXPECT_EQ(gated.stats().accepted, 1u);
  EXPECT_EQ(gated.stats().rejected_verdict, 1u);
  EXPECT_EQ(gated.stats().rejected_margin, 1u);
  EXPECT_EQ(gated.stats().refused_by_updater, 0u);

  EXPECT_THROW(vprofile::GatedUpdater(&model, {100, 0.0}),
               std::invalid_argument);
}

// The Sagong-style poisoning experiment: a masquerading attacker ramps its
// injected signature toward the victim's operating point in sub-margin
// steps.  An ungated updater folds every frame and walks the stored
// profile to the attacker; the verdict gate stalls the walk — the mean can
// only chase at (acceptance radius / N) per frame, slower than any ramp
// that wants to stay under the margin, so the attacker runs out of
// acceptance and the profile freezes within tolerance of the clean one.
TEST(GatedUpdate, VerdictGateResistsSlowPoisoning) {
  stats::Rng rng(11);
  const Model clean = train_two_clusters(rng);
  const std::size_t cluster = *clean.cluster_of(1);

  Model poisoned = clean;  // ungated victim
  Model guarded = clean;   // gate in front
  OnlineUpdater ungated(&poisoned, 1000000);
  vprofile::GatedUpdater gated(&guarded, {});
  const vprofile::DetectionConfig dc;

  const int n = 800;
  for (int i = 0; i < n; ++i) {
    // 100 -> 140 codes over the run: 0.05 codes per frame, far below the
    // per-frame detection margin.
    const double level =
        100.0 + 40.0 * static_cast<double>(i) / static_cast<double>(n - 1);
    const EdgeSet es = gaussian_edge_set(1, level, 1.0, rng,
                                         clean.dimension());
    ungated.update(es);
    gated.consider(es, vprofile::detect(guarded, es, dc));
  }

  const double walked = max_abs_mean_diff(poisoned, clean, cluster);
  const double held = max_abs_mean_diff(guarded, clean, cluster);
  EXPECT_GT(walked, 10.0);  // ungated profile dragged toward the attacker
  EXPECT_LT(held, 2.0);     // gated profile stays at the clean posture
  // The gate visibly did the work: the ramp's tail was refused.
  EXPECT_GT(gated.stats().rejected_margin + gated.stats().rejected_verdict,
            static_cast<std::uint64_t>(n) / 2);
}

TEST(OnlineUpdate, MaxDistanceGrowsForOutlyingUpdate) {
  stats::Rng rng(9);
  Model model = train_two_clusters(rng);
  const std::size_t cluster = *model.cluster_of(1);
  const double before = model.clusters()[cluster].max_distance;
  OnlineUpdater updater(&model, 100000);
  // An edge set well outside the training cloud (trusted data by
  // assumption) must widen the threshold.
  updater.update(gaussian_edge_set(1, 106.0, 0.5, rng, model.dimension()));
  EXPECT_GT(model.clusters()[cluster].max_distance, before);
}

}  // namespace
