#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analog/environment.hpp"
#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "io/model_store.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/mahalanobis.hpp"
#include "linalg/simd_dispatch.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"
#include "stats/rng.hpp"
#include "oracles.hpp"
#include "ulp.hpp"

namespace {

using vprofile::DistanceMetric;
using vprofile::EdgeSet;
using vprofile::ExtractionConfig;
using vprofile::Model;
using vprofile::SaDatabase;
using vprofile::TrainingConfig;

/// Small extraction config so synthetic edge sets stay cheap: dimension
/// 2*(1+2+1) = 8.
ExtractionConfig tiny_extraction() {
  ExtractionConfig cfg;
  cfg.prefix_len = 1;
  cfg.suffix_len = 2;
  return cfg;
}

/// Gaussian cluster generator around a per-SA level.
std::vector<EdgeSet> make_edge_sets(
    const std::vector<std::pair<std::uint8_t, double>>& sa_levels,
    std::size_t per_sa, double sigma, stats::Rng& rng) {
  const std::size_t dim = tiny_extraction().dimension();
  std::vector<EdgeSet> out;
  for (const auto& [sa, level] : sa_levels) {
    for (std::size_t i = 0; i < per_sa; ++i) {
      EdgeSet es;
      es.sa = sa;
      es.samples.resize(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        es.samples[d] = level + rng.gaussian(0.0, sigma);
      }
      out.push_back(std::move(es));
    }
  }
  return out;
}

TrainingConfig mahalanobis_config() {
  TrainingConfig cfg;
  cfg.metric = DistanceMetric::kMahalanobis;
  cfg.extraction = tiny_extraction();
  return cfg;
}

TEST(TrainWithDatabase, BuildsOneClusterPerEcu) {
  stats::Rng rng(1);
  const auto sets = make_edge_sets({{1, 100.0}, {2, 100.1}, {7, 200.0}},
                                   100, 1.0, rng);
  const SaDatabase db = {{1, "ECU A"}, {2, "ECU A"}, {7, "ECU B"}};
  const auto outcome =
      vprofile::train_with_database(sets, db, mahalanobis_config());
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  const Model& m = *outcome.model;
  EXPECT_EQ(m.clusters().size(), 2u);
  // SAs 1 and 2 land in the same cluster.
  EXPECT_EQ(m.cluster_of(1), m.cluster_of(2));
  EXPECT_NE(m.cluster_of(1), m.cluster_of(7));
  EXPECT_FALSE(m.cluster_of(99).has_value());
}

TEST(TrainWithDatabase, ClusterStatisticsAreSane) {
  stats::Rng rng(2);
  const auto sets = make_edge_sets({{1, 100.0}, {7, 200.0}}, 200, 2.0, rng);
  const SaDatabase db = {{1, "A"}, {7, "B"}};
  const auto outcome =
      vprofile::train_with_database(sets, db, mahalanobis_config());
  ASSERT_TRUE(outcome.ok());
  for (const auto& cl : outcome.model->clusters()) {
    EXPECT_EQ(cl.edge_set_count, 200u);
    EXPECT_GT(cl.max_distance, 0.0);
    // Mean near the generating level.
    const double level = (cl.name == "A") ? 100.0 : 200.0;
    for (double v : cl.mean) EXPECT_NEAR(v, level, 1.0);
    // Inverse covariance actually inverts the covariance.
    const auto prod = oracle::matmul(cl.covariance, cl.inv_covariance);
    EXPECT_LT(
        oracle::max_abs_diff(prod, linalg::Matrix::identity(prod.rows())),
        1e-6);
  }
}

TEST(TrainWithDatabase, MaxDistanceCoversAllTrainingPoints) {
  stats::Rng rng(3);
  const auto sets = make_edge_sets({{1, 100.0}, {7, 200.0}}, 150, 2.0, rng);
  const SaDatabase db = {{1, "A"}, {7, "B"}};
  const auto outcome =
      vprofile::train_with_database(sets, db, mahalanobis_config());
  ASSERT_TRUE(outcome.ok());
  const Model& m = *outcome.model;
  for (const EdgeSet& es : sets) {
    const auto cluster = m.cluster_of(es.sa);
    ASSERT_TRUE(cluster.has_value());
    EXPECT_LE(m.distance(*cluster, es.samples),
              m.clusters()[*cluster].max_distance + 1e-9);
  }
}

TEST(TrainWithDatabase, EuclideanModelSkipsCovariance) {
  stats::Rng rng(4);
  const auto sets = make_edge_sets({{1, 100.0}, {7, 200.0}}, 50, 1.0, rng);
  const SaDatabase db = {{1, "A"}, {7, "B"}};
  TrainingConfig cfg = mahalanobis_config();
  cfg.metric = DistanceMetric::kEuclidean;
  const auto outcome = vprofile::train_with_database(sets, db, cfg);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.model->clusters().front().covariance.empty());
  // Euclidean distance to own mean is bounded by max_distance.
  const auto& cl = outcome.model->clusters().front();
  EXPECT_GT(cl.max_distance, 0.0);
}

TEST(TrainWithDatabase, UnknownTrainingSaFails) {
  stats::Rng rng(5);
  const auto sets = make_edge_sets({{1, 100.0}, {9, 150.0}}, 50, 1.0, rng);
  const SaDatabase db = {{1, "A"}};
  const auto outcome =
      vprofile::train_with_database(sets, db, mahalanobis_config());
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error.find("SA 9"), std::string::npos);
}

TEST(TrainWithDatabase, EmptyInputFails) {
  const auto outcome =
      vprofile::train_with_database({}, {{1, "A"}}, mahalanobis_config());
  EXPECT_FALSE(outcome.ok());
}

TEST(TrainWithDatabase, TooFewEdgeSetsPerClusterFails) {
  stats::Rng rng(6);
  const auto sets = make_edge_sets({{1, 100.0}}, 3, 1.0, rng);
  TrainingConfig cfg = mahalanobis_config();
  cfg.min_cluster_size = 8;
  const auto outcome = vprofile::train_with_database(sets, {{1, "A"}}, cfg);
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error.find("only 3"), std::string::npos);
}

TEST(TrainWithDatabase, ConstantSamplesGiveSingularCovariance) {
  // The paper's low-resolution failure mode: quantization collapses the
  // variance and training reports a singular covariance.
  const std::size_t dim = tiny_extraction().dimension();
  std::vector<EdgeSet> sets;
  for (int i = 0; i < 50; ++i) {
    EdgeSet es;
    es.sa = 1;
    es.samples.assign(dim, 512.0);  // identical every time
    sets.push_back(es);
  }
  const auto outcome =
      vprofile::train_with_database(sets, {{1, "A"}}, mahalanobis_config());
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error.find("singular"), std::string::npos);
}

TEST(TrainWithDatabase, RidgeRecoversSingularCovariance) {
  const std::size_t dim = tiny_extraction().dimension();
  std::vector<EdgeSet> sets;
  stats::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EdgeSet es;
    es.sa = 1;
    es.samples.assign(dim, 512.0);
    es.samples[0] = 512.0 + rng.gaussian(0.0, 1.0);  // rank-1 variation
    sets.push_back(es);
  }
  TrainingConfig cfg = mahalanobis_config();
  cfg.ridge = 1e-3;
  const auto outcome = vprofile::train_with_database(sets, {{1, "A"}}, cfg);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_GT(outcome.ridge_used, 0.0);
}

TEST(TrainWithDatabase, DimensionMismatchFails) {
  stats::Rng rng(8);
  auto sets = make_edge_sets({{1, 100.0}}, 20, 1.0, rng);
  sets.front().samples.resize(3);
  const auto outcome =
      vprofile::train_with_database(sets, {{1, "A"}}, mahalanobis_config());
  EXPECT_FALSE(outcome.ok());
}

TEST(ClusterByDistance, MergesCloseSaGroups) {
  // Two SAs 0.5 apart, one 50 away: expect 2 clusters via the automatic
  // largest-gap threshold.
  const std::vector<std::uint8_t> sas = {1, 2, 9};
  const std::vector<linalg::Vector> means = {
      {0.0, 0.0}, {0.5, 0.0}, {50.0, 0.0}};
  const auto assignment =
      vprofile::cluster_sa_groups_by_distance(sas, means, 0.0);
  ASSERT_EQ(assignment.size(), 3u);
  EXPECT_EQ(assignment[0], assignment[1]);
  EXPECT_NE(assignment[0], assignment[2]);
}

TEST(ClusterByDistance, ExplicitThresholdRespected) {
  const std::vector<std::uint8_t> sas = {1, 2};
  const std::vector<linalg::Vector> means = {{0.0}, {10.0}};
  // Threshold above the distance merges; below keeps separate.
  EXPECT_EQ(vprofile::cluster_sa_groups_by_distance(sas, means, 20.0)[1],
            vprofile::cluster_sa_groups_by_distance(sas, means, 20.0)[0]);
  EXPECT_NE(vprofile::cluster_sa_groups_by_distance(sas, means, 5.0)[1],
            vprofile::cluster_sa_groups_by_distance(sas, means, 5.0)[0]);
}

TEST(ClusterByDistance, UniformSpacingKeepsAllSeparate) {
  // No obvious gap => every SA its own ECU.
  const std::vector<std::uint8_t> sas = {1, 2, 3};
  const std::vector<linalg::Vector> means = {{0.0}, {10.0}, {20.0}};
  const auto assignment =
      vprofile::cluster_sa_groups_by_distance(sas, means, 0.0);
  EXPECT_NE(assignment[0], assignment[1]);
  EXPECT_NE(assignment[1], assignment[2]);
}

TEST(ClusterByDistance, ValidatesSizes) {
  EXPECT_TRUE(vprofile::cluster_sa_groups_by_distance({}, {}, 0.0).empty());
  EXPECT_THROW(
      vprofile::cluster_sa_groups_by_distance({1}, {{1.0}, {2.0}}, 0.0),
      std::invalid_argument);
}

TEST(TrainByDistance, MatchesDatabaseTrainingOnSeparableData) {
  stats::Rng rng(9);
  const auto sets = make_edge_sets(
      {{1, 100.0}, {2, 100.2}, {7, 200.0}, {8, 200.3}}, 100, 1.0, rng);
  const auto by_dist =
      vprofile::train_by_distance(sets, mahalanobis_config());
  ASSERT_TRUE(by_dist.ok()) << by_dist.error;
  EXPECT_EQ(by_dist.model->clusters().size(), 2u);
  // Same grouping as the database path.
  EXPECT_EQ(by_dist.model->cluster_of(1), by_dist.model->cluster_of(2));
  EXPECT_EQ(by_dist.model->cluster_of(7), by_dist.model->cluster_of(8));
  EXPECT_NE(by_dist.model->cluster_of(1), by_dist.model->cluster_of(7));
}

TEST(TrainByDistance, EmptyInputFails) {
  EXPECT_FALSE(vprofile::train_by_distance({}, mahalanobis_config()).ok());
}

/// Trains vehicle A (dim 66) and vehicle B (dim 34) models under both
/// dispatch paths in one process: the saved model bytes must be the same,
/// and each cluster's inverse and threshold must be the one-at-a-time
/// reference sequence (one right-hand-side solve per column, one
/// mahalanobis_distance_inv per member).
TEST(TrainerDispatch, VehicleModelsHaveTheSameBytesOnBothDispatchPaths) {
  for (const bool vehicle_b : {false, true}) {
    SCOPED_TRACE(vehicle_b ? "vehicle B" : "vehicle A");
    const sim::VehicleConfig config =
        vehicle_b ? sim::vehicle_b() : sim::vehicle_a();
    sim::Vehicle vehicle(config, 0x7A1D);
    TrainingConfig tc;
    tc.extraction = sim::default_extraction(config);
    tc.ridge = 1.0;
    std::vector<EdgeSet> sets;
    for (const sim::Capture& cap :
         vehicle.capture(1500, analog::Environment::reference())) {
      if (auto es = vprofile::extract_edge_set(cap.codes, tc.extraction)) {
        sets.push_back(std::move(*es));
      }
    }
    std::string bytes[2];
    for (const int forced : {1, 0}) {
      linalg::simd::set_force_scalar_override(forced);
      const auto outcome =
          vprofile::train_with_database(sets, vehicle.database(), tc);
      linalg::simd::set_force_scalar_override(-1);
      ASSERT_TRUE(outcome.ok()) << outcome.error;
      std::ostringstream os;
      ASSERT_TRUE(io::save_model(*outcome.model, os));
      bytes[forced] = os.str();

      const Model& m = *outcome.model;
      std::vector<double> max_dist(m.clusters().size(), 0.0);
      for (const EdgeSet& es : sets) {
        const std::size_t c = *m.cluster_of(es.sa);
        const auto& cl = m.clusters()[c];
        max_dist[c] = std::max(
            max_dist[c], linalg::mahalanobis_distance_inv(
                             es.samples, cl.mean, cl.inv_covariance));
      }
      for (std::size_t c = 0; c < m.clusters().size(); ++c) {
        const auto& cl = m.clusters()[c];
        EXPECT_EQ(stats::ulp_distance(cl.max_distance, max_dist[c]), 0u)
            << "forced=" << forced << " cluster " << c;
        const auto chol = linalg::Cholesky::factorize(cl.covariance);
        ASSERT_TRUE(chol.has_value());
        const std::size_t dim = m.dimension();
        for (std::size_t col = 0; col < dim; ++col) {
          linalg::Vector e(dim, 0.0);
          e[col] = 1.0;
          const linalg::Vector x = oracle::cholesky_solve(*chol, e);
          for (std::size_t r = 0; r < dim; ++r) {
            ASSERT_EQ(stats::ulp_distance(cl.inv_covariance.at(r, col), x[r]),
                      0u)
                << "forced=" << forced << " cluster " << c << " (" << r
                << ", " << col << ")";
          }
        }
      }
    }
    EXPECT_EQ(bytes[0], bytes[1]);
  }
}

TEST(ModelTest, RejectsInconsistentConstruction) {
  EXPECT_THROW(Model(DistanceMetric::kEuclidean, tiny_extraction(), {}),
               std::invalid_argument);

  vprofile::ClusterModel a;
  a.name = "A";
  a.sas = {1};
  a.mean = {1.0, 2.0};
  vprofile::ClusterModel b;
  b.name = "B";
  b.sas = {1};  // duplicate SA
  b.mean = {1.0, 2.0};
  EXPECT_THROW(
      Model(DistanceMetric::kEuclidean, tiny_extraction(), {a, b}),
      std::invalid_argument);

  vprofile::ClusterModel c = b;
  c.sas = {2};
  c.mean = {1.0};  // dimension mismatch
  EXPECT_THROW(
      Model(DistanceMetric::kEuclidean, tiny_extraction(), {a, c}),
      std::invalid_argument);

  // Mahalanobis cluster without inverse covariance.
  EXPECT_THROW(
      Model(DistanceMetric::kMahalanobis, tiny_extraction(), {a}),
      std::invalid_argument);
}

TEST(ModelTest, NearestClusterPicksMinimumDistance) {
  stats::Rng rng(10);
  const auto sets = make_edge_sets({{1, 100.0}, {7, 200.0}}, 100, 1.0, rng);
  const SaDatabase db = {{1, "A"}, {7, "B"}};
  const auto outcome =
      vprofile::train_with_database(sets, db, mahalanobis_config());
  ASSERT_TRUE(outcome.ok());
  const Model& m = *outcome.model;

  linalg::Vector near_a(m.dimension(), 100.5);
  const auto [cluster, dist] = m.nearest_cluster(near_a);
  EXPECT_EQ(cluster, *m.cluster_of(1));
  EXPECT_LT(dist, m.distance(*m.cluster_of(7), near_a));
}

TEST(ModelTest, MetricNamesRoundTrip) {
  EXPECT_STREQ(to_string(DistanceMetric::kEuclidean), "euclidean");
  EXPECT_STREQ(to_string(DistanceMetric::kMahalanobis), "mahalanobis");
}

}  // namespace
