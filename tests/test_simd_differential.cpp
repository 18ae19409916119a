// Differential harness for the batched scoring hot path.
//
// The contract under test (core/batch_scorer.hpp, linalg/simd_kernels.hpp):
//   * scalar batch kernels are bit-identical to the one-frame reference
//     (linalg::euclidean_distance / mahalanobis_distance_inv / detect()),
//   * the AVX2 Mahalanobis kernels are bit-identical to the scalar
//     kernel, in every batch size and [body|tail] split the dispatcher
//     produces — the one-frame row kernel included, at the shipped dims
//     and every residue mod 4 (Euclidean batches are scalar on every
//     backend),
//   * batch-of-one scoring (the lockstep serving path) is bit-identical
//     to detect() on trained vehicle A and B models,
//   * the 12-bit feature quantizer behind the frontier's fixed-point arm
//     (linalg/fixed_point.hpp) sizes its grid from the ADC resolution,
//   * the batched pipeline worker preserves all of the above end to end.
//
// Failure messages report ULP distances (tests/ulp.hpp): 0 is identity,
// small numbers point at reassociation/contraction, huge ones at logic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_scorer.hpp"
#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/fixed_point.hpp"
#include "linalg/mahalanobis.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/simd_kernels.hpp"
#include "oracles.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"
#include "stats/rng.hpp"
#include "ulp.hpp"

namespace {

using linalg::Matrix;
using linalg::Vector;
using linalg::simd::Backend;
using vprofile::BatchScorer;
using vprofile::Detection;
using vprofile::DetectionConfig;
using vprofile::DistanceMetric;
using vprofile::EdgeSet;
using vprofile::Model;
using vprofile::ScoringPlan;

/// Bitwise double equality with a ULP-distance diagnostic.
#define EXPECT_BITEQ(a, b)                                              \
  EXPECT_EQ(stats::ulp_distance((a), (b)), 0u)                          \
      << #a " = " << (a) << " vs " #b " = " << (b)                      \
      << " (ulp distance " << stats::ulp_distance((a), (b)) << ")"

/// The batch sizes the harness sweeps: 1 (degenerate), 3 (tail only),
/// 4 (one quad), 5/7 (quad + tail), 13 (8-edge block + quad + tail),
/// 29 (16-edge block + 8 + 4 + tail: every AVX2 block width in one
/// call), 64 (many 16-edge blocks).
const std::size_t kBatchSizes[] = {1, 3, 4, 5, 7, 13, 29, 64};

void expect_same_detection(const Detection& a, const Detection& b,
                           const std::string& context) {
  EXPECT_EQ(a.verdict, b.verdict) << context;
  EXPECT_EQ(a.expected_cluster, b.expected_cluster) << context;
  EXPECT_EQ(a.predicted_cluster, b.predicted_cluster) << context;
  EXPECT_BITEQ(a.min_distance, b.min_distance) << context;
  EXPECT_BITEQ(a.confidence, b.confidence) << context;
  EXPECT_EQ(a.unreliable_samples, b.unreliable_samples) << context;
}

// ---------------------------------------------------------------------------
// Kernel level: SoA kernels vs the one-at-a-time linalg reference.
// ---------------------------------------------------------------------------

/// Random SPD matrix B^T B + ridge I and its inverse.
std::pair<Matrix, Matrix> random_spd(std::size_t dim, stats::Rng& rng) {
  Matrix b(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) b.at(r, c) = rng.gaussian(0.0, 1.0);
  }
  Matrix spd = oracle::matmul(b.transpose(), b);
  spd.add_ridge(0.5);
  auto chol = linalg::Cholesky::factorize(spd);
  EXPECT_TRUE(chol.has_value());
  return {spd, chol->inverse()};
}

struct SoaBatch {
  std::vector<double> soa;  // soa[i * stride + e]
  std::size_t stride = 0;
  std::size_t count = 0;
  std::size_t dim = 0;

  linalg::simd::BatchView view() const { return {soa.data(), stride, count, dim}; }
  Vector edge(std::size_t e) const {
    Vector x(dim);
    for (std::size_t i = 0; i < dim; ++i) x[i] = soa[i * stride + e];
    return x;
  }
};

SoaBatch random_batch(std::size_t count, std::size_t dim, stats::Rng& rng,
                      double center, double spread) {
  SoaBatch batch;
  batch.count = count;
  batch.dim = dim;
  batch.stride = (count + 3) & ~std::size_t{3};
  batch.soa.assign(dim * batch.stride, 0.0);
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t i = 0; i < dim; ++i) {
      batch.soa[i * batch.stride + e] = center + rng.gaussian(0.0, spread);
    }
  }
  return batch;
}

TEST(SimdKernels, ScalarEuclideanMatchesReferenceBitwise) {
  stats::Rng rng(0x51D0001);
  const std::size_t dim = 9;
  Vector mu(dim);
  for (auto& m : mu) m = rng.gaussian(100.0, 20.0);
  for (std::size_t n : kBatchSizes) {
    SoaBatch batch = random_batch(n, dim, rng, 100.0, 30.0);
    std::vector<double> out(batch.stride, -1.0);
    linalg::simd::euclidean_scalar(batch.view(), mu.data(), out.data(), 0, n);
    for (std::size_t e = 0; e < n; ++e) {
      EXPECT_BITEQ(out[e], linalg::euclidean_distance(batch.edge(e), mu));
    }
  }
}

TEST(SimdKernels, ScalarMahalanobisMatchesReferenceBitwise) {
  stats::Rng rng(0x51D0002);
  const std::size_t dim = 7;
  Vector mu(dim);
  for (auto& m : mu) m = rng.gaussian(150.0, 10.0);
  const auto [cov, inv] = random_spd(dim, rng);
  std::vector<double> dscratch(dim * 16, 0.0);
  for (std::size_t n : kBatchSizes) {
    SoaBatch batch = random_batch(n, dim, rng, 150.0, 25.0);
    std::vector<double> out(batch.stride, -1.0);
    linalg::simd::mahalanobis_scalar(batch.view(), mu.data(),
                                     inv.data().data(), dscratch.data(),
                                     out.data(), 0, n);
    for (std::size_t e = 0; e < n; ++e) {
      EXPECT_BITEQ(out[e], linalg::mahalanobis_distance_inv(batch.edge(e),
                                                            mu, inv));
    }
  }
}

TEST(SimdKernels, Avx2MatchesScalarBitwiseIncludingTailSplit) {
  if (!linalg::simd::cpu_has_avx2()) {
    GTEST_SKIP() << "CPU lacks AVX2; nothing to differentiate";
  }
  stats::Rng rng(0x51D0003);
  const std::size_t dim = 11;
  Vector mu(dim);
  for (auto& m : mu) m = rng.gaussian(120.0, 15.0);
  const auto [cov, inv] = random_spd(dim, rng);
  std::vector<double> dscratch(dim * 16, 0.0);
  for (std::size_t n : kBatchSizes) {
    SoaBatch batch = random_batch(n, dim, rng, 120.0, 40.0);
    std::vector<double> expected(batch.stride, -1.0);
    std::vector<double> got(batch.stride, -2.0);
    const std::size_t body = n & ~std::size_t{3};
    linalg::simd::mahalanobis_scalar(batch.view(), mu.data(),
                                     inv.data().data(), dscratch.data(),
                                     expected.data(), 0, n);
    if (body > 0) {
      linalg::simd::mahalanobis_avx2(batch.view(), mu.data(),
                                     inv.data().data(), dscratch.data(),
                                     got.data(), 0, body);
    }
    if (body < n) {
      linalg::simd::mahalanobis_scalar(batch.view(), mu.data(),
                                       inv.data().data(), dscratch.data(),
                                       got.data(), body, n);
    }
    for (std::size_t e = 0; e < n; ++e) {
      EXPECT_BITEQ(got[e], expected[e])
          << "mahalanobis n=" << n << " e=" << e;
    }
  }
}

/// The one-frame kernel's operand: inv transposed, zero-padded to
/// padded_rows(dim) rows — inv_t[c * rows + r] = inv(r, c).
std::vector<double> transposed_padded(const Matrix& inv) {
  const std::size_t dim = inv.rows();
  const std::size_t rows = linalg::simd::padded_rows(dim);
  std::vector<double> out(dim * rows, 0.0);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) out[c * rows + r] = inv.at(r, c);
  }
  return out;
}

/// Same padding, but NOT transposed: what a kernel that assumed a
/// symmetric inverse would read.
std::vector<double> padded_untransposed(const Matrix& inv) {
  const std::size_t dim = inv.rows();
  const std::size_t rows = linalg::simd::padded_rows(dim);
  std::vector<double> out(dim * rows, 0.0);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) out[c * rows + r] = inv.at(c, r);
  }
  return out;
}

TEST(SimdKernels, Avx2RowKernelMatchesScalarBitwiseAtEveryDimResidue) {
  if (!linalg::simd::cpu_has_avx2()) {
    GTEST_SKIP() << "CPU lacks AVX2; nothing to differentiate";
  }
  stats::Rng rng(0x51D0005);
  // 66 and 34 are the shipped vehicle A and B dims (both 2 mod 4); 8, 9
  // and 11 cover the 0, 1 and 3 residues of the zero-padded row quads.
  for (const std::size_t dim : {std::size_t{66}, std::size_t{34},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{11}}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Vector mu(dim);
    for (auto& m : mu) m = rng.gaussian(150.0, 10.0);
    const auto [cov, inv] = random_spd(dim, rng);
    // Cholesky::inverse solves column by column, so its result is not
    // bitwise symmetric: the kernel must read a true transpose.
    std::size_t asymmetric = 0;
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = r + 1; c < dim; ++c) {
        if (stats::ulp_distance(inv.at(r, c), inv.at(c, r)) != 0) ++asymmetric;
      }
    }
    EXPECT_GT(asymmetric, 0u);
    const std::vector<double> inv_t = transposed_padded(inv);
    const std::vector<double> inv_sym = padded_untransposed(inv);
    std::vector<double> dscratch(dim * 16, 0.0);
    std::size_t symmetric_misses = 0;
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{5},
                                std::size_t{7}, std::size_t{13},
                                std::size_t{29}}) {
      SoaBatch batch = random_batch(n, dim, rng, 150.0, 25.0);
      std::vector<double> expected(batch.stride, -1.0);
      std::vector<double> split(batch.stride, -2.0);
      std::vector<double> rows_only(batch.stride, -3.0);
      std::vector<double> wrong(batch.stride, -4.0);
      linalg::simd::mahalanobis_scalar(batch.view(), mu.data(),
                                       inv.data().data(), dscratch.data(),
                                       expected.data(), 0, n);
      // The scorer's split: quad body, then the one-frame kernel's tail.
      const std::size_t body = n & ~std::size_t{3};
      if (body > 0) {
        linalg::simd::mahalanobis_avx2(batch.view(), mu.data(),
                                       inv.data().data(), dscratch.data(),
                                       split.data(), 0, body);
      }
      linalg::simd::mahalanobis_avx2_rows(batch.view(), mu.data(),
                                          inv_t.data(), dscratch.data(),
                                          split.data(), body, n);
      linalg::simd::mahalanobis_avx2_rows(batch.view(), mu.data(),
                                          inv_t.data(), dscratch.data(),
                                          rows_only.data(), 0, n);
      linalg::simd::mahalanobis_avx2_rows(batch.view(), mu.data(),
                                          inv_sym.data(), dscratch.data(),
                                          wrong.data(), 0, n);
      for (std::size_t e = 0; e < n; ++e) {
        EXPECT_BITEQ(split[e], expected[e]) << "n=" << n << " e=" << e;
        EXPECT_BITEQ(rows_only[e], expected[e]) << "n=" << n << " e=" << e;
        if (stats::ulp_distance(wrong[e], expected[e]) != 0) {
          ++symmetric_misses;
        }
      }
    }
    // The harness has teeth: reading the row-major inverse as if it were
    // its own transpose changes low bits somewhere.
    EXPECT_GT(symmetric_misses, 0u);
  }
}

// ---------------------------------------------------------------------------
// Training kernels: every backend vs the one-element / one-column scalar
// sequence the trained model's bytes are defined by.
// ---------------------------------------------------------------------------

/// Restores dispatch to the environment's choice when a test ends.
struct DispatchOverride {
  explicit DispatchOverride(int forced) {
    linalg::simd::set_force_scalar_override(forced);
  }
  ~DispatchOverride() { linalg::simd::set_force_scalar_override(-1); }
};

std::vector<double> random_values(std::size_t n, stats::Rng& rng,
                                  double sigma) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian(0.0, sigma);
  return v;
}

TEST(TrainKernels, Rank1UpdatesMatchElementSequenceAtDims1To70) {
  stats::Rng rng(0x7A10001);
  for (std::size_t dim = 1; dim <= 70; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    std::vector<double> expected = random_values(dim * dim, rng, 50.0);
    std::vector<double> scalar = expected;
    std::vector<double> avx2 = expected;
    // Sweeps of 1..5 updates in a row (4 is the accumulator's batch):
    // each element accumulates its own chain, update by update.
    for (std::size_t k = 1; k <= 5; ++k) {
      const std::vector<double> a = random_values(k * dim, rng, 3.0);
      const std::vector<double> b = random_values(k * dim, rng, 3.0);
      for (std::size_t t = 0; t < k; ++t) {
        for (std::size_t i = 0; i < dim; ++i) {
          for (std::size_t j = 0; j < dim; ++j) {
            expected[i * dim + j] += a[t * dim + i] * b[t * dim + j];
          }
        }
      }
      linalg::simd::rank1_updates_scalar(scalar.data(), a.data(), b.data(),
                                         dim, k);
      if (linalg::simd::cpu_has_avx2()) {
        linalg::simd::rank1_updates_avx2(avx2.data(), a.data(), b.data(),
                                         dim, k);
      }
    }
    for (std::size_t e = 0; e < dim * dim; ++e) {
      ASSERT_EQ(stats::ulp_distance(scalar[e], expected[e]), 0u) << "e=" << e;
      if (linalg::simd::cpu_has_avx2()) {
        ASSERT_EQ(stats::ulp_distance(avx2[e], expected[e]), 0u) << "e=" << e;
      }
    }
  }
}

TEST(TrainKernels, AccumulatorIsBitIdenticalOnBothDispatchPaths) {
  stats::Rng rng(0x7A10002);
  for (const std::size_t dim : {std::size_t{1}, std::size_t{5},
                                std::size_t{34}, std::size_t{66},
                                std::size_t{67}}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    std::vector<Vector> xs;
    for (int i = 0; i < 23; ++i) {
      Vector x(dim);
      for (auto& v : x) v = 2000.0 + rng.gaussian(0.0, 30.0);
      xs.push_back(std::move(x));
    }
    for (const int forced : {1, 0}) {
      DispatchOverride dispatch(forced);
      linalg::CovarianceAccumulator acc(dim);
      // The Welford sequence the accumulator has always run, one
      // element-by-element update per observation.
      Vector mean(dim, 0.0);
      Matrix m2(dim, dim);
      for (std::size_t n = 1; n <= xs.size(); ++n) {
        const Vector& x = xs[n - 1];
        const Vector delta = linalg::subtract(x, mean);
        const double inv_n = 1.0 / static_cast<double>(n);
        for (std::size_t i = 0; i < dim; ++i) mean[i] += delta[i] * inv_n;
        const Vector delta2 = linalg::subtract(x, mean);
        for (std::size_t i = 0; i < dim; ++i) {
          for (std::size_t j = 0; j < dim; ++j) {
            m2.at(i, j) += delta[i] * delta2[j];
          }
        }
        acc.add(x);
        for (std::size_t i = 0; i < dim; ++i) {
          ASSERT_EQ(stats::ulp_distance(acc.mean()[i], mean[i]), 0u)
              << "forced=" << forced << " n=" << n << " i=" << i;
        }
        if (n < 2) continue;
        // Every count, so covariance() runs with 0..3 updates queued.
        const Matrix expected = m2 * (1.0 / static_cast<double>(n));
        const Matrix cov = acc.covariance();
        for (std::size_t k = 0; k < dim * dim; ++k) {
          ASSERT_EQ(stats::ulp_distance(cov.data()[k], expected.data()[k]),
                    0u)
              << "forced=" << forced << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(TrainKernels, InverseColumnsMatchOneRightHandSideSolveAtDims1To70) {
  stats::Rng rng(0x7A10003);
  for (std::size_t dim = 1; dim <= 70; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const Matrix spd = random_spd(dim, rng).first;
    const auto chol = linalg::Cholesky::factorize(spd);
    ASSERT_TRUE(chol.has_value());
    // Column c of the inverse is the one-right-hand-side solve of e_c.
    Matrix expected(dim, dim);
    for (std::size_t c = 0; c < dim; ++c) {
      Vector e(dim, 0.0);
      e[c] = 1.0;
      const Vector col = oracle::cholesky_solve(*chol, e);
      for (std::size_t r = 0; r < dim; ++r) expected.at(r, c) = col[r];
    }
    const double* l = chol->lower().data().data();
    std::vector<double> scratch(8 * dim, 0.0);
    Matrix scalar(dim, dim, -1.0);
    linalg::simd::cholesky_inverse_columns_scalar(
        l, dim, scratch.data(), scalar.data().data(), 0, dim);
    std::vector<Matrix> got = {scalar};
    if (linalg::simd::cpu_has_avx2()) {
      Matrix whole(dim, dim, -1.0);
      linalg::simd::cholesky_inverse_columns_avx2(
          l, dim, scratch.data(), whole.data().data(), 0, dim);
      got.push_back(whole);
      // Ranges that start off a quad boundary and end in a partial quad:
      // every column is written once and no column outside the range.
      Matrix split(dim, dim, -1.0);
      const std::size_t cut = dim / 3;
      linalg::simd::cholesky_inverse_columns_avx2(
          l, dim, scratch.data(), split.data().data(), cut, dim);
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < cut; ++c) {
          ASSERT_EQ(stats::ulp_distance(split.at(r, c), -1.0), 0u)
              << "column " << c << " written outside [" << cut << ", "
              << dim << ")";
        }
      }
      linalg::simd::cholesky_inverse_columns_avx2(
          l, dim, scratch.data(), split.data().data(), 0, cut);
      got.push_back(split);
    }
    for (const int forced : {1, 0}) {
      DispatchOverride dispatch(forced);
      got.push_back(chol->inverse());
    }
    for (std::size_t g = 0; g < got.size(); ++g) {
      for (std::size_t k = 0; k < dim * dim; ++k) {
        ASSERT_EQ(stats::ulp_distance(got[g].data()[k], expected.data()[k]),
                  0u)
            << "variant " << g << " row " << k / dim << " col " << k % dim;
      }
    }
  }
}

TEST(TrainKernels, ThresholdPassMatchesPerMemberDistanceAtEveryTail) {
  stats::Rng rng(0x7A10004);
  for (const std::size_t dim : {std::size_t{34}, std::size_t{66},
                                std::size_t{7}}) {
    Vector mu(dim);
    for (auto& m : mu) m = rng.gaussian(150.0, 10.0);
    const Matrix inv = random_spd(dim, rng).second;
    // Member counts with tails 0..3 past a 4-aligned body, including
    // counts under one quad and every AVX2 block width.
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{29}, std::size_t{30}, std::size_t{31},
          std::size_t{32}, std::size_t{301}}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " n=" + std::to_string(n));
      std::vector<EdgeSet> sets(n);
      std::vector<const EdgeSet*> members;
      for (EdgeSet& es : sets) {
        es.samples.resize(dim);
        for (auto& v : es.samples) v = 150.0 + rng.gaussian(0.0, 25.0);
        members.push_back(&es);
      }
      for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
        if (backend == Backend::kAvx2 && !linalg::simd::cpu_has_avx2()) {
          continue;
        }
        vprofile::FeatureBatch batch;
        batch.transpose_sets(members.data(), nullptr, n, dim);
        std::vector<double> dist(n, -1.0);
        batch.mahalanobis_distances(backend, mu.data(), inv.data().data(),
                                    nullptr, dist.data());
        for (std::size_t e = 0; e < n; ++e) {
          ASSERT_EQ(stats::ulp_distance(dist[e],
                                        linalg::mahalanobis_distance_inv(
                                            sets[e].samples, mu, inv)),
                    0u)
              << "backend " << static_cast<int>(backend) << " e=" << e;
        }
      }
    }
  }
}

TEST(FixedPointKernels, FeatureStepMirrorsAdcResolution) {
  // A 12-bit digitizer's full scale maps losslessly (step 1); a 16-bit
  // card's 4x larger code range needs step 16 to fit the same grid.
  EXPECT_EQ(linalg::fixed::choose_feature_step(2047.0), 1.0);
  EXPECT_EQ(linalg::fixed::choose_feature_step(32767.0), 16.0);
  // Degenerate all-zero profile still gets a sane grid.
  EXPECT_EQ(linalg::fixed::choose_feature_step(0.0), 1.0);
}

// ---------------------------------------------------------------------------
// Detector level: BatchScorer vs the per-frame detect() oracle.
// ---------------------------------------------------------------------------

constexpr std::uint8_t kSaA = 0x10;
constexpr std::uint8_t kSaB = 0x33;
constexpr std::uint8_t kSaUnknown = 0x99;

/// Trains a 2-ECU model and builds an adversarial stream: in-cluster
/// frames, borderline frames, hijacks (wrong level for the SA), far
/// outliers, unknown SAs, wrong dimensionality, non-finite samples, rail
/// hits and flat runs — every prescore and postscore path.
struct DifferentialFixture {
  std::optional<Model> model;
  std::vector<EdgeSet> stream;
  std::size_t dim = 0;

  explicit DifferentialFixture(DistanceMetric metric, std::uint64_t seed) {
    vprofile::ExtractionConfig ex;
    ex.prefix_len = 2;
    ex.suffix_len = 3;
    dim = ex.dimension();

    stats::Rng rng(seed);
    std::vector<EdgeSet> train;
    for (auto [sa, level] : {std::pair<std::uint8_t, double>{kSaA, 1000.0},
                             {kSaB, 1800.0}}) {
      for (int i = 0; i < 200; ++i) {
        EdgeSet es;
        es.sa = sa;
        es.samples.resize(dim);
        for (auto& v : es.samples) v = level + rng.gaussian(0.0, 8.0);
        train.push_back(std::move(es));
      }
    }
    vprofile::TrainingConfig tc;
    tc.metric = metric;
    tc.extraction = ex;
    auto out = vprofile::train_with_database(
        train, {{kSaA, "A"}, {kSaB, "B"}}, tc);
    if (!out.ok()) {
      ADD_FAILURE() << "training failed: " << out.error;
      return;
    }
    model.emplace(std::move(*out.model));

    auto make = [&](std::uint8_t sa, double level, double jitter) {
      EdgeSet es;
      es.sa = sa;
      es.samples.resize(dim);
      for (auto& v : es.samples) v = level + rng.gaussian(0.0, jitter);
      return es;
    };
    for (int i = 0; i < 40; ++i) {
      stream.push_back(make(kSaA, 1000.0, 8.0));   // in-cluster
      stream.push_back(make(kSaB, 1800.0, 8.0));   // in-cluster
      stream.push_back(make(kSaA, 1000.0, 30.0));  // borderline
      stream.push_back(make(kSaA, 1800.0, 8.0));   // hijack (mismatch)
      stream.push_back(make(kSaB, 2600.0, 8.0));   // far outlier
      stream.push_back(make(kSaUnknown, 1000.0, 8.0));
    }
    // Fault injection: one of each degraded-path shape.
    EdgeSet wrong_dim = make(kSaA, 1000.0, 8.0);
    wrong_dim.samples.push_back(1000.0);
    stream.push_back(std::move(wrong_dim));
    EdgeSet nan_frame = make(kSaA, 1000.0, 8.0);
    nan_frame.samples[2] = std::numeric_limits<double>::quiet_NaN();
    stream.push_back(std::move(nan_frame));
    EdgeSet inf_frame = make(kSaB, 1800.0, 8.0);
    inf_frame.samples[0] = std::numeric_limits<double>::infinity();
    stream.push_back(std::move(inf_frame));
    EdgeSet railed = make(kSaA, 1000.0, 8.0);
    for (std::size_t i = 0; i + 1 < railed.samples.size(); i += 2) {
      railed.samples[i] = 4095.0;  // saturation under the gated config
    }
    stream.push_back(std::move(railed));
    EdgeSet flat = make(kSaB, 1800.0, 8.0);
    std::fill(flat.samples.begin(), flat.samples.end(), 1800.0);
    stream.push_back(std::move(flat));
    EdgeSet empty;
    empty.sa = kSaA;
    stream.push_back(std::move(empty));
  }
};

std::vector<Detection> oracle_detections(const Model& model,
                                         const std::vector<EdgeSet>& stream,
                                         const DetectionConfig& dc) {
  std::vector<Detection> out;
  out.reserve(stream.size());
  for (const EdgeSet& es : stream) out.push_back(vprofile::detect(model, es, dc));
  return out;
}

std::vector<Detection> batched_detections(const ScoringPlan& plan,
                                          const std::vector<EdgeSet>& stream,
                                          const DetectionConfig& dc,
                                          std::size_t batch_size) {
  BatchScorer scorer(plan);
  std::vector<Detection> out(stream.size());
  std::vector<const EdgeSet*> ptrs;
  for (std::size_t begin = 0; begin < stream.size(); begin += batch_size) {
    const std::size_t end = std::min(stream.size(), begin + batch_size);
    ptrs.clear();
    for (std::size_t i = begin; i < end; ++i) ptrs.push_back(&stream[i]);
    scorer.detect(ptrs.data(), ptrs.size(), dc, out.data() + begin);
  }
  return out;
}

DetectionConfig plain_config() {
  DetectionConfig dc;
  dc.margin = 2.0;
  return dc;
}

DetectionConfig gated_config() {
  DetectionConfig dc;
  dc.margin = 2.0;
  dc.saturation_code = 4000.0;
  dc.dead_code = 10.0;
  dc.degraded_fraction = 0.3;
  dc.flat_run_min = 4;
  return dc;
}

class SimdDifferential : public ::testing::TestWithParam<DistanceMetric> {};

TEST_P(SimdDifferential, ScalarBatchIsBitIdenticalToPerFrameOracle) {
  DifferentialFixture f(GetParam(), 0xD1FF0001);
  const ScoringPlan plan(*f.model, Backend::kScalar);
  ASSERT_EQ(plan.backend(), Backend::kScalar);
  for (const DetectionConfig& dc : {plain_config(), gated_config()}) {
    const auto oracle = oracle_detections(*f.model, f.stream, dc);
    for (std::size_t bs : kBatchSizes) {
      const auto got = batched_detections(plan, f.stream, dc, bs);
      ASSERT_EQ(got.size(), oracle.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_detection(got[i], oracle[i],
                              "batch_size=" + std::to_string(bs) +
                                  " frame=" + std::to_string(i));
      }
    }
  }
}

TEST_P(SimdDifferential, Avx2BatchIsBitIdenticalToScalarBatch) {
  if (linalg::simd::resolve(Backend::kAvx2) != Backend::kAvx2) {
    GTEST_SKIP() << "AVX2 unavailable or scalar-forced; dispatch covered by "
                    "the forced-scalar CI arm";
  }
  DifferentialFixture f(GetParam(), 0xD1FF0002);
  const ScoringPlan scalar_plan(*f.model, Backend::kScalar);
  const ScoringPlan avx2_plan(*f.model, Backend::kAvx2);
  ASSERT_EQ(avx2_plan.backend(), Backend::kAvx2);
  for (const DetectionConfig& dc : {plain_config(), gated_config()}) {
    for (std::size_t bs : kBatchSizes) {
      const auto expected = batched_detections(scalar_plan, f.stream, dc, bs);
      const auto got = batched_detections(avx2_plan, f.stream, dc, bs);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_detection(got[i], expected[i],
                              "batch_size=" + std::to_string(bs) +
                                  " frame=" + std::to_string(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, SimdDifferential,
                         ::testing::Values(DistanceMetric::kEuclidean,
                                           DistanceMetric::kMahalanobis),
                         [](const auto& info) {
                           return info.param == DistanceMetric::kEuclidean
                                      ? "euclidean"
                                      : "mahalanobis";
                         });

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ForceScalarOverridePinsFloatBackendsOnly) {
  linalg::simd::set_force_scalar_override(1);
  EXPECT_EQ(linalg::simd::resolve(Backend::kAuto), Backend::kScalar);
  EXPECT_EQ(linalg::simd::resolve(Backend::kAvx2), Backend::kScalar);
  linalg::simd::set_force_scalar_override(0);
  const Backend expect_auto =
      linalg::simd::cpu_has_avx2() ? Backend::kAvx2 : Backend::kScalar;
  EXPECT_EQ(linalg::simd::resolve(Backend::kAuto), expect_auto);
  EXPECT_EQ(linalg::simd::resolve(Backend::kScalar), Backend::kScalar);
  linalg::simd::set_force_scalar_override(-1);
}

// ---------------------------------------------------------------------------
// ULP distance (the harness's own diagnostic must be trustworthy).
// ---------------------------------------------------------------------------

TEST(UlpDistance, CountsRepresentableSteps) {
  EXPECT_EQ(stats::ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(stats::ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(stats::ulp_distance(-1.0, std::nextafter(-1.0, 0.0)), 1u);
  EXPECT_EQ(stats::ulp_distance(0.0, -0.0), 1u);  // sign drift is visible
  EXPECT_EQ(stats::ulp_distance(std::nextafter(0.0, -1.0),
                                std::nextafter(0.0, 1.0)),
            3u);
  EXPECT_EQ(stats::ulp_distance(std::nan(""), 1.0),
            std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------------
// Pipeline level: the batched worker is still the sequential oracle.
// ---------------------------------------------------------------------------

/// Batch-of-one scoring is the lockstep serving path: on trained vehicle A
/// (dim 66) and B (dim 34) models, every backend's n=1 result must equal
/// the paper's per-frame detect().
TEST(BatchScorerVehicles, BatchOfOneMatchesDetectOnVehiclesAAndB) {
  struct Case {
    sim::VehicleConfig config;
    std::size_t dim;
  };
  for (const Case& vc :
       {Case{sim::vehicle_a(), 66}, Case{sim::vehicle_b(), 34}}) {
    sim::Vehicle vehicle(vc.config, 0x5C0BE);
    const analog::Environment env = analog::Environment::reference();
    const vprofile::ExtractionConfig ex = sim::default_extraction(vc.config);
    std::vector<EdgeSet> train;
    for (const sim::Capture& cap : vehicle.capture(1200, env)) {
      if (auto es = vprofile::extract_edge_set(cap.codes, ex)) {
        train.push_back(std::move(*es));
      }
    }
    vprofile::TrainingConfig tc;
    tc.extraction = ex;
    auto out = vprofile::train_with_database(train, vehicle.database(), tc);
    ASSERT_TRUE(out.ok()) << out.error;
    const Model& model = *out.model;
    ASSERT_EQ(model.dimension(), vc.dim);
    std::vector<EdgeSet> stream;
    for (sim::LabeledCapture& lc :
         sim::make_hijack_stream(vehicle, 200, 0.2, env)) {
      if (auto es = vprofile::extract_edge_set(lc.capture.codes, ex)) {
        stream.push_back(std::move(*es));
      }
    }
    ASSERT_GT(stream.size(), 150u);
    const DetectionConfig dc = plain_config();
    const auto oracle = oracle_detections(model, stream, dc);
    for (const Backend backend : {Backend::kScalar, Backend::kAuto}) {
      const ScoringPlan plan(model, backend);
      const auto got = batched_detections(plan, stream, dc, 1);
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_detection(got[i], oracle[i],
                              "dim=" + std::to_string(vc.dim) + " backend=" +
                                  std::to_string(static_cast<int>(
                                      plan.backend())) +
                                  " frame=" + std::to_string(i));
      }
    }
  }
}

}  // namespace
