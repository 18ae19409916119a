#include <cmath>
#include <random>
#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/mahalanobis.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "oracles.hpp"

namespace {

using linalg::Cholesky;
using linalg::CovarianceAccumulator;
using linalg::IncrementalCovariance;
using linalg::Matrix;
using linalg::Vector;
using oracle::matmul;
using oracle::max_abs_diff;

Matrix diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m.at(i, i) = d[i];
  return m;
}

Matrix outer(const Vector& a, const Vector& b) {
  Matrix m(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) m.at(i, j) = a[i] * b[j];
  }
  return m;
}

Matrix random_spd(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = u(gen);
  }
  Matrix spd = matmul(a, a.transpose());
  spd.add_ridge(0.5);  // guarantee positive definiteness
  return spd;
}

TEST(VectorOps, AddSubtractScaleDot) {
  const Vector a = {1.0, 2.0, 3.0};
  const Vector b = {4.0, 5.0, 6.0};
  EXPECT_EQ(linalg::subtract(b, a), (Vector{3.0, 3.0, 3.0}));
  EXPECT_EQ(linalg::scale(a, 2.0), (Vector{2.0, 4.0, 6.0}));
  EXPECT_DOUBLE_EQ(linalg::dot(a, b), 32.0);
}

TEST(VectorOps, EuclideanDistanceMatchesEq21) {
  // Paper Eq 2.1: sqrt((x-y)^T (x-y)).
  EXPECT_DOUBLE_EQ(linalg::euclidean_distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(linalg::euclidean_distance({1.0}, {1.0}), 0.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  EXPECT_THROW(linalg::subtract({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(linalg::dot({1.0}, {}), std::invalid_argument);
  EXPECT_THROW(linalg::euclidean_distance({1.0}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(VectorOps, MeanOfVectors) {
  const Vector m = linalg::mean_of({{1.0, 10.0}, {3.0, 20.0}});
  EXPECT_EQ(m, (Vector{2.0, 15.0}));
  EXPECT_THROW(linalg::mean_of({}), std::invalid_argument);
  EXPECT_THROW(linalg::mean_of({{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix id = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(id.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(id.trace(), 3.0);
  EXPECT_TRUE(id.is_symmetric());
}

// The tests below check inverses through the oracle product; it must
// itself be right.
TEST(MatrixTest, MultiplicationMatchesHandComputation) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7;
  b.at(0, 1) = 8;
  b.at(1, 0) = 9;
  b.at(1, 1) = 10;
  b.at(2, 0) = 11;
  b.at(2, 1) = 12;
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  EXPECT_EQ(a * Vector({1.0, 1.0}), (Vector{3.0, 7.0}));
}

TEST(MatrixTest, TransposeAndSymmetryCheck) {
  Matrix a(2, 2);
  a.at(0, 1) = 5.0;
  EXPECT_FALSE(a.is_symmetric());
  const Matrix sym = a + a.transpose();
  EXPECT_TRUE(sym.is_symmetric());
}

TEST(MatrixTest, ShapeErrors) {
  EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
  Matrix a(2, 3);
  Matrix b(3, 3);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(b * Vector({1.0}), std::invalid_argument);
  EXPECT_THROW(a.trace(), std::logic_error);
  EXPECT_THROW(a.add_ridge(1.0), std::logic_error);
}

TEST(CholeskyTest, ReconstructsInput) {
  const Matrix a = random_spd(6, 1);
  const auto f = Cholesky::factorize(a);
  ASSERT_TRUE(f.has_value());
  const Matrix rebuilt = matmul(f->lower(), f->lower().transpose());
  EXPECT_LT(max_abs_diff(rebuilt, a), 1e-9);
}

TEST(CholeskyTest, SolveSatisfiesSystem) {
  const Matrix a = random_spd(5, 2);
  const Vector b = {1.0, -2.0, 0.5, 3.0, -1.0};
  const auto f = Cholesky::factorize(a);
  ASSERT_TRUE(f.has_value());
  const Vector x = f->solve(b);
  const Vector ax = a * x;
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  const Matrix a = random_spd(4, 3);
  const auto f = Cholesky::factorize(a);
  ASSERT_TRUE(f.has_value());
  const Matrix prod = matmul(a, f->inverse());
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(4)), 1e-9);
}

TEST(CholeskyTest, QuadraticFormMatchesExplicitInverse) {
  const Matrix a = random_spd(5, 4);
  const auto f = Cholesky::factorize(a);
  ASSERT_TRUE(f.has_value());
  const Vector x = {0.3, -1.2, 2.0, 0.0, 0.7};
  const Vector ix = f->inverse() * x;
  EXPECT_NEAR(oracle::quadratic_form(*f, x), linalg::dot(x, ix), 1e-9);
}

TEST(CholeskyTest, SingularMatrixReturnsNullopt) {
  // Rank-1 matrix: singular.
  const Matrix s = outer({1.0, 2.0}, {1.0, 2.0});
  EXPECT_FALSE(Cholesky::factorize(s).has_value());
}

TEST(CholeskyTest, IndefiniteMatrixReturnsNullopt) {
  Matrix m = Matrix::identity(2);
  m.at(1, 1) = -1.0;
  EXPECT_FALSE(Cholesky::factorize(m).has_value());
}

TEST(CholeskyTest, NonSquareThrows) {
  EXPECT_THROW(Cholesky::factorize(Matrix(2, 3)), std::invalid_argument);
}

TEST(CholeskyTest, RidgeFallbackRecoversSingular) {
  const Matrix s = outer({1.0, 2.0}, {1.0, 2.0});
  const auto r = linalg::factorize_with_ridge(s, 1e-6);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->ridge, 0.0);
}

TEST(CholeskyTest, RidgeFallbackUsesZeroWhenPossible) {
  const auto r = linalg::factorize_with_ridge(Matrix::identity(3), 1e-6);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->ridge, 0.0);
}

TEST(Eigen, DiagonalMatrixEigenvaluesSortedDescending) {
  const auto e = linalg::jacobi_eigen(diagonal({1.0, 5.0, 3.0}));
  EXPECT_NEAR(e.values[0], 5.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
}

TEST(Eigen, ReconstructsSymmetricMatrix) {
  const Matrix a = random_spd(6, 9);
  const auto e = linalg::jacobi_eigen(a);
  // A = V diag(lambda) V^T.
  const Matrix rebuilt =
      matmul(matmul(e.vectors, diagonal(e.values)), e.vectors.transpose());
  EXPECT_LT(max_abs_diff(rebuilt, a), 1e-8);
}

TEST(Eigen, EigenvectorsAreOrthonormal) {
  const Matrix a = random_spd(5, 10);
  const auto e = linalg::jacobi_eigen(a);
  const Matrix vtv = matmul(e.vectors.transpose(), e.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(5)), 1e-9);
}

TEST(Eigen, RejectsAsymmetricInput) {
  Matrix a(2, 2);
  a.at(0, 1) = 1.0;
  EXPECT_THROW(linalg::jacobi_eigen(a), std::invalid_argument);
  EXPECT_THROW(linalg::jacobi_eigen(Matrix(2, 3)), std::invalid_argument);
}

TEST(Covariance, MatchesDirectTwoPassEstimate) {
  std::mt19937 gen(21);
  std::normal_distribution<double> n(0.0, 1.0);
  const std::size_t dim = 3;
  std::vector<Vector> xs;
  for (int i = 0; i < 500; ++i) {
    Vector x(dim);
    x[0] = n(gen);
    x[1] = 0.5 * x[0] + n(gen);
    x[2] = n(gen) - x[1];
    xs.push_back(x);
  }
  CovarianceAccumulator acc(dim);
  for (const auto& x : xs) acc.add(x);

  // Two-pass reference.
  Vector mean(dim, 0.0);
  for (const auto& x : xs) {
    for (std::size_t i = 0; i < dim; ++i) mean[i] += x[i];
  }
  for (double& m : mean) m /= static_cast<double>(xs.size());
  Matrix ref(dim, dim);
  for (const auto& x : xs) {
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        ref.at(i, j) += (x[i] - mean[i]) * (x[j] - mean[j]);
      }
    }
  }
  ref = ref * (1.0 / static_cast<double>(xs.size()));

  EXPECT_LT(max_abs_diff(acc.covariance(), ref), 1e-10);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(acc.mean()[i], mean[i], 1e-12);
  }
}

TEST(Covariance, NeedsTwoObservations) {
  CovarianceAccumulator acc(2);
  acc.add({1.0, 2.0});
  EXPECT_THROW(acc.covariance(), std::logic_error);
}

TEST(Covariance, RejectsBadDimensions) {
  EXPECT_THROW(CovarianceAccumulator(0), std::invalid_argument);
  CovarianceAccumulator acc(2);
  EXPECT_THROW(acc.add({1.0}), std::invalid_argument);
}

TEST(ShermanMorrison, MatchesDirectInverse) {
  const Matrix a = random_spd(4, 30);
  const auto f = Cholesky::factorize(a);
  ASSERT_TRUE(f.has_value());
  const Vector u = {0.1, -0.2, 0.3, 0.4};
  const Vector v = {0.5, 0.1, -0.3, 0.2};
  const auto updated = linalg::sherman_morrison(f->inverse(), u, v);
  ASSERT_TRUE(updated.has_value());
  const Matrix a_plus = a + outer(u, v);
  const Matrix prod = matmul(a_plus, *updated);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(4)), 1e-8);
}

TEST(ShermanMorrison, SingularUpdateReturnsNullopt) {
  // A = I, u = -v => denominator 1 + v^T u = 1 - |v|^2 = 0 when |v| = 1.
  const Vector v = {1.0, 0.0};
  const Vector u = {-1.0, 0.0};
  EXPECT_FALSE(
      linalg::sherman_morrison(Matrix::identity(2), u, v).has_value());
}

// Property test: the paper's Eq 5.1 incremental update must agree with a
// batch recomputation after every step.
TEST(IncrementalCovariance, AgreesWithBatchAfterEachUpdate) {
  std::mt19937 gen(33);
  std::normal_distribution<double> n(0.0, 1.0);
  const std::size_t dim = 4;

  std::vector<Vector> xs;
  for (int i = 0; i < 40; ++i) {
    Vector x(dim);
    for (double& v : x) v = n(gen);
    xs.push_back(x);
  }

  // Seed from the first 20 observations.
  CovarianceAccumulator seed(dim);
  for (int i = 0; i < 20; ++i) seed.add(xs[i]);
  const Matrix cov = seed.covariance();
  const auto f = Cholesky::factorize(cov);
  ASSERT_TRUE(f.has_value());
  IncrementalCovariance inc(seed.mean(), cov, f->inverse(), seed.count());

  CovarianceAccumulator batch(dim);
  for (int i = 0; i < 20; ++i) batch.add(xs[i]);

  for (int i = 20; i < 40; ++i) {
    inc.update(xs[i]);
    batch.add(xs[i]);
    EXPECT_LT(max_abs_diff(inc.covariance(), batch.covariance()), 1e-9)
        << "diverged at step " << i;
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_NEAR(inc.mean()[d], batch.mean()[d], 1e-10);
    }
  }
  // The maintained inverse must still invert the maintained covariance.
  const Matrix prod = matmul(inc.covariance(), inc.inverse());
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(dim)), 1e-6);
}

TEST(IncrementalCovariance, ValidatesConstruction) {
  EXPECT_THROW(IncrementalCovariance({1.0}, Matrix(1, 1, 1.0),
                                     Matrix(2, 2), 5),
               std::invalid_argument);
  EXPECT_THROW(IncrementalCovariance({1.0}, Matrix(1, 1, 1.0),
                                     Matrix(1, 1, 1.0), 1),
               std::invalid_argument);
}

TEST(Mahalanobis, IdentityCovarianceReducesToEuclidean) {
  // Paper: Eq 2.2 reduces to Eq 2.1 when Sigma is the identity.
  const Vector x = {1.0, 2.0, 2.0};
  const Vector mu = {0.0, 0.0, 0.0};
  const auto f = Cholesky::factorize(Matrix::identity(3));
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(oracle::mahalanobis_distance(x, mu, *f),
              linalg::euclidean_distance(x, mu), 1e-12);
  EXPECT_NEAR(linalg::mahalanobis_distance_inv(x, mu, Matrix::identity(3)),
              3.0, 1e-12);
}

TEST(Mahalanobis, ScalesByVariance) {
  // Variance 4 along dim 0 halves that dimension's contribution.
  const auto f = Cholesky::factorize(diagonal({4.0, 1.0}));
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(oracle::mahalanobis_distance({2.0, 0.0}, {0.0, 0.0}, *f), 1.0,
              1e-12);
  EXPECT_NEAR(oracle::mahalanobis_distance({0.0, 2.0}, {0.0, 0.0}, *f), 2.0,
              1e-12);
  EXPECT_NEAR(linalg::mahalanobis_distance_inv({2.0, 0.0}, {0.0, 0.0},
                                               f->inverse()),
              1.0, 1e-12);
}

TEST(Mahalanobis, FactorAndInverseAgree) {
  const Matrix a = random_spd(5, 77);
  const auto f = Cholesky::factorize(a);
  ASSERT_TRUE(f.has_value());
  const Matrix inv = f->inverse();
  const Vector x = {1.0, 0.0, -2.0, 0.5, 0.25};
  const Vector mu = {0.1, 0.2, 0.3, 0.4, 0.5};
  EXPECT_NEAR(oracle::mahalanobis_distance(x, mu, *f),
              linalg::mahalanobis_distance_inv(x, mu, inv), 1e-9);
}

TEST(Mahalanobis, SizeMismatchThrows) {
  const auto f = Cholesky::factorize(Matrix::identity(2));
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(linalg::mahalanobis_distance_inv({1.0}, {1.0, 2.0},
                                                Matrix::identity(2)),
               std::invalid_argument);
}

}  // namespace
