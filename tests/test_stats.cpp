#include <cmath>
#include <functional>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "stats/confusion.hpp"
#include "stats/interval.hpp"
#include "stats/rng.hpp"
#include "stats/welford.hpp"

namespace {

using stats::BinaryConfusion;
using stats::Rng;
using stats::Welford;

TEST(Welford, MeanAndVarianceMatchDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  Welford acc;
  for (double x : xs) acc.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);

  EXPECT_DOUBLE_EQ(acc.mean(), mean);
  EXPECT_NEAR(acc.variance(), var / static_cast<double>(xs.size()), 1e-12);
  EXPECT_NEAR(acc.sample_variance(),
              var / static_cast<double>(xs.size() - 1), 1e-12);
}

TEST(Welford, SingleSampleHasZeroVariance) {
  Welford acc;
  acc.add(5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 0.0);
}

TEST(Welford, NumericallyStableWithLargeOffset) {
  // Classic catastrophic-cancellation case for naive sum-of-squares.
  Welford acc;
  const double offset = 1.0e9;
  for (double x : {offset + 1.0, offset + 2.0, offset + 3.0}) acc.add(x);
  EXPECT_NEAR(acc.variance(), 2.0 / 3.0, 1e-6);
}

TEST(VectorWelford, MatchesScalarWelfordPerDimension) {
  stats::VectorWelford vec(2);
  Welford s0;
  Welford s1;
  std::mt19937 gen(1);
  std::uniform_real_distribution<double> u(-1, 1);
  for (int i = 0; i < 100; ++i) {
    const double a = u(gen);
    const double b = u(gen);
    vec.add({a, b});
    s0.add(a);
    s1.add(b);
  }
  EXPECT_NEAR(vec.mean()[0], s0.mean(), 1e-12);
  EXPECT_NEAR(vec.mean()[1], s1.mean(), 1e-12);
  EXPECT_NEAR(vec.variance()[0], s0.variance(), 1e-12);
  EXPECT_NEAR(vec.stddev()[1], s1.stddev(), 1e-12);
}

TEST(VectorWelford, RejectsDimensionMismatch) {
  stats::VectorWelford vec(3);
  EXPECT_THROW(vec.add({1.0, 2.0}), std::invalid_argument);
}

TEST(VectorWelford, RejectsZeroDimension) {
  EXPECT_THROW(stats::VectorWelford(0), std::invalid_argument);
}

TEST(BinaryConfusion, CountsCellsCorrectly) {
  BinaryConfusion cm;
  cm.add(true, true);    // TP
  cm.add(true, false);   // FN
  cm.add(false, true);   // FP
  cm.add(false, false);  // TN
  cm.add(false, false);  // TN
  EXPECT_EQ(cm.true_positives(), 1u);
  EXPECT_EQ(cm.false_negatives(), 1u);
  EXPECT_EQ(cm.false_positives(), 1u);
  EXPECT_EQ(cm.true_negatives(), 2u);
  EXPECT_EQ(cm.total(), 5u);
}

TEST(BinaryConfusion, MetricsMatchHandComputation) {
  BinaryConfusion cm;
  for (int i = 0; i < 8; ++i) cm.add(true, true);
  for (int i = 0; i < 2; ++i) cm.add(true, false);
  cm.add(false, true);
  for (int i = 0; i < 89; ++i) cm.add(false, false);
  EXPECT_NEAR(cm.accuracy(), 97.0 / 100.0, 1e-12);
  EXPECT_NEAR(cm.precision(), 8.0 / 9.0, 1e-12);
  EXPECT_NEAR(cm.recall(), 8.0 / 10.0, 1e-12);
  const double p = 8.0 / 9.0;
  const double r = 0.8;
  EXPECT_NEAR(cm.f_score(), 2 * p * r / (p + r), 1e-12);
}

TEST(BinaryConfusion, EmptyMatrixIsSafe) {
  BinaryConfusion cm;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 1.0);  // vacuous: nothing to find
  EXPECT_DOUBLE_EQ(cm.recall(), 1.0);
  EXPECT_DOUBLE_EQ(cm.f_score(), 1.0);
}

TEST(BinaryConfusion, NoAnomaliesYieldsPerfectRecall) {
  BinaryConfusion cm;
  cm.add(false, false);
  EXPECT_DOUBLE_EQ(cm.recall(), 1.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

TEST(BinaryConfusion, TableRendersCounts) {
  BinaryConfusion cm;
  cm.add(true, true);
  const std::string table = cm.to_table("T");
  EXPECT_NE(table.find('T'), std::string::npos);
  EXPECT_NE(table.find("Anomaly"), std::string::npos);
}

TEST(Interval, StandardQuantiles) {
  EXPECT_NEAR(stats::normal_quantile_two_sided(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(stats::normal_quantile_two_sided(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(stats::normal_quantile_two_sided(0.90), 1.644854, 1e-4);
}

TEST(Interval, RejectsBadConfidence) {
  EXPECT_THROW(stats::normal_quantile_two_sided(0.0), std::invalid_argument);
  EXPECT_THROW(stats::normal_quantile_two_sided(1.0), std::invalid_argument);
}

TEST(Interval, MeanCiCoversTrueMeanMostOfTheTime) {
  // Property: ~99% of 99% CIs on N(0,1) samples should contain 0.
  std::mt19937 gen(7);
  std::normal_distribution<double> n(0.0, 1.0);
  int covered = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs(50);
    for (double& x : xs) x = n(gen);
    const auto ci = stats::mean_confidence_interval(xs, 0.99);
    if (std::fabs(ci.mean) <= ci.half_width) ++covered;
  }
  EXPECT_GE(covered, trials * 95 / 100);
}

TEST(Interval, WiderConfidenceGivesWiderInterval) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto ci95 = stats::mean_confidence_interval(xs, 0.95);
  const auto ci99 = stats::mean_confidence_interval(xs, 0.99);
  EXPECT_GT(ci99.half_width, ci95.half_width);
  EXPECT_DOUBLE_EQ(ci95.mean, ci99.mean);
}

TEST(Interval, EmptySampleThrows) {
  EXPECT_THROW(stats::mean_confidence_interval({}, 0.99),
               std::invalid_argument);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (std::equal_to<double>{}(a.uniform(), b.uniform())) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(RngTest, BernoulliFrequencyApproximatesP) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.2)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.02);
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(13);
  Welford acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (std::equal_to<double>{}(a.uniform(), child.uniform())) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
