// Tests for the from-scratch LSTM: matrix ops, gradient correctness
// (finite-difference check), and learning capability on synthetic series.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ml/lstm.h"
#include "ml/matrix.h"

namespace lion {
namespace {

// --- Matrix -----------------------------------------------------------------

TEST(MatrixTest, MatVecAccum) {
  Matrix m(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  double vals[] = {1, 2, 3, 4, 5, 6};
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) m.at(r, c) = vals[r * 3 + c];
  Vec x = {1, 1, 1};
  Vec y = {10, 10};
  m.MatVecAccum(x, &y);
  EXPECT_DOUBLE_EQ(y[0], 16);
  EXPECT_DOUBLE_EQ(y[1], 25);
}

TEST(MatrixTest, MatTVecAccum) {
  Matrix m(2, 3);
  double vals[] = {1, 2, 3, 4, 5, 6};
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) m.at(r, c) = vals[r * 3 + c];
  Vec x = {1, 2};  // M^T x = [1+8, 2+10, 3+12]
  Vec y(3, 0.0);
  m.MatTVecAccum(x, &y);
  EXPECT_DOUBLE_EQ(y[0], 9);
  EXPECT_DOUBLE_EQ(y[1], 12);
  EXPECT_DOUBLE_EQ(y[2], 15);
}

TEST(MatrixTest, OuterAccum) {
  Matrix m(2, 2);
  m.OuterAccum({1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 6);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 8);
}

TEST(MatrixTest, RandomInitBounded) {
  Matrix m(10, 10);
  Rng rng(1);
  m.RandomInit(&rng, 0.5);
  for (double v : m.data()) {
    EXPECT_GE(v, -0.5);
    EXPECT_LE(v, 0.5);
  }
}

TEST(VecOpsTest, CosineSimilarity) {
  EXPECT_DOUBLE_EQ(vecops::CosineSimilarity({1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(vecops::CosineSimilarity({1, 0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(vecops::CosineSimilarity({1, 1}, {-1, -1}), -1.0);
  EXPECT_DOUBLE_EQ(vecops::CosineSimilarity({0, 0}, {1, 1}), 0.0);
  // Scale invariance: co-rising series match regardless of magnitude.
  EXPECT_NEAR(vecops::CosineSimilarity({1, 2, 3}, {10, 20, 30}), 1.0, 1e-12);
}

TEST(VecOpsTest, SuffixCosineSimilarityAlignsAtTheEnd) {
  // Equal lengths: identical to the plain cosine.
  EXPECT_DOUBLE_EQ(vecops::SuffixCosineSimilarity({1, 0}, {1, 0}), 1.0);
  EXPECT_NEAR(vecops::SuffixCosineSimilarity({1, 2, 3}, {10, 20, 30}), 1.0,
              1e-12);
  // Mismatched lengths compare the trailing min-length windows — the shared
  // recent history. A fresh series matching the tail of a long one is a
  // perfect match, where truncating the dot product but not the norms
  // (what CosineSimilarity's internals would do) reports ~0.46.
  EXPECT_NEAR(vecops::SuffixCosineSimilarity({9, 9, 9, 1, 2, 3}, {1, 2, 3}),
              1.0, 1e-12);
  EXPECT_NEAR(vecops::SuffixCosineSimilarity({1, 2, 3}, {9, 9, 9, 1, 2, 3}),
              1.0, 1e-12);
  // Orthogonal tails stay orthogonal no matter the prefix.
  EXPECT_DOUBLE_EQ(vecops::SuffixCosineSimilarity({5, 1, 0}, {0, 1}), 0.0);
  // Degenerate inputs: empty or all-zero suffixes report 0, not NaN.
  EXPECT_DOUBLE_EQ(vecops::SuffixCosineSimilarity({}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(vecops::SuffixCosineSimilarity({1, 0, 0}, {0, 0}), 0.0);
}

// --- LSTM gradient check -------------------------------------------------------

TEST(LstmTest, GradientMatchesFiniteDifference) {
  LstmConfig cfg;
  cfg.hidden = 4;
  LstmNetwork net(cfg, 3);
  std::vector<double> series = {0.1, 0.5, 0.3, 0.9, 0.2, 0.7};

  net.ForwardBackward(series);
  std::vector<double*> params = net.ParameterPointers();
  std::vector<double*> grads = net.GradientPointers();
  ASSERT_EQ(params.size(), grads.size());

  // Spot-check a spread of parameters against central differences.
  const double eps = 1e-6;
  int checked = 0;
  for (size_t i = 0; i < params.size(); i += 9) {
    double saved_grad = *grads[i];
    double orig = *params[i];
    *params[i] = orig + eps;
    double up = net.ForwardBackward(series);
    *params[i] = orig - eps;
    double down = net.ForwardBackward(series);
    *params[i] = orig;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(saved_grad, numeric, 1e-4 + 1e-3 * std::fabs(numeric))
        << "param index " << i;
    // Restore analytic gradients for the next iteration's baseline.
    net.ForwardBackward(series);
    checked++;
  }
  EXPECT_GT(checked, 20);
}

TEST(LstmTest, DeterministicForSeed) {
  LstmConfig cfg;
  cfg.hidden = 6;
  LstmNetwork a(cfg, 42), b(cfg, 42);
  std::vector<double> series = {0.2, 0.4, 0.6, 0.8};
  EXPECT_DOUBLE_EQ(a.PredictNext(series), b.PredictNext(series));
  a.TrainSequence(series);
  b.TrainSequence(series);
  EXPECT_DOUBLE_EQ(a.PredictNext(series), b.PredictNext(series));
}

TEST(LstmTest, TrainingReducesLoss) {
  LstmConfig cfg;
  cfg.hidden = 10;
  LstmNetwork net(cfg, 5);
  // sin wave sampled at 12 points/period, scaled to [0,1].
  std::vector<double> series;
  for (int i = 0; i < 48; ++i)
    series.push_back(0.5 + 0.5 * std::sin(i * 3.14159265 / 6.0));
  double initial = net.Evaluate(series);
  net.Train(series, 150);
  double trained = net.Evaluate(series);
  EXPECT_LT(trained, initial * 0.2);
  EXPECT_LT(trained, 0.02);
}

TEST(LstmTest, LearnsSineWavePrediction) {
  LstmConfig cfg;
  cfg.hidden = 12;
  LstmNetwork net(cfg, 11);
  std::vector<double> series;
  for (int i = 0; i < 60; ++i)
    series.push_back(0.5 + 0.5 * std::sin(i * 3.14159265 / 6.0));
  net.Train(series, 200);
  // Predict the next point after the training window.
  double predicted = net.PredictNext(series);
  double actual = 0.5 + 0.5 * std::sin(60 * 3.14159265 / 6.0);
  EXPECT_NEAR(predicted, actual, 0.15);
}

TEST(LstmTest, LearnsWorkloadShiftPattern) {
  // A step series mimicking an arrival-rate ramp: low, then rising.
  LstmConfig cfg;
  cfg.hidden = 10;
  LstmNetwork net(cfg, 9);
  std::vector<double> series;
  for (int rep = 0; rep < 6; ++rep) {
    for (int i = 0; i < 5; ++i) series.push_back(0.1);
    for (int i = 0; i < 5; ++i) series.push_back(0.1 + 0.18 * i);
  }
  net.Train(series, 150);
  EXPECT_LT(net.Evaluate(series), 0.03);
}

TEST(LstmTest, ForecastIteratesHorizon) {
  LstmConfig cfg;
  cfg.hidden = 6;
  LstmNetwork net(cfg, 2);
  std::vector<double> series = {0.5, 0.5, 0.5, 0.5};
  std::vector<double> fc = net.Forecast(series, 4);
  ASSERT_EQ(fc.size(), 4u);
  // Untrained output is arbitrary but must be finite and bounded.
  for (double v : fc) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::fabs(v), 100.0);
  }
}

TEST(LstmTest, EvaluateOnTinySeriesIsZero) {
  LstmNetwork net(LstmConfig{}, 1);
  EXPECT_DOUBLE_EQ(net.Evaluate({0.5}), 0.0);
  EXPECT_DOUBLE_EQ(net.TrainSequence({0.5}), 0.0);
}

TEST(LstmTest, GradClipKeepsUpdatesFinite) {
  LstmConfig cfg;
  cfg.hidden = 4;
  LstmNetwork net(cfg, 13);
  // Large values: the raw gradients far exceed the clip of 5.
  std::vector<double> series = {0.0, 1000.0, 0.0, 1000.0, 0.0, 1000.0};
  net.ForwardBackward(series);
  double max_raw = 0.0;
  for (double* g : net.GradientPointers()) {
    max_raw = std::max(max_raw, std::fabs(*g));
  }
  EXPECT_GT(max_raw, 5.0);
  for (int i = 0; i < 50; ++i) net.TrainSequence(series);
  // Each update applied the clipped gradients.
  for (double* g : net.GradientPointers()) EXPECT_LE(std::fabs(*g), 5.0);
  double out = net.PredictNext(series);
  EXPECT_TRUE(std::isfinite(out));
}

}  // namespace
}  // namespace lion
