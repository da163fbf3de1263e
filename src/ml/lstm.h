// From-scratch LSTM network with BPTT/Adam training (Sec. IV-C).
//
// The paper uses "a lightweight LSTM encoder with 2 layers and 20 hidden
// units" trained on CPU over arrival-rate series. This is exactly that: a
// stacked scalar-in/scalar-out LSTM, trained by truncated BPTT with Adam.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "ml/matrix.h"

namespace lion {

/// Width of each layer. The series is scalar, so the network takes one
/// input and produces one output; the depth (2 layers) and Adam's learning
/// rate are constants in lstm.cc.
struct LstmConfig {
  int hidden = 20;
};

/// One LSTM layer's parameters and Adam state.
struct LstmLayer {
  // Gate weights over the input (W) and the recurrent state (U), plus bias.
  // Gate order: input, forget, output, candidate.
  Matrix W[4], U[4];
  Vec b[4];
  // Gradients and Adam moments, same shapes.
  Matrix dW[4], dU[4];
  Vec db[4];
  Matrix mW[4], vW[4], mU[4], vU[4];
  Vec mb[4], vb[4];
};

/// Stacked LSTM + linear head predicting the next value of a (normalized)
/// scalar time series. Deterministic given the seed.
class LstmNetwork {
 public:
  LstmNetwork(const LstmConfig& config, uint64_t seed);

  /// Predicts the next value after `series` (normalized inputs expected).
  double PredictNext(const std::vector<double>& series) const;

  /// Iterated multi-step forecast: feeds predictions back as inputs.
  std::vector<double> Forecast(const std::vector<double>& series, int horizon) const;

  /// One BPTT pass over `series` predicting each next element; applies an
  /// Adam update and returns the mean squared error before the update.
  double TrainSequence(const std::vector<double>& series);

  /// Trains for `epochs` passes; returns the final epoch's MSE.
  double Train(const std::vector<double>& series, int epochs);

  /// MSE of one-step-ahead predictions over `series` (no update).
  double Evaluate(const std::vector<double>& series) const;

  const LstmConfig& config() const { return config_; }

  /// Test hook: flattens all parameters (for gradient checking).
  std::vector<double*> ParameterPointers();
  /// Test hook: gradient values after a backward pass, aligned with
  /// ParameterPointers().
  std::vector<double*> GradientPointers();
  /// Test hook: runs forward+backward over `series`, leaving gradients in
  /// place without applying an update. Returns the loss (sum of squared
  /// errors / steps).
  double ForwardBackward(const std::vector<double>& series);

 private:
  struct StepCache;

  /// Forward pass through all layers for one step. Returns the output.
  double StepForward(double x, std::vector<Vec>* h, std::vector<Vec>* c,
                     StepCache* cache) const;
  void ZeroGradients();
  void AdamUpdate();
  void ClipGradients();

  LstmConfig config_;
  std::vector<LstmLayer> layers_;
  Matrix Wy_;  // output head
  Vec by_;
  Matrix dWy_, mWy_, vWy_;
  Vec dby_, mby_, vby_;
  int adam_t_ = 0;
};

}  // namespace lion
