// Configuration of the workload prediction pipeline (Sec. IV-C), shared by
// every predictor implementation. `kind` selects the implementation through
// PredictorRegistry (harness/registry.h); "off" disables prediction even
// for protocol variants that would otherwise construct one.
#pragma once

#include <string>

#include "common/types.h"
#include "ml/lstm.h"

namespace lion {

struct PredictorConfig {
  /// Predictor implementation, resolved through PredictorRegistry
  /// ("lstm", "ewma", ...); "off" disables the prediction mechanism.
  std::string kind = "lstm";
  /// Sampling interval i of the arrival-rate history (Eq. 5).
  SimTime sample_interval = 100 * kMillisecond;
  /// LSTM input length (paper: preceding ten periods).
  int history_window = 10;
  /// h of Eq. 6: forecast horizon in sampling intervals.
  int horizon = 3;
  /// γ: workload-variation threshold that triggers pre-replication.
  double gamma = 0.10;
  /// Scale from forecast arrival rate (txns/interval) to graph weight.
  double prediction_scale = 1.0;
  /// Training epochs per planning round (Sec. IV-C: a class model retrains
  /// when its MSE degrades).
  int train_epochs = 10;
  /// Season length m (in sampling intervals) of the seasonal-naive baseline
  /// predictor: ŷ(T+h) = y(T+h−m).
  int seasonal_period = 10;
  LstmConfig lstm;  // 2 layers x 20 hidden by default, matching the paper
};

}  // namespace lion
