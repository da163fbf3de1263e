#include "core/ewma_predictor.h"

#include <algorithm>
#include <memory>

#include "harness/registry.h"

namespace lion {

namespace {
/// Level and trend smoothing factors of Holt's method.
constexpr double kLevelSmoothing = 0.5;
constexpr double kTrendSmoothing = 0.3;
}  // namespace

EwmaPredictor::EwmaPredictor(PredictorConfig config, uint64_t seed)
    : TemplateClassPredictor(std::move(config), seed) {}

void EwmaPredictor::FitModels() {
  // Holt's linear smoothing, refit from scratch over each class's bounded
  // series: O(window) per class per round, so there is no training state to
  // go stale and nothing to retrain. The class model only caches the fit.
  const double a = kLevelSmoothing;
  const double g = kTrendSmoothing;
  for (WorkloadClass& cls : classes()) {
    if (cls.series.size() < 2) continue;
    if (cls.model == nullptr) cls.model = std::make_unique<HoltModel>();
    auto* model = static_cast<HoltModel*>(cls.model.get());
    double level = cls.series[0];
    double trend = cls.series[1] - cls.series[0];
    double err2 = 0.0;
    for (size_t t = 1; t < cls.series.size(); ++t) {
      double predicted = level + trend;
      double e = cls.series[t] - predicted;
      err2 += e * e;
      double prev_level = level;
      level = a * cls.series[t] + (1.0 - a) * (level + trend);
      trend = g * (level - prev_level) + (1.0 - g) * trend;
    }
    model->level = level;
    model->trend = trend;
    model->last_mse = err2 / static_cast<double>(cls.series.size() - 1);
    model->fitted = true;
  }
}

double EwmaPredictor::ForecastClass(const WorkloadClass& cls,
                                    int horizon) const {
  const auto* model = static_cast<const HoltModel*>(cls.model.get());
  if (model == nullptr || !model->fitted || cls.series.empty()) {
    return cls.series.empty() ? 0.0 : cls.series.back();
  }
  return std::max(
      0.0, model->level + static_cast<double>(horizon) * model->trend);
}

namespace {

const PredictorRegistrar kRegisterEwma(
    "ewma",
    [](const PredictorContext& ctx) -> std::unique_ptr<PredictorInterface> {
      return std::make_unique<EwmaPredictor>(ctx.config, ctx.seed);
    });

}  // namespace

}  // namespace lion
