#include "core/predictor.h"

#include <algorithm>

#include "harness/registry.h"

namespace lion {

namespace {
/// MSE above which a class model is retrained.
constexpr double kRetrainMse = 0.01;
}  // namespace

LstmPredictor::LstmPredictor(PredictorConfig config, uint64_t seed)
    : TemplateClassPredictor(std::move(config), seed), lstm_seed_(seed) {}

void LstmPredictor::FitModels() {
  for (WorkloadClass& cls : classes()) {
    if (cls.series.size() < 4) continue;
    if (cls.model == nullptr) cls.model = std::make_unique<LstmModel>();
    auto* model = static_cast<LstmModel*>(cls.model.get());
    double mx = *std::max_element(cls.series.begin(), cls.series.end());
    model->norm = mx > 0.0 ? mx : 1.0;
    std::vector<double> normalized(cls.series.size());
    for (size_t i = 0; i < cls.series.size(); ++i)
      normalized[i] = cls.series[i] / model->norm;
    if (model->lstm == nullptr) {
      model->lstm = std::make_unique<LstmNetwork>(config_.lstm, ++lstm_seed_);
    }
    // Retrain when stale (Sec. IV-C: retrain when MSE degrades).
    double mse = model->lstm->Evaluate(normalized);
    if (mse > kRetrainMse) {
      mse = model->lstm->Train(normalized, config_.train_epochs);
    }
    model->last_mse = mse;
  }
}

double LstmPredictor::ForecastClass(const WorkloadClass& cls,
                                    int horizon) const {
  const auto* model = static_cast<const LstmModel*>(cls.model.get());
  if (model == nullptr || model->lstm == nullptr || cls.series.empty()) {
    return cls.series.empty() ? 0.0 : cls.series.back();
  }
  size_t window = std::min(cls.series.size(),
                           static_cast<size_t>(config_.history_window));
  std::vector<double> input(cls.series.end() - window, cls.series.end());
  for (double& v : input) v /= model->norm;
  std::vector<double> forecast = model->lstm->Forecast(input, horizon);
  double value = forecast.empty() ? 0.0 : forecast.back();
  return std::max(0.0, value * model->norm);
}

namespace {

const PredictorRegistrar kRegisterLstm(
    "lstm",
    [](const PredictorContext& ctx) -> std::unique_ptr<PredictorInterface> {
      return std::make_unique<LstmPredictor>(ctx.config, ctx.seed);
    });

}  // namespace

}  // namespace lion
