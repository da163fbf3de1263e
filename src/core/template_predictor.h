// Shared three-phase prediction pipeline (Sec. IV-C), model-agnostic.
//
// Every concrete predictor (the paper's LSTM, the EWMA/Holt baseline)
// realizes the same three phases:
//   1. template identification — transactions accessing the same partition
//      set share a template whose arrival-rate history is tracked;
//   2. workload classification — templates whose arrival rates move
//      together (cosine distance < β) merge into workload classes;
//   3. time-series prediction — a per-class model forecasts arrival rates;
//      rising classes contribute reservoir-sampled templates to the heat
//      graph with weight w_p, and wv(t, h) > γ signals pre-replication.
// Phases 1 and 2 plus the wv trigger live here; subclasses supply only the
// per-class forecasting model via FitModels()/ForecastClass(). That keeps
// prediction-mechanism ablations honest: lstm-vs-ewma A/Bs differ in the
// forecast alone, never in bookkeeping.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/ring_window.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/predictor_config.h"
#include "core/predictor_interface.h"

namespace lion {

class TemplateClassPredictor : public PredictorInterface {
 public:
  void OnTxn(const std::vector<PartitionId>& parts, SimTime now) override;
  void AugmentGraph(HeatGraph* graph, SimTime now) override;
  double WorkloadVariation(SimTime now) override;
  void ForecastPartitions(SimTime now, int horizon,
                          std::vector<double>* out) override;

  // --- introspection (tests, examples) --------------------------------------
  size_t num_templates() const { return templates_.size(); }
  size_t num_classes() const { return classes_.size(); }
  /// Sampling intervals closed since the first observation. Before anything
  /// is observed nothing can close, so a predictor first fed at time T
  /// reports 0 here (not T / sample_interval).
  uint64_t intervals_closed() const { return intervals_closed_; }
  uint64_t pre_replications_triggered() const { return triggers_; }

  /// Closes the current sampling interval immediately (test hook).
  void ForceCloseInterval(SimTime now);

  /// Arrival-rate series of class `k` (mean counts per interval of its
  /// member templates). Out-of-range `k` returns an empty series.
  const std::vector<double>& ClassSeries(size_t k) const {
    static const std::vector<double> kEmpty;
    return k < classes_.size() ? classes_[k].series : kEmpty;
  }

 protected:
  TemplateClassPredictor(PredictorConfig config, uint64_t seed);

  /// Per-class model state; concrete predictors subclass this and downcast.
  /// Models follow their class across reclassification (matched by first
  /// member) so training state survives membership churn.
  struct ClassModel {
    virtual ~ClassModel() = default;
  };

  struct WorkloadClass {
    std::vector<size_t> members;
    std::vector<double> series;  // mean arrival rate of member templates
    std::unique_ptr<ClassModel> model;
  };

  /// Fits/updates every class's model from its current series. Called once
  /// per planning round, after reclassification and before forecasting.
  virtual void FitModels() = 0;

  /// Forecast of class `cls`, `horizon` intervals ahead (denormalized).
  virtual double ForecastClass(const WorkloadClass& cls,
                               int horizon) const = 0;

  std::vector<WorkloadClass>& classes() { return classes_; }
  const std::vector<WorkloadClass>& classes() const { return classes_; }

  PredictorConfig config_;

 private:
  struct Template {
    std::vector<PartitionId> parts;
    RingWindow ar;        // counts per closed interval (bounded window)
    double current = 0.0; // counts in the open interval
    double total = 0.0;
  };

  /// Closes every sampling interval boundary crossed since the last call.
  /// O(min(elapsed, class window)) per template regardless of gap length:
  /// before the first observation the grid fast-forwards in O(1) (nothing
  /// to record, nothing counted), and a long idle gap appends at most one
  /// window of zeros since older entries would be evicted anyway.
  void MaybeCloseIntervals(SimTime now);
  void Reclassify();
  /// wv(t, h) over the current classes; when `forecasts` is non-null it
  /// receives each class's forecast in class order, so AugmentGraph pays
  /// one model inference per class per round instead of two.
  double VariationOverForecasts(std::vector<double>* forecasts) const;

  Rng rng_;
  SimTime interval_start_ = 0;
  uint64_t intervals_closed_ = 0;
  /// intervals_closed_ value at the last Reclassify+FitModels run by
  /// ForecastPartitions. Series only change when an interval closes, so a
  /// caller polling faster than the sampling interval (the meta-protocol's
  /// epoch loop) reuses the fitted models instead of retraining each tick.
  /// ~0 = never fitted.
  uint64_t fitted_at_intervals_ = ~uint64_t{0};
  uint64_t triggers_ = 0;
  std::map<std::vector<PartitionId>, size_t> template_index_;
  std::vector<Template> templates_;
  std::vector<WorkloadClass> classes_;
  std::vector<double> series_scratch_;    // reused linearization buffer
  std::vector<double> forecast_scratch_;  // per-round forecast cache
};

}  // namespace lion
