#include "core/template_predictor.h"

#include <algorithm>
#include <cmath>

#include "ml/matrix.h"

namespace lion {

namespace {
/// Reservoir sample size: templates drawn per rising workload class.
constexpr size_t kSampleSize = 8;
/// Cap on tracked templates (the first ones seen are kept).
constexpr size_t kMaxTemplates = 512;
/// β: cosine-distance threshold below which templates merge into one
/// workload class (similarity >= 1 - β).
constexpr double kBeta = 0.15;
/// Length of the arrival-rate window kept per class.
constexpr size_t kClassWindow = 64;
/// w_p: weight coefficient of predicted workloads in the heat graph.
constexpr double kWp = 1.0;
}  // namespace

TemplateClassPredictor::TemplateClassPredictor(PredictorConfig config,
                                               uint64_t seed)
    : config_(config), rng_(seed) {}

void TemplateClassPredictor::MaybeCloseIntervals(SimTime now) {
  const SimTime interval = config_.sample_interval;
  if (now - interval_start_ < interval) return;
  const uint64_t elapsed =
      static_cast<uint64_t>((now - interval_start_) / interval);
  interval_start_ += static_cast<SimTime>(elapsed) * interval;
  if (templates_.empty()) {
    // Nothing has been observed yet (predictor attached late, or the
    // first transaction arrives deep into the run): fast-forward the grid
    // in O(1). These intervals carry no data, so they don't count as
    // closed — intervals_closed() measures history actually recorded.
    return;
  }
  // The open interval's counts close into the first boundary; the rest of
  // the gap is idle (zeros). Only the trailing kClassWindow entries survive
  // the ring, so a gap of any length costs O(window), not O(gap).
  const uint64_t zeros =
      std::min<uint64_t>(elapsed - 1, kClassWindow);
  for (Template& t : templates_) {
    t.ar.Push(t.current);
    for (uint64_t i = 0; i < zeros; ++i) t.ar.Push(0.0);
    t.current = 0.0;
  }
  intervals_closed_ += elapsed;
}

void TemplateClassPredictor::ForceCloseInterval(SimTime now) {
  interval_start_ = now;
  if (templates_.empty()) return;  // same invariant as MaybeCloseIntervals:
                                   // nothing recorded, nothing closed
  for (Template& t : templates_) {
    t.ar.Push(t.current);
    t.current = 0.0;
  }
  intervals_closed_++;
}

void TemplateClassPredictor::OnTxn(const std::vector<PartitionId>& parts,
                                   SimTime now) {
  MaybeCloseIntervals(now);
  auto it = template_index_.find(parts);
  size_t idx;
  if (it == template_index_.end()) {
    if (templates_.size() >= kMaxTemplates) return;  // capped
    idx = templates_.size();
    Template t;
    t.parts = parts;
    t.ar.Reset(kClassWindow);
    // Align the new template's history with everyone else's.
    if (!templates_.empty()) {
      for (size_t i = 0; i < templates_[0].ar.size(); ++i) t.ar.Push(0.0);
    }
    templates_.push_back(std::move(t));
    template_index_.emplace(parts, idx);
  } else {
    idx = it->second;
  }
  templates_[idx].current += 1.0;
  templates_[idx].total += 1.0;
}

void TemplateClassPredictor::Reclassify() {
  // Greedy cosine clustering of template arrival-rate vectors: a template
  // joins the first class whose mean series is within distance β. Series
  // align at their ends (the shared recent history), so a template tracked
  // for fewer intervals than its class compares over the common suffix.
  std::vector<WorkloadClass> old = std::move(classes_);
  classes_.clear();
  for (size_t i = 0; i < templates_.size(); ++i) {
    templates_[i].ar.CopyTo(&series_scratch_);
    const Vec& series = series_scratch_;
    if (series.empty()) continue;
    bool placed = false;
    for (WorkloadClass& cls : classes_) {
      double sim = vecops::SuffixCosineSimilarity(series, cls.series);
      if (sim >= 1.0 - kBeta) {
        // Merge: running mean of member series over the common suffix.
        double n = static_cast<double>(cls.members.size());
        size_t m = std::min(cls.series.size(), series.size());
        size_t coff = cls.series.size() - m;
        size_t soff = series.size() - m;
        for (size_t k = 0; k < m; ++k) {
          cls.series[coff + k] =
              (cls.series[coff + k] * n + series[soff + k]) / (n + 1.0);
        }
        cls.members.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      WorkloadClass cls;
      cls.members.push_back(i);
      cls.series = series;
      classes_.push_back(std::move(cls));
    }
  }
  // Reuse fitted models where the membership signature survived; otherwise
  // a fresh model fits below. (Cheap heuristic: match by first member.)
  for (WorkloadClass& cls : classes_) {
    for (WorkloadClass& prev : old) {
      if (prev.model != nullptr && !prev.members.empty() &&
          prev.members[0] == cls.members[0]) {
        cls.model = std::move(prev.model);
        break;
      }
    }
  }
}

double TemplateClassPredictor::VariationOverForecasts(
    std::vector<double>* forecasts) const {
  if (classes_.empty()) return 0.0;
  // Normalize by the hottest class's current rate so γ is scale-free.
  double max_rate = 1.0;
  for (const WorkloadClass& cls : classes_) {
    if (!cls.series.empty()) max_rate = std::max(max_rate, cls.series.back());
  }
  double sum = 0.0;
  for (const WorkloadClass& cls : classes_) {
    double current = cls.series.empty() ? 0.0 : cls.series.back();
    double future = ForecastClass(cls, config_.horizon);
    if (forecasts != nullptr) forecasts->push_back(future);
    double delta = (future - current) / max_rate;
    sum += delta * delta;
  }
  return std::sqrt(sum / static_cast<double>(classes_.size()));
}

double TemplateClassPredictor::WorkloadVariation(SimTime now) {
  MaybeCloseIntervals(now);
  return VariationOverForecasts(nullptr);
}

void TemplateClassPredictor::ForecastPartitions(SimTime now, int horizon,
                                                std::vector<double>* out) {
  MaybeCloseIntervals(now);
  out->clear();
  if (templates_.empty()) return;
  // Series only move when a sampling interval closes, so refit at most once
  // per closed interval: a consumer polling every epoch (10 ms) against a
  // 100 ms sampling interval reuses the fitted models nine ticks out of ten.
  if (fitted_at_intervals_ != intervals_closed_) {
    Reclassify();
    FitModels();
    fitted_at_intervals_ = intervals_closed_;
  }
  if (classes_.empty()) return;
  for (const WorkloadClass& cls : classes_) {
    double rate = ForecastClass(cls, horizon);
    if (rate <= 0.0 || cls.members.empty()) continue;
    // The class series is the mean over member templates, so the forecast
    // is each member's expected rate; a member loads every partition it
    // touches (a cross-partition transaction costs work on each leg).
    for (size_t ti : cls.members) {
      for (PartitionId p : templates_[ti].parts) {
        if (out->size() <= static_cast<size_t>(p)) out->resize(p + 1, 0.0);
        (*out)[p] += rate;
      }
    }
  }
}

void TemplateClassPredictor::AugmentGraph(HeatGraph* graph, SimTime now) {
  MaybeCloseIntervals(now);
  if (templates_.empty()) return;
  Reclassify();
  FitModels();

  // One forecast per class per round: the wv computation caches them for
  // the edge-injection loop below (an LSTM forward pass per class is the
  // expensive half of a planning round).
  forecast_scratch_.clear();
  double wv = VariationOverForecasts(&forecast_scratch_);
  if (wv <= config_.gamma) return;
  triggers_++;

  for (size_t c = 0; c < classes_.size(); ++c) {
    const WorkloadClass& cls = classes_[c];
    double current = cls.series.empty() ? 0.0 : cls.series.back();
    double future = forecast_scratch_[c];
    if (future <= current) continue;  // only rising workloads pre-replicate

    // Reservoir-sample member templates (Vitter's Algorithm R).
    std::vector<size_t> reservoir;
    size_t k = kSampleSize;
    for (size_t i = 0; i < cls.members.size(); ++i) {
      if (reservoir.size() < k) {
        reservoir.push_back(cls.members[i]);
      } else {
        size_t j = static_cast<size_t>(rng_.Uniform(i + 1));
        if (j < k) reservoir[j] = cls.members[i];
      }
    }
    double share =
        future / std::max(1.0, static_cast<double>(cls.members.size()));
    for (size_t ti : reservoir) {
      const Template& t = templates_[ti];
      if (t.parts.size() < 2) continue;  // no co-access edge to strengthen
      double weight = kWp * config_.prediction_scale * share;
      if (weight > 0.0) graph->AddAccess(t.parts, weight);
    }
  }
}

}  // namespace lion
