// Tests for the workload predictors: template identification, cosine
// workload classification, wv trigger (Eq. 6), graph augmentation, interval
// bookkeeping edge cases (late attach, idle gaps), and lstm/ewma parity.
#include <gtest/gtest.h>

#include "core/ewma_predictor.h"
#include "core/heat_graph.h"
#include "core/predictor.h"

namespace lion {
namespace {

PredictorConfig FastConfig() {
  PredictorConfig cfg;
  cfg.sample_interval = 10 * kMillisecond;
  cfg.history_window = 8;
  cfg.horizon = 2;
  cfg.train_epochs = 30;
  cfg.lstm.hidden = 8;
  return cfg;
}

TEST(PredictorTest, TemplateIdentificationByPartitionSet) {
  LstmPredictor pred(FastConfig());
  pred.OnTxn({1, 2}, 0);
  pred.OnTxn({1, 2}, 0);
  pred.OnTxn({3}, 0);
  pred.OnTxn({2, 1}, 0);  // callers pass sorted sets; {1,2} matches
  EXPECT_EQ(pred.num_templates(), 3u);
}

TEST(PredictorTest, IntervalsCloseWithTime) {
  PredictorConfig cfg = FastConfig();
  LstmPredictor pred(cfg);
  pred.OnTxn({1, 2}, 0);
  EXPECT_EQ(pred.intervals_closed(), 0u);
  pred.OnTxn({1, 2}, 25 * kMillisecond);  // crosses two boundaries
  EXPECT_EQ(pred.intervals_closed(), 2u);
}

TEST(PredictorTest, ArrivalRateSeriesCountsPerInterval) {
  PredictorConfig cfg = FastConfig();
  LstmPredictor pred(cfg);
  for (int i = 0; i < 5; ++i) pred.OnTxn({1, 2}, 0);
  pred.ForceCloseInterval(10 * kMillisecond);
  for (int i = 0; i < 3; ++i) pred.OnTxn({1, 2}, 10 * kMillisecond);
  pred.ForceCloseInterval(20 * kMillisecond);

  HeatGraph g;
  pred.AugmentGraph(&g, 20 * kMillisecond);  // triggers classification
  ASSERT_EQ(pred.num_classes(), 1u);
  const auto& series = pred.ClassSeries(0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 5.0);
  EXPECT_DOUBLE_EQ(series[1], 3.0);
}

TEST(PredictorTest, CosineMergesCoMovingTemplates) {
  PredictorConfig cfg = FastConfig();
  LstmPredictor pred(cfg);
  // Templates A={1,2} and B={3,4} rise together; C={5,6} moves oppositely.
  SimTime t = 0;
  for (int interval = 0; interval < 8; ++interval) {
    int rising = interval + 1;
    int falling = 8 - interval;
    for (int i = 0; i < rising; ++i) pred.OnTxn({1, 2}, t);
    for (int i = 0; i < rising; ++i) pred.OnTxn({3, 4}, t);
    for (int i = 0; i < falling; ++i) pred.OnTxn({5, 6}, t);
    t += cfg.sample_interval;
  }
  HeatGraph g;
  pred.AugmentGraph(&g, t);
  // A and B merge (cosine ~1); C stays separate.
  EXPECT_EQ(pred.num_templates(), 3u);
  EXPECT_EQ(pred.num_classes(), 2u);
}

TEST(PredictorTest, WorkloadVariationLowOnSteadyWorkload) {
  PredictorConfig cfg = FastConfig();
  LstmPredictor pred(cfg);
  SimTime t = 0;
  for (int interval = 0; interval < 16; ++interval) {
    for (int i = 0; i < 10; ++i) pred.OnTxn({1, 2}, t);
    t += cfg.sample_interval;
  }
  HeatGraph g;
  pred.AugmentGraph(&g, t);  // trains the model on the flat series
  double wv = pred.WorkloadVariation(t);
  EXPECT_LT(wv, 0.35);  // flat series: forecast ~ current
}

TEST(PredictorTest, PeriodicBurstForecastInjectsPredictedEdges) {
  // The Fig. 5 scenario: workload W2 (template {7,8}) bursts periodically.
  // With history ending in the quiet phase right before a burst, the LSTM
  // forecast at horizon h lands inside the burst -> rising class -> its
  // templates are injected into the heat graph.
  PredictorConfig cfg = FastConfig();
  cfg.gamma = 0.05;
  cfg.horizon = 2;
  cfg.prediction_scale = 10.0;
  cfg.train_epochs = 120;
  cfg.lstm.hidden = 10;
  cfg.history_window = 12;
  LstmPredictor pred(cfg);
  SimTime t = 0;
  // Period-4 pattern: 1, 1, 9, 9 repeated; stop right before a burst.
  auto rate_at = [](int interval) { return interval % 4 < 2 ? 1 : 9; };
  for (int interval = 0; interval < 26; ++interval) {  // ends after "1, 1"
    for (int i = 0; i < rate_at(interval); ++i) pred.OnTxn({7, 8}, t);
    t += cfg.sample_interval;
  }
  HeatGraph g;
  pred.AugmentGraph(&g, t);
  EXPECT_EQ(pred.num_classes(), 1u);
  EXPECT_GT(pred.pre_replications_triggered(), 0u);
  // Predicted co-access of {7,8} entered the graph (Fig. 5c).
  EXPECT_GT(g.EdgeWeight(7, 8), 0.0);
}

TEST(PredictorTest, SingletonTemplatesAddNoEdges) {
  PredictorConfig cfg = FastConfig();
  cfg.gamma = 0.0;  // always trigger
  LstmPredictor pred(cfg);
  SimTime t = 0;
  for (int interval = 0; interval < 10; ++interval) {
    for (int i = 0; i < 3 * (interval + 1); ++i) pred.OnTxn({4}, t);
    t += cfg.sample_interval;
  }
  HeatGraph g;
  pred.AugmentGraph(&g, t);
  EXPECT_EQ(g.num_edges(), 0u);  // single-partition template: nothing to add
}

TEST(PredictorTest, TemplateCapIsRespected) {
  LstmPredictor pred(FastConfig());
  // 600 distinct templates; the predictor tracks the first 512.
  for (PartitionId p = 0; p < 600; ++p) pred.OnTxn({p, p + 1000}, 0);
  EXPECT_EQ(pred.num_templates(), 512u);
}

TEST(PredictorTest, DeterministicAcrossRuns) {
  auto run = []() {
    PredictorConfig cfg = FastConfig();
    cfg.gamma = 0.0;
    LstmPredictor pred(cfg, 99);
    SimTime t = 0;
    for (int interval = 0; interval < 12; ++interval) {
      for (int i = 0; i <= interval; ++i) pred.OnTxn({1, 2}, t);
      t += cfg.sample_interval;
    }
    HeatGraph g;
    pred.AugmentGraph(&g, t);
    return g.EdgeWeight(1, 2);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// --- interval bookkeeping edge cases ----------------------------------------

TEST(PredictorTest, LateAttachDoesNotInflateClosedIntervals) {
  // Regression: a predictor first fed at sim time T used to spin through
  // T / sample_interval empty closures, reporting thousands of closed
  // intervals before anything was observed. The invariant: intervals only
  // close once there is history to close, so a first observation at any T
  // starts from zero.
  PredictorConfig cfg = FastConfig();  // 10 ms sampling interval
  LstmPredictor pred(cfg);
  SimTime late = 3600 * kSecond;  // one simulated hour in
  pred.OnTxn({1, 2}, late);
  EXPECT_EQ(pred.intervals_closed(), 0u);
  // From first feed onward the count tracks elapsed boundaries exactly.
  pred.OnTxn({1, 2}, late + 25 * kMillisecond);
  EXPECT_EQ(pred.intervals_closed(), 2u);
  HeatGraph g;
  pred.AugmentGraph(&g, late + 25 * kMillisecond);
  ASSERT_EQ(pred.num_classes(), 1u);
  EXPECT_EQ(pred.ClassSeries(0).size(), 2u);
}

TEST(PredictorTest, LongIdleGapCapsSeriesAtWindow) {
  // A gap of N >> the class window (64 intervals) must cost O(window),
  // leave the window all zeros (the pre-gap counts aged out), and still
  // account for every elapsed interval.
  PredictorConfig cfg = FastConfig();
  LstmPredictor pred(cfg);
  for (int i = 0; i < 5; ++i) pred.OnTxn({1, 2}, 0);
  const uint64_t gap = 100000;  // 100k idle intervals
  SimTime after = static_cast<SimTime>(gap) * cfg.sample_interval;
  pred.OnTxn({1, 2}, after);
  EXPECT_EQ(pred.intervals_closed(), gap);
  HeatGraph g;
  pred.AugmentGraph(&g, after);
  ASSERT_EQ(pred.num_classes(), 1u);
  const auto& series = pred.ClassSeries(0);
  ASSERT_EQ(series.size(), 64u);
  for (double v : series) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PredictorTest, ClassSeriesOutOfRangeIsEmptyNotUb) {
  LstmPredictor pred(FastConfig());
  EXPECT_TRUE(pred.ClassSeries(0).empty());
  EXPECT_TRUE(pred.ClassSeries(999).empty());
}

TEST(PredictorTest, ForceCloseBeforeFirstObservationClosesNothing) {
  // Same invariant as the late-attach fix, via the test hook: with no
  // templates there is no history to close.
  PredictorConfig cfg = FastConfig();
  LstmPredictor pred(cfg);
  pred.ForceCloseInterval(10 * kMillisecond);
  EXPECT_EQ(pred.intervals_closed(), 0u);
  pred.OnTxn({1, 2}, 10 * kMillisecond);
  pred.ForceCloseInterval(20 * kMillisecond);
  EXPECT_EQ(pred.intervals_closed(), 1u);
}

// --- EWMA baseline -----------------------------------------------------------

TEST(EwmaPredictorTest, RisingWorkloadTriggersAndInjectsEdges) {
  // A linearly rising class: Holt's trend extrapolation forecasts above the
  // current rate, so wv exceeds γ and the template's co-access edge lands
  // in the heat graph — same observable contract as the LSTM pipeline.
  PredictorConfig cfg = FastConfig();
  cfg.gamma = 0.05;
  EwmaPredictor pred(cfg);
  SimTime t = 0;
  for (int interval = 0; interval < 12; ++interval) {
    for (int i = 0; i < 2 * (interval + 1); ++i) pred.OnTxn({7, 8}, t);
    t += cfg.sample_interval;
  }
  HeatGraph g;
  pred.AugmentGraph(&g, t);
  EXPECT_EQ(pred.num_classes(), 1u);
  EXPECT_GT(pred.pre_replications_triggered(), 0u);
  EXPECT_GT(g.EdgeWeight(7, 8), 0.0);
}

TEST(EwmaPredictorTest, DeterministicAcrossRuns) {
  auto run = []() {
    PredictorConfig cfg = FastConfig();
    cfg.gamma = 0.0;
    EwmaPredictor pred(cfg, 99);
    SimTime t = 0;
    for (int interval = 0; interval < 12; ++interval) {
      for (int i = 0; i <= interval; ++i) pred.OnTxn({1, 2}, t);
      t += cfg.sample_interval;
    }
    HeatGraph g;
    pred.AugmentGraph(&g, t);
    return g.EdgeWeight(1, 2);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(EwmaPredictorTest, TemplateCapStillClassifies) {
  PredictorConfig cfg = FastConfig();
  EwmaPredictor pred(cfg);
  SimTime t = 0;
  for (int interval = 0; interval < 6; ++interval) {
    for (PartitionId p = 0; p < 600; ++p) pred.OnTxn({p, p + 1000}, t);
    t += cfg.sample_interval;
  }
  EXPECT_EQ(pred.num_templates(), 512u);  // the first 512 of 600
  HeatGraph g;
  pred.AugmentGraph(&g, t);
  EXPECT_GE(pred.num_classes(), 1u);
}

TEST(PredictorParityTest, StationaryWorkloadTriggersNeitherPredictor) {
  // On a flat arrival-rate series both forecasts sit at ~the current rate,
  // so neither mechanism should fire pre-replication (ewma's trend damps to
  // zero; the lstm converges onto the constant). "~0": a stray early-round
  // trigger while models warm up is tolerated, sustained firing is not.
  auto feed = [](TemplateClassPredictor* pred, SimTime interval) {
    SimTime t = 0;
    uint64_t triggers = 0;
    HeatGraph g;
    for (int round = 0; round < 6; ++round) {
      for (int iv = 0; iv < 8; ++iv) {
        for (int i = 0; i < 10; ++i) pred->OnTxn({1, 2}, t);
        t += interval;
      }
      pred->AugmentGraph(&g, t);  // one planning round per 8 intervals
    }
    triggers = pred->pre_replications_triggered();
    return triggers;
  };
  PredictorConfig cfg = FastConfig();
  cfg.train_epochs = 60;
  LstmPredictor lstm(cfg, 5);
  EwmaPredictor ewma(cfg, 5);
  uint64_t lstm_triggers = feed(&lstm, cfg.sample_interval);
  uint64_t ewma_triggers = feed(&ewma, cfg.sample_interval);
  EXPECT_LE(lstm_triggers, 1u);
  EXPECT_LE(ewma_triggers, 1u);
}

}  // namespace
}  // namespace lion
