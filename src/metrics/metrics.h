// Experiment-wide measurement: throughput series, latency, breakdowns.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace lion {

/// Collects everything the paper's evaluation reports: committed/aborted
/// counts by execution class, a commit-latency histogram, the phase
/// breakdown (Fig. 14b), and a bucketed throughput time series (Figs. 8,
/// 10, 12a, 13a).
class MetricsCollector {
 public:
  /// Records a committed transaction at simulated time `now`.
  void OnCommit(const Transaction& txn, SimTime now);

  /// Records one abort-and-restart event.
  void OnAbort() { aborts_++; }

  /// Records a transaction given up on because a touched partition stayed
  /// unavailable past the degradation retry budget (chaos schedules).
  void OnAbortUnavailable(SimTime now);

  /// Installs a hook invoked on every commit, warmup included (the chaos
  /// harness feeds the commit ledger through this so post-run integrity
  /// covers the whole run). At most one listener; null clears it.
  void SetCommitListener(std::function<void(const Transaction&)> fn) {
    commit_listener_ = std::move(fn);
  }

  /// Resets the aggregate counters and marks the measurement start, so that
  /// warmup-period commits are excluded. The time-series windows are not
  /// reset. Measurement is active from construction; calling this is only
  /// needed when a warmup period should be discarded.
  void StartMeasurement(SimTime now);

  // --- aggregate accessors ---------------------------------------------------
  uint64_t committed() const { return committed_; }
  uint64_t aborts() const { return aborts_; }
  uint64_t single_node() const { return single_node_; }
  uint64_t remastered() const { return remastered_; }
  uint64_t distributed() const { return distributed_; }
  uint64_t aborted_unavailable() const { return aborted_unavailable_; }

  /// Committed txns per second over the measured interval ending at `now`.
  double Throughput(SimTime now) const;

  const Histogram& latency() const { return latency_; }
  const PhaseBreakdown& breakdown_sum() const { return breakdown_sum_; }

  /// Commits per kStatsWindow since t=0 (including warmup), for time-series
  /// plots.
  const std::vector<uint64_t>& window_commits() const { return window_commits_; }
  SimTime window() const { return kStatsWindow; }

  /// Throughput (txn/s) of window `i`.
  double WindowThroughput(size_t i) const;

  /// Fraction of window `i`'s submitted outcomes that committed:
  /// commits / (commits + unavailable aborts), 1.0 for quiet windows. The
  /// availability series of the chaos timeline figure.
  double WindowAvailability(size_t i) const;

 private:
  SimTime measure_start_ = 0;
  uint64_t committed_ = 0;
  uint64_t aborts_ = 0;
  uint64_t single_node_ = 0;
  uint64_t remastered_ = 0;
  uint64_t distributed_ = 0;
  uint64_t aborted_unavailable_ = 0;
  Histogram latency_;
  PhaseBreakdown breakdown_sum_;
  std::vector<uint64_t> window_commits_;
  std::vector<uint64_t> window_unavailable_;
  std::function<void(const Transaction&)> commit_listener_;
};

}  // namespace lion
