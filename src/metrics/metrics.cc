#include "metrics/metrics.h"

namespace lion {

void MetricsCollector::StartMeasurement(SimTime now) {
  measure_start_ = now;
  committed_ = 0;
  aborts_ = 0;
  single_node_ = 0;
  remastered_ = 0;
  distributed_ = 0;
  aborted_unavailable_ = 0;
  latency_.Reset();
  breakdown_sum_ = PhaseBreakdown{};
}

void MetricsCollector::OnAbortUnavailable(SimTime now) {
  size_t w = static_cast<size_t>(now / kStatsWindow);
  if (window_unavailable_.size() <= w) window_unavailable_.resize(w + 1, 0);
  window_unavailable_[w]++;
  aborted_unavailable_++;
}

void MetricsCollector::OnCommit(const Transaction& txn, SimTime now) {
  if (commit_listener_) commit_listener_(txn);
  size_t w = static_cast<size_t>(now / kStatsWindow);
  if (window_commits_.size() <= w) window_commits_.resize(w + 1, 0);
  window_commits_[w]++;

  committed_++;
  switch (txn.exec_class()) {
    case ExecClass::kSingleNode:
      single_node_++;
      break;
    case ExecClass::kRemastered:
      remastered_++;
      break;
    case ExecClass::kDistributed:
      distributed_++;
      break;
  }
  latency_.Record(now - txn.created_at());
  breakdown_sum_.Add(txn.breakdown());
}

double MetricsCollector::Throughput(SimTime now) const {
  SimTime elapsed = now - measure_start_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(committed_) / ToSeconds(elapsed);
}

double MetricsCollector::WindowThroughput(size_t i) const {
  if (i >= window_commits_.size()) return 0.0;
  return static_cast<double>(window_commits_[i]) / ToSeconds(kStatsWindow);
}

double MetricsCollector::WindowAvailability(size_t i) const {
  uint64_t commits = i < window_commits_.size() ? window_commits_[i] : 0;
  uint64_t unavailable =
      i < window_unavailable_.size() ? window_unavailable_[i] : 0;
  if (commits + unavailable == 0) return 1.0;
  return static_cast<double>(commits) /
         static_cast<double>(commits + unavailable);
}

}  // namespace lion
