// Closed-loop transaction driver (the paper's distributor node).
#pragma once

#include <cstdint>

#include "metrics/metrics.h"
#include "protocols/protocol.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace lion {

/// Keeps a fixed number of transactions outstanding against a protocol:
/// each completion immediately generates and submits the next transaction.
/// This matches the closed-loop client model of the paper's testbed (worker
/// threads executing transactions back to back).
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(Simulator* sim, Protocol* protocol,
                   WorkloadGenerator* workload, MetricsCollector* metrics,
                   int concurrency);

  /// Issues the initial `concurrency` transactions.
  void Start();

  /// Stops issuing new transactions (in-flight ones finish naturally).
  void Stop() { stopped_ = true; }

  uint64_t completed() const { return completed_; }

 private:
  void IssueOne();

  Simulator* sim_;
  Protocol* protocol_;
  WorkloadGenerator* workload_;
  MetricsCollector* metrics_;
  int concurrency_;
  bool stopped_;
  uint64_t issued_;
  uint64_t completed_;
};

}  // namespace lion
