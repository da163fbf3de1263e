// Scripted fault schedules (chaos.*).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace lion {

/// Configuration of the chaos subsystem (chaos.* schema fields). An empty
/// schedule disables chaos entirely: nothing is armed, no extra result
/// fields are emitted, and fixed-seed runs stay byte-identical to a build
/// without the subsystem.
struct ChaosConfig {
  /// Timed fault events, one per entry, each "<time> <kind> [args]":
  ///
  ///   "500ms crash 1"          fail node 1 (failover elections start); with
  ///                            recovery.enabled the crash is clean — the
  ///                            node's durable log fully survives
  ///   "520ms crash_dirty 1"    fail node 1 discarding the unsynced log
  ///                            suffix (entries younger than
  ///                            recovery.durability_lag_us); same as crash
  ///                            without a recovery log
  ///   "900ms recover 1"        bring node 1 back (replay + catch-up with
  ///                            recovery.enabled, empty otherwise)
  ///   "950ms truncate 1"       force a snapshot+truncate of node 1's
  ///                            recovery log (no-op without one)
  ///   "1s partition 2,3"       isolate nodes 2,3 from the rest; messages
  ///                            across the cut are parked until heal
  ///   "1.4s heal"              reconnect and retransmit parked messages
  ///   "1.2s lag_storm 200ms"   pause log shipping for 200ms (lag builds)
  ///   "700ms migrate 3 2"      force MovePrimary of partition 3 to node 2
  ///                            (schedules deterministic crash-mid-migration
  ///                            scenarios together with a timed crash)
  ///
  /// Times accept ns/us/ms/s suffixes. Events fire in schedule order at
  /// their absolute simulated times (t=0 is experiment start).
  std::vector<std::string> schedule;
};

inline bool ChaosActive(const ChaosConfig& cfg) {
  return !cfg.schedule.empty();
}

/// One parsed schedule entry.
enum class ChaosEventKind {
  kCrash,
  kCrashDirty,
  kRecover,
  kPartition,
  kHeal,
  kLagStorm,
  kMigrate,
  kTruncate,
};

struct ChaosEvent {
  SimTime at = 0;
  ChaosEventKind kind = ChaosEventKind::kHeal;
  NodeId node = kInvalidNode;  // crash / crash_dirty / recover / truncate / migrate
  PartitionId partition = kInvalidPartition;   // migrate
  std::vector<NodeId> island;                  // partition
  SimTime duration = 0;                        // lag_storm

  /// Parses one schedule entry ("500ms crash 1"). Grammar errors are
  /// kInvalidArgument with the offending token; id-range checks against a
  /// concrete cluster happen in ChaosController::Validate.
  static Status Parse(const std::string& text, ChaosEvent* out);

  /// Human-readable form for logs and the fault_events result series.
  std::string Describe() const;
};

}  // namespace lion
