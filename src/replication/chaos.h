// Chaos controller: arms a parsed ChaosConfig schedule on the simulator.
//
// Each event acts on the cluster through the same primitives tests use by
// hand — FailureInjector for crashes/recoveries, Network for partitions,
// ReplicationManager for lag storms, MigrationManager for scripted
// migrations — so a schedule composes deterministic failure scenarios
// (crash-mid-migration, partition-then-crash, storm-then-failover) out of
// already-tested pieces. Fired events are logged with their simulated
// times for the fault_events series in the experiment result.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "replication/chaos_config.h"
#include "replication/cluster.h"
#include "replication/failure_injector.h"

namespace lion {

class ChaosController {
 public:
  /// `cluster` must outlive the controller. The schedule must already
  /// satisfy Validate (ExperimentBuilder guarantees this; direct users
  /// should call Validate themselves).
  ChaosController(Cluster* cluster, const ChaosConfig& config);

  /// Cross-field validation of chaos.* against a concrete cluster: every
  /// entry parses and every node/partition id is in range.
  static Status Validate(const ChaosConfig& config, const ClusterConfig& cluster,
                         const std::string& path = "chaos");

  /// Schedules every event at its absolute simulated time (relative to the
  /// current time, normally 0). Call once, after Cluster::Start().
  void Arm();

  FailureInjector& injector() { return injector_; }
  const FailureInjector& injector() const { return injector_; }

  /// One fired event, stamped with its actual fire time.
  struct Fired {
    SimTime at = 0;
    std::string description;
  };
  const std::vector<Fired>& fired() const { return fired_; }

 private:
  void Fire(const ChaosEvent& ev);

  Cluster* cluster_;
  ChaosConfig config_;
  std::vector<ChaosEvent> events_;
  FailureInjector injector_;
  std::vector<Fired> fired_;
  bool armed_ = false;
};

}  // namespace lion
