// Declarative description of one experiment run, shared by the registries
// (factories read the slice they care about) and the experiment harness.
#pragma once

#include <cstdint>
#include <string>

#include "core/lion_protocol.h"
#include "core/predictor.h"
#include "protocols/clay.h"
#include "replication/chaos_config.h"
#include "replication/cluster_config.h"
#include "replication/recovery_config.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace lion {

/// Protocol and workload names resolve through ProtocolRegistry and
/// WorkloadRegistry (see harness/registry.h); `--list` in the CLI or
/// Registry::Names() enumerates what is linked in.
struct ExperimentConfig {
  std::string protocol = "Lion";
  std::string workload = "ycsb";
  ClusterConfig cluster;
  YcsbConfig ycsb;
  TpccConfig tpcc;
  /// Period length for the dynamic scenarios (paper: 60 s, scaled here).
  SimTime dynamic_period = 5 * kSecond;

  /// Closed-loop concurrency; 0 = derive from the protocol's execution mode
  /// (nodes x workers for standard, a large open window for batch).
  int concurrency = 0;
  SimTime warmup = 1 * kSecond;
  SimTime duration = 3 * kSecond;
  uint64_t seed = 1;

  LionOptions lion;          // tuned per variant by the registered factories
  PredictorConfig predictor;
  ClayConfig clay;
  /// Scripted fault schedule + degradation knobs; inactive (and without
  /// any effect on results) while the schedule is empty.
  ChaosConfig chaos;
  /// Durable log-backed recovery: per-node replication log, crash replay +
  /// catch-up rejoin. Inactive (and without any effect on results) while
  /// recovery.enabled is false.
  RecoveryConfig recovery;
};

}  // namespace lion
