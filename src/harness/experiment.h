// End-to-end experiment harness: an Experiment owns the full component
// lifecycle (simulator, cluster, metrics, protocol, workload); an
// ExperimentBuilder validates a declarative config against the registries
// and assembles the Experiment. Protocols and workloads are resolved by
// name through ProtocolRegistry / WorkloadRegistry — adding one is a
// one-file operation with no harness edits.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "harness/driver.h"
#include "harness/experiment_config.h"
#include "harness/registry.h"
#include "metrics/metrics.h"
#include "protocols/protocol.h"
#include "replication/cluster.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace lion {

class ChaosController;
class CommitLedger;

/// Everything measured in one run.
struct ExperimentResult {
  std::string protocol;
  std::string workload;
  uint64_t seed = 1;
  double throughput = 0.0;  // committed txns / measured second
  uint64_t committed = 0;
  uint64_t aborts = 0;
  uint64_t single_node = 0;
  uint64_t remastered = 0;
  uint64_t distributed = 0;
  double p10_us = 0.0, p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  PhaseBreakdown breakdown;
  /// Throughput per stats window over the whole run (incl. warmup).
  std::vector<double> window_throughput;
  /// Network bytes per committed txn, per stats window.
  std::vector<double> window_bytes_per_txn;
  double bytes_per_txn = 0.0;
  uint64_t remasters = 0;
  uint64_t migrations = 0;
  uint64_t migrated_bytes = 0;
  SimTime window = 0;

  /// Members the chaos and recovery subsystems and the protocol add to the
  /// result, in emission order after the headline fields. A subsystem that
  /// did not run adds none, so its members appear only in runs that used it:
  ///   chaos:    aborted_unavailable, failovers, elections_rerun,
  ///             messages_dropped, window_availability, fault_events,
  ///             integrity
  ///   recovery: recovery (and integrity.stale_elections /
  ///             integrity.log_writes_checked)
  ///   protocol: Protocol::AddResultMembers (meta: meta, protocol_switches)
  Json subsystems = Json::Object();

  /// The whole result as one JSON object: the headline fields above (series
  /// included), then the subsystems' members.
  Json ToJson() const;
};

/// One fully assembled run. Owns every component — simulator, cluster,
/// metrics, protocol (which in turn owns its predictor) and workload — and
/// drives the protocol lifecycle (Start/Stop) around the measured interval.
/// Obtain instances from ExperimentBuilder::Build; Run() executes the
/// warmup + measurement schedule and gathers the result. Components stay
/// accessible afterwards for inspection (tests, invariant checks).
class Experiment {
 public:
  ~Experiment();
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs warmup + measurement to completion. Single-shot: the second call
  /// returns the first run's result unchanged.
  ExperimentResult Run();

  const ExperimentConfig& config() const { return config_; }
  Simulator* sim() { return sim_.get(); }
  Cluster* cluster() { return cluster_.get(); }
  MetricsCollector* metrics() { return metrics_.get(); }
  Protocol* protocol() { return protocol_.get(); }
  WorkloadGenerator* workload() { return workload_.get(); }
  /// Non-null only when the config carries a chaos schedule.
  ChaosController* chaos() { return chaos_.get(); }
  int concurrency() const { return concurrency_; }

 private:
  friend class ExperimentBuilder;
  Experiment() = default;

  ExperimentResult Collect();

  ExperimentConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::unique_ptr<Protocol> protocol_;
  std::unique_ptr<WorkloadGenerator> workload_;
  // Chaos machinery, created only for configs with a fault schedule.
  std::unique_ptr<ChaosController> chaos_;
  std::unique_ptr<CommitLedger> ledger_;
  // Owned (not Run-local): in-flight completion closures reference the
  // driver, and the simulator they sit in outlives Run().
  std::unique_ptr<ClosedLoopDriver> driver_;
  int concurrency_ = 0;
  bool ran_ = false;
  ExperimentResult result_;
};

/// Fluent assembly of an Experiment:
///
///   ExperimentResult res;
///   Status status = ExperimentBuilder()
///                       .Protocol("Lion")
///                       .Workload("ycsb")
///                       .Duration(2 * kSecond)
///                       .Run(&res);
///
/// (Build(&experiment) instead of Run(&res) to own the assembled
/// Experiment and drive it manually.) Build validates the whole config
/// (names against the registries, sane timing/topology) and reports
/// problems as Status instead of crashing.
class ExperimentBuilder {
 public:
  ExperimentBuilder() = default;
  /// Seeds every knob from an existing config (sweep loops mutate a base).
  explicit ExperimentBuilder(ExperimentConfig config)
      : config_(std::move(config)) {}

  ExperimentBuilder& Protocol(std::string name) {
    config_.protocol = std::move(name);
    return *this;
  }
  ExperimentBuilder& Workload(std::string name) {
    config_.workload = std::move(name);
    return *this;
  }
  ExperimentBuilder& DynamicPeriod(SimTime period) {
    config_.dynamic_period = period;
    return *this;
  }
  ExperimentBuilder& Warmup(SimTime warmup) {
    config_.warmup = warmup;
    return *this;
  }
  ExperimentBuilder& Duration(SimTime duration) {
    config_.duration = duration;
    return *this;
  }
  ExperimentBuilder& Seed(uint64_t seed) {
    config_.seed = seed;
    return *this;
  }
  ExperimentBuilder& Concurrency(int concurrency) {
    config_.concurrency = concurrency;
    return *this;
  }

  /// Escape hatch for knobs without a dedicated setter.
  ExperimentConfig& config() { return config_; }
  const ExperimentConfig& config() const { return config_; }

  /// Validates the config; OK iff Build would succeed.
  Status Validate() const;

  /// Validates and assembles the full experiment.
  Status Build(std::unique_ptr<Experiment>* out) const;

  /// Build + Run in one step.
  Status Run(ExperimentResult* out) const;

 private:
  ExperimentConfig config_;
};

}  // namespace lion
