#include "harness/experiment.h"

#include <algorithm>
#include <utility>

#include "harness/config_schema.h"
#include "harness/driver.h"
#include "replication/chaos.h"
#include "replication/integrity.h"
#include "sim/topology.h"

namespace lion {

namespace {

/// Result doubles print with 6 significant digits.
Json Real(double v) { return Json::Printf("%.6g", v); }

Json Series(const std::vector<double>& values) {
  Json out = Json::Array();
  for (double v : values) out.Add(Real(v));
  return out;
}

}  // namespace

Json ExperimentResult::ToJson() const {
  Json out = Json::Object();
  out.Set("protocol", Json::Str(protocol));
  out.Set("workload", Json::Str(workload));
  out.Set("seed", Json::Uint(seed));
  out.Set("throughput_txn_s", Real(throughput));
  out.Set("committed", Json::Uint(committed));
  out.Set("aborts", Json::Uint(aborts));
  out.Set("single_node", Json::Uint(single_node));
  out.Set("remastered", Json::Uint(remastered));
  out.Set("distributed", Json::Uint(distributed));
  out.Set("p10_us", Real(p10_us));
  out.Set("p50_us", Real(p50_us));
  out.Set("p95_us", Real(p95_us));
  out.Set("p99_us", Real(p99_us));
  out.Set("bytes_per_txn", Real(bytes_per_txn));
  out.Set("remasters", Json::Uint(remasters));
  out.Set("migrations", Json::Uint(migrations));
  out.Set("migrated_bytes", Json::Uint(migrated_bytes));
  out.Set("window_ns", Json::Uint(static_cast<uint64_t>(window)));
  Json phases = Json::Object();
  phases.Set("scheduling", Real(breakdown.scheduling / 1000.0));
  phases.Set("execution", Real(breakdown.execution / 1000.0));
  phases.Set("commit", Real(breakdown.commit / 1000.0));
  phases.Set("replication", Real(breakdown.replication / 1000.0));
  phases.Set("other", Real(breakdown.other / 1000.0));
  out.Set("breakdown_us", std::move(phases));
  out.Set("window_throughput", Series(window_throughput));
  out.Set("window_bytes_per_txn", Series(window_bytes_per_txn));
  for (const Json::Member& m : subsystems.members()) out.Set(m.first, m.second);
  return out;
}

Status ExperimentBuilder::Validate() const {
  // Name existence resolves against the registries (kNotFound lists the
  // known names); every value constraint — positive durations and timer
  // intervals, sane topology, [0,1] ratios — is declared field-by-field in
  // the config schema and enforced here with dotted-path error messages.
  Status protocol_exists =
      ProtocolRegistry::Global().CheckExists(config_.protocol);
  if (!protocol_exists.ok()) return protocol_exists;
  Status workload_exists =
      WorkloadRegistry::Global().CheckExists(config_.workload);
  if (!workload_exists.ok()) return workload_exists;
  // The predictor kind resolves through its registry at protocol-factory
  // time (protocols that never construct one ignore it), so an unknown
  // kind must be rejected here, before any factory runs.
  if (config_.predictor.kind != kPredictorOff) {
    Status predictor_exists =
        PredictorRegistry::Global().CheckExists(config_.predictor.kind);
    if (!predictor_exists.ok()) return predictor_exists;
  }
  Status schema_valid = ValidateExperimentConfig(config_);
  if (!schema_valid.ok()) return schema_valid;
  // Region geometry is cross-field (matrix sizes depend on regions, node
  // assignments on num_nodes), beyond per-field schema checks.
  Status topo_valid = Topology::Validate(config_.cluster.net,
                                         config_.cluster.num_nodes);
  if (!topo_valid.ok()) return topo_valid;
  // Chaos schedules reference concrete node/partition ids — cross-field
  // like the topology checks above.
  Status chaos_valid = ChaosController::Validate(config_.chaos, config_.cluster);
  if (!chaos_valid.ok()) return chaos_valid;
  return Status::OK();
}

Status ExperimentBuilder::Build(std::unique_ptr<Experiment>* out) const {
  Status valid = Validate();
  if (!valid.ok()) return valid;

  auto ex = std::unique_ptr<Experiment>(new Experiment());
  ex->config_ = config_;
  ex->sim_ = std::make_unique<Simulator>(config_.seed);
  ex->cluster_ = std::make_unique<lion::Cluster>(ex->sim_.get(),
                                                 config_.cluster);
  if (RecoveryActive(config_.recovery)) {
    // Before any component can append a write, so the log's accounting
    // covers the whole run.
    ex->cluster_->EnableRecovery(config_.recovery);
  }
  ex->metrics_ = std::make_unique<MetricsCollector>();

  ProtocolContext pctx{config_, ex->cluster_.get(), ex->metrics_.get()};
  Status s = ProtocolRegistry::Global().Create(config_.protocol, pctx,
                                               &ex->protocol_);
  if (!s.ok()) return s;

  WorkloadContext wctx{config_, ex->cluster_.get()};
  s = WorkloadRegistry::Global().Create(config_.workload, wctx,
                                        &ex->workload_);
  if (!s.ok()) return s;

  if (ChaosActive(config_.chaos)) {
    ex->chaos_ = std::make_unique<ChaosController>(ex->cluster_.get(),
                                                   config_.chaos);
    ex->ledger_ = std::make_unique<CommitLedger>(
        config_.cluster.total_partitions());
  }

  ex->concurrency_ = config_.concurrency;
  if (ex->concurrency_ == 0) {
    ex->concurrency_ =
        ProtocolRegistry::Global().IsBatch(config_.protocol)
            ? 4000
            : config_.cluster.num_nodes * config_.cluster.workers_per_node;
  }

  *out = std::move(ex);
  return Status::OK();
}

Status ExperimentBuilder::Run(ExperimentResult* out) const {
  std::unique_ptr<Experiment> ex;
  Status s = Build(&ex);
  if (!s.ok()) return s;
  *out = ex->Run();
  return Status::OK();
}

Experiment::~Experiment() = default;

ExperimentResult Experiment::Run() {
  if (ran_) return result_;
  ran_ = true;

  cluster_->Start();
  protocol_->Start();
  if (chaos_) {
    // Arm after protocol Start so scripted faults hit the protocol's
    // initial placement, exactly like a live hit.
    protocol_->EnableDegradation(&config_.chaos);
    CommitLedger* ledger = ledger_.get();
    metrics_->SetCommitListener(
        [ledger](const Transaction& txn) { ledger->Record(txn); });
    chaos_->Arm();
  }
  driver_ = std::make_unique<ClosedLoopDriver>(
      sim_.get(), protocol_.get(), workload_.get(), metrics_.get(),
      concurrency_);
  driver_->Start();

  sim_->RunUntil(config_.warmup);
  metrics_->StartMeasurement(sim_->Now());
  sim_->RunUntil(config_.warmup + config_.duration);
  driver_->Stop();
  protocol_->Stop();

  // Snapshot the measured interval first: the chaos drain below may retire
  // further (post-measurement) work that must not shift the reported
  // numbers.
  result_ = Collect();

  Json& members = result_.subsystems;
  const RecoveryLog* log = cluster_->recovery_log();
  if (chaos_) {
    // Quiesce so in-flight failovers, retransmissions and deferred retries
    // settle before the invariants are checked.
    sim_->RunUntilIdle();
    const FailureInjector& injector = chaos_->injector();
    members.Set("aborted_unavailable",
                Json::Uint(metrics_->aborted_unavailable()));
    members.Set("failovers", Json::Uint(injector.failovers_completed()));
    members.Set("elections_rerun", Json::Uint(injector.elections_rerun()));
    members.Set("messages_dropped",
                Json::Uint(cluster_->network().messages_dropped()));
    Json availability = Json::Array();
    for (size_t i = 0; i < result_.window_throughput.size(); ++i) {
      availability.Add(Real(metrics_->WindowAvailability(i)));
    }
    members.Set("window_availability", std::move(availability));
    Json fault_events = Json::Array();
    for (const ChaosController::Fired& f : chaos_->fired()) {
      Json event = Json::Object();
      event.Set("t_ms", Real(static_cast<double>(f.at) / 1e6));
      event.Set("event", Json::Str(f.description));
      fault_events.Add(std::move(event));
    }
    members.Set("fault_events", std::move(fault_events));
    IntegrityReport report =
        CheckClusterIntegrity(cluster_.get(), &injector, ledger_.get());
    Json integrity = Json::Object();
    integrity.Set("violations", Json::Uint(report.violations.size()));
    integrity.Set("partitions_checked", Json::Uint(report.partitions_checked));
    integrity.Set("writes_checked",
                  Json::Uint(report.committed_writes_checked));
    if (log != nullptr) {
      integrity.Set("stale_elections", Json::Uint(injector.stale_elections()));
      integrity.Set("log_writes_checked",
                    Json::Uint(report.log_writes_checked));
    }
    Json messages = Json::Array();  // the first few, as diagnostics
    for (size_t i = 0; i < report.violations.size() && i < 5; ++i) {
      messages.Add(Json::Str(report.violations[i]));
    }
    integrity.Set("messages", std::move(messages));
    members.Set("integrity", std::move(integrity));
  }
  if (log != nullptr) {
    // After the chaos drain (when one ran) so catch-ups completing during
    // the quiesce land in the records too.
    const FailureInjector* injector = chaos_ ? &chaos_->injector() : nullptr;
    Json recovery = Json::Object();
    recovery.Set("log_entries", Json::Uint(log->entries_appended()));
    recovery.Set("log_entries_lost", Json::Uint(log->total_lost_entries()));
    recovery.Set("log_snapshots", Json::Uint(log->snapshots_taken()));
    recovery.Set("recoveries_replayed",
                 Json::Uint(injector ? injector->recoveries_replayed() : 0));
    recovery.Set("catch_ups",
                 Json::Uint(injector ? injector->catch_ups().size() : 0));
    recovery.Set("catch_up_entries",
                 Json::Uint(cluster_->replication().catch_up_entries_shipped()));
    recovery.Set("stale_elections",
                 Json::Uint(injector ? injector->stale_elections() : 0));
    Json catch_ups = Json::Array();
    Json recoveries = Json::Array();
    if (injector != nullptr) {
      for (const FailureInjector::CatchUpRecord& c : injector->catch_ups()) {
        Json event = Json::Object();
        event.Set("t_ms", Real(static_cast<double>(c.finished) / 1e6));
        event.Set("node", Json::Int(c.node));
        event.Set("partition", Json::Int(c.partition));
        event.Set("duration_ms",
                  Real(static_cast<double>(c.finished - c.started) / 1e6));
        event.Set("entries", Json::Uint(c.entries));
        catch_ups.Add(std::move(event));
      }
      for (const FailureInjector::RecoveryRecord& r : injector->recoveries()) {
        Json event = Json::Object();
        event.Set("t_ms", Real(static_cast<double>(r.finished) / 1e6));
        event.Set("node", Json::Int(r.node));
        event.Set("duration_ms",
                  Real(static_cast<double>(r.finished - r.started) / 1e6));
        event.Set("partitions", Json::Int(r.partitions));
        recoveries.Add(std::move(event));
      }
    }
    recovery.Set("catch_up_events", std::move(catch_ups));
    recovery.Set("recovery_events", std::move(recoveries));
    members.Set("recovery", std::move(recovery));
  }
  // After the chaos drain (when one ran) so work completing during the
  // quiesce lands in the protocol's members too.
  protocol_->AddResultMembers(&members);
  return result_;
}

ExperimentResult Experiment::Collect() {
  ExperimentResult res;
  res.protocol = config_.protocol;
  res.workload = config_.workload;
  res.seed = config_.seed;
  res.throughput = metrics_->Throughput(sim_->Now());
  res.committed = metrics_->committed();
  res.aborts = metrics_->aborts();
  res.single_node = metrics_->single_node();
  res.remastered = metrics_->remastered();
  res.distributed = metrics_->distributed();
  res.p10_us = metrics_->latency().Percentile(0.10) / 1000.0;
  res.p50_us = metrics_->latency().Percentile(0.50) / 1000.0;
  res.p95_us = metrics_->latency().Percentile(0.95) / 1000.0;
  res.p99_us = metrics_->latency().Percentile(0.99) / 1000.0;
  res.breakdown = metrics_->breakdown_sum();
  res.window = metrics_->window();

  const auto& commits = metrics_->window_commits();
  const auto& bytes = cluster_->network().window_bytes();
  for (size_t i = 0; i < commits.size(); ++i) {
    res.window_throughput.push_back(metrics_->WindowThroughput(i));
    double b = i < bytes.size() ? static_cast<double>(bytes[i]) : 0.0;
    res.window_bytes_per_txn.push_back(
        commits[i] > 0 ? b / static_cast<double>(commits[i]) : 0.0);
  }
  if (metrics_->committed() > 0) {
    res.bytes_per_txn =
        static_cast<double>(cluster_->network().total_bytes()) /
        static_cast<double>(metrics_->committed() +
                            std::max<uint64_t>(1, metrics_->aborts()));
  }
  res.remasters = cluster_->remaster().remasters_completed();
  res.migrations = cluster_->migration().migrations_completed();
  res.migrated_bytes = cluster_->migration().migrated_bytes();
  return res;
}

}  // namespace lion
