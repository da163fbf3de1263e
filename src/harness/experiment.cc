#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/geo_placement.h"
#include "harness/config_schema.h"
#include "harness/driver.h"
#include "protocols/meta_protocol.h"
#include "replication/chaos.h"
#include "replication/integrity.h"
#include "sim/topology.h"

namespace lion {

namespace {

void AppendJsonField(std::string* out, const char* key, double value,
                     bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += buf;
}

void AppendJsonField(std::string* out, const char* key, uint64_t value,
                     bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
}

void AppendJsonField(std::string* out, const char* key,
                     const std::string& value, bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":\"";
  *out += value;  // names are registry identifiers: no escaping needed
  *out += "\"";
}

void AppendJsonSeries(std::string* out, const char* key,
                      const std::vector<double>& values, bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", values[i]);
    if (i > 0) *out += ",";
    *out += buf;
  }
  *out += "]";
}

}  // namespace

std::string ExperimentResult::ToJson() const {
  std::string json = "{";
  bool first = true;
  AppendJsonField(&json, "protocol", protocol, &first);
  AppendJsonField(&json, "workload", workload, &first);
  AppendJsonField(&json, "seed", seed, &first);
  AppendJsonField(&json, "throughput_txn_s", throughput, &first);
  AppendJsonField(&json, "committed", committed, &first);
  AppendJsonField(&json, "aborts", aborts, &first);
  AppendJsonField(&json, "single_node", single_node, &first);
  AppendJsonField(&json, "remastered", remastered, &first);
  AppendJsonField(&json, "distributed", distributed, &first);
  AppendJsonField(&json, "p10_us", p10_us, &first);
  AppendJsonField(&json, "p50_us", p50_us, &first);
  AppendJsonField(&json, "p95_us", p95_us, &first);
  AppendJsonField(&json, "p99_us", p99_us, &first);
  AppendJsonField(&json, "bytes_per_txn", bytes_per_txn, &first);
  AppendJsonField(&json, "remasters", remasters, &first);
  AppendJsonField(&json, "migrations", migrations, &first);
  AppendJsonField(&json, "migrated_bytes", migrated_bytes, &first);
  AppendJsonField(&json, "window_ns", static_cast<uint64_t>(window), &first);
  json += ",\"breakdown_us\":{";
  bool bfirst = true;
  AppendJsonField(&json, "scheduling", breakdown.scheduling / 1000.0, &bfirst);
  AppendJsonField(&json, "execution", breakdown.execution / 1000.0, &bfirst);
  AppendJsonField(&json, "commit", breakdown.commit / 1000.0, &bfirst);
  AppendJsonField(&json, "replication", breakdown.replication / 1000.0,
                  &bfirst);
  AppendJsonField(&json, "other", breakdown.other / 1000.0, &bfirst);
  json += "}";
  first = false;
  AppendJsonSeries(&json, "window_throughput", window_throughput, &first);
  AppendJsonSeries(&json, "window_bytes_per_txn", window_bytes_per_txn,
                   &first);
  if (chaos_active) {
    // Chaos-only fields live behind this gate so that chaos-off runs emit
    // byte-identical JSON to a build without the subsystem.
    AppendJsonField(&json, "aborted_unavailable", aborted_unavailable, &first);
    AppendJsonField(&json, "failovers", failovers, &first);
    AppendJsonField(&json, "elections_rerun", elections_rerun, &first);
    AppendJsonField(&json, "messages_dropped", messages_dropped, &first);
    AppendJsonSeries(&json, "window_availability", window_availability,
                     &first);
    json += ",\"fault_events\":[";
    for (size_t i = 0; i < fault_events.size(); ++i) {
      if (i > 0) json += ",";
      json += "{";
      bool ffirst = true;
      AppendJsonField(&json, "t_ms", fault_events[i].t_ms, &ffirst);
      AppendJsonField(&json, "event", fault_events[i].description, &ffirst);
      json += "}";
    }
    json += "],\"integrity\":{";
    bool ifirst = true;
    AppendJsonField(&json, "violations", integrity_violations, &ifirst);
    AppendJsonField(&json, "partitions_checked", integrity_partitions_checked,
                    &ifirst);
    AppendJsonField(&json, "writes_checked", integrity_writes_checked,
                    &ifirst);
    if (recovery_active) {
      // Recovery-only integrity fields stay behind the recovery gate so
      // chaos-on / recovery-off runs keep their pre-recovery JSON shape.
      AppendJsonField(&json, "stale_elections", stale_elections, &ifirst);
      AppendJsonField(&json, "log_writes_checked",
                      integrity_log_writes_checked, &ifirst);
    }
    json += ",\"messages\":[";
    for (size_t i = 0; i < integrity_messages.size(); ++i) {
      if (i > 0) json += ",";
      json += "\"";
      json += integrity_messages[i];  // checker messages: no quotes/escapes
      json += "\"";
    }
    json += "]}";
  }
  if (recovery_active) {
    // Recovery-only fields live behind this gate so that recovery-off runs
    // emit byte-identical JSON to a build without the subsystem.
    json += ",\"recovery\":{";
    bool rfirst = true;
    AppendJsonField(&json, "log_entries", log_entries, &rfirst);
    AppendJsonField(&json, "log_entries_lost", log_entries_lost, &rfirst);
    AppendJsonField(&json, "log_snapshots", log_snapshots, &rfirst);
    AppendJsonField(&json, "recoveries_replayed", recoveries_replayed,
                    &rfirst);
    AppendJsonField(&json, "catch_ups", catch_ups_completed, &rfirst);
    AppendJsonField(&json, "catch_up_entries", catch_up_entries, &rfirst);
    AppendJsonField(&json, "stale_elections", stale_elections, &rfirst);
    json += ",\"catch_up_events\":[";
    for (size_t i = 0; i < catch_up_events.size(); ++i) {
      if (i > 0) json += ",";
      json += "{";
      bool cfirst = true;
      AppendJsonField(&json, "t_ms", catch_up_events[i].t_ms, &cfirst);
      AppendJsonField(&json, "node",
                      static_cast<uint64_t>(catch_up_events[i].node), &cfirst);
      AppendJsonField(&json, "partition",
                      static_cast<uint64_t>(catch_up_events[i].partition),
                      &cfirst);
      AppendJsonField(&json, "duration_ms", catch_up_events[i].duration_ms,
                      &cfirst);
      AppendJsonField(&json, "entries", catch_up_events[i].entries, &cfirst);
      json += "}";
    }
    json += "],\"recovery_events\":[";
    for (size_t i = 0; i < recovery_events.size(); ++i) {
      if (i > 0) json += ",";
      json += "{";
      bool rfirst2 = true;
      AppendJsonField(&json, "t_ms", recovery_events[i].t_ms, &rfirst2);
      AppendJsonField(&json, "node",
                      static_cast<uint64_t>(recovery_events[i].node),
                      &rfirst2);
      AppendJsonField(&json, "duration_ms", recovery_events[i].duration_ms,
                      &rfirst2);
      AppendJsonField(&json, "partitions",
                      static_cast<uint64_t>(recovery_events[i].partitions),
                      &rfirst2);
      json += "}";
    }
    json += "]}";
  }
  if (meta_active) {
    // Meta-only fields live behind this gate so non-meta runs emit
    // byte-identical JSON to a build without the subsystem.
    json += ",\"meta\":{\"children\":[";
    for (size_t i = 0; i < meta_children.size(); ++i) {
      if (i > 0) json += ",";
      json += "\"" + meta_children[i] + "\"";
    }
    json += "],\"final_assignment\":[";
    for (size_t i = 0; i < meta_assignment.size(); ++i) {
      if (i > 0) json += ",";
      json += std::to_string(meta_assignment[i]);
    }
    json += "],\"switches\":" + std::to_string(protocol_switches.size());
    json += "},\"protocol_switches\":[";
    for (size_t i = 0; i < protocol_switches.size(); ++i) {
      if (i > 0) json += ",";
      json += "{";
      bool sfirst = true;
      AppendJsonField(&json, "t_ms", protocol_switches[i].t_ms, &sfirst);
      AppendJsonField(&json, "partition",
                      static_cast<uint64_t>(protocol_switches[i].partition),
                      &sfirst);
      AppendJsonField(&json, "from", protocol_switches[i].from, &sfirst);
      AppendJsonField(&json, "to", protocol_switches[i].to, &sfirst);
      json += "}";
    }
    json += "]";
  }
  json += "}";
  return json;
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
  Status geo_valid = GeoPlacement::Validate(config_.lion, config_.cluster);
  if (!geo_valid.ok()) return geo_valid;
  // Chaos schedules reference concrete node/partition ids — cross-field
  // like the topology checks above.
  Status chaos_valid = ChaosController::Validate(config_.chaos, config_.cluster);
  if (!chaos_valid.ok()) return chaos_valid;
  // The meta protocol's children resolve through the registry at factory
  // time; reject unknown names (and self-nesting) here so the failure
  // carries the offending field instead of a generic factory error.
  if (config_.protocol == "meta") {
    const std::pair<const char*, const std::string*> children[] = {
        {"meta.baseline", &config_.meta.baseline},
        {"meta.single_master", &config_.meta.single_master},
        {"meta.wan", &config_.meta.wan},
    };
    for (const auto& [field, name] : children) {
      if (name->empty()) continue;  // meta.wan is optional
      if (*name == "meta") {
        return Status::InvalidArgument(std::string(field) +
                                       ": meta cannot nest itself");
      }
      Status child_exists = ProtocolRegistry::Global().CheckExists(*name);
      if (!child_exists.ok()) {
        return Status::InvalidArgument(std::string(field) + ": " +
                                       child_exists.message());
      }
    }
  }
  return Status::OK();
}

Status ExperimentBuilder::Build(std::unique_ptr<Experiment>* out) const {
  Status valid = Validate();
  if (!valid.ok()) return valid;

  auto ex = std::unique_ptr<Experiment>(new Experiment());
  ex->config_ = config_;
  ex->window_callbacks_ = window_callbacks_;
  ex->sim_ = std::make_unique<Simulator>(config_.seed);
  ex->cluster_ = std::make_unique<lion::Cluster>(ex->sim_.get(),
                                                 config_.cluster);
  if (RecoveryActive(config_.recovery)) {
    // Before any component can append a write, so the log's accounting
    // covers the whole run.
    ex->cluster_->EnableRecovery(config_.recovery);
  }
  ex->metrics_ =
      std::make_unique<MetricsCollector>(config_.cluster.net.stats_window);

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
    if (config_.chaos.track_commits) {
      ex->ledger_ = std::make_unique<CommitLedger>(
          config_.cluster.total_partitions());
    }
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

void Experiment::ScheduleWindowTick(size_t index) {
  SimTime window = metrics_->window();
  SimTime boundary = static_cast<SimTime>(index + 1) * window;
  // Weak: the window reporter is background machinery and must not keep
  // RunUntilIdle-style quiescence from terminating.
  sim_->ScheduleWeak(boundary - sim_->Now(), [this, index]() {
    WindowStats stats;
    stats.index = index;
    stats.end_time = sim_->Now();
    stats.throughput = index < metrics_->window_commits().size()
                           ? metrics_->WindowThroughput(index)
                           : 0.0;
    const auto& bytes = network_window_bytes();
    const auto& commits = metrics_->window_commits();
    if (index < bytes.size() && index < commits.size() &&
        commits[index] > 0) {
      stats.bytes_per_txn = static_cast<double>(bytes[index]) /
                            static_cast<double>(commits[index]);
    }
    for (WindowCallback& cb : window_callbacks_) cb(stats);
    // Only re-arm if the next boundary still falls inside the run —
    // otherwise a stale tick would outlive Run() and fire a spurious
    // callback if the caller advances the simulator afterwards.
    if (sim_->Now() + metrics_->window() <=
        config_.warmup + config_.duration) {
      ScheduleWindowTick(index + 1);
    }
  });
}

const std::vector<uint64_t>& Experiment::network_window_bytes() const {
  return cluster_->network().window_bytes();
}

ExperimentResult Experiment::Run() {
  if (ran_) return result_;
  ran_ = true;

  cluster_->Start();
  protocol_->Start();
  if (chaos_) {
    // Arm after protocol Start so scripted faults hit the protocol's
    // initial placement (geo replicas included), exactly like a live hit.
    protocol_->EnableDegradation(&config_.chaos);
    chaos_->injector().SetGeoPlacement(protocol_->geo_placement());
    if (ledger_) {
      CommitLedger* ledger = ledger_.get();
      metrics_->SetCommitListener(
          [ledger](const Transaction& txn) { ledger->Record(txn); });
    }
    chaos_->Arm();
  }
  driver_ = std::make_unique<ClosedLoopDriver>(
      sim_.get(), protocol_.get(), workload_.get(), metrics_.get(),
      concurrency_);
  driver_->Start();
  // Same guard as the re-arm below: only schedule ticks whose boundary
  // falls inside the run, so none outlive Run().
  if (!window_callbacks_.empty() &&
      metrics_->window() <= config_.warmup + config_.duration) {
    ScheduleWindowTick(0);
  }

  sim_->RunUntil(config_.warmup);
  metrics_->StartMeasurement(sim_->Now());
  sim_->RunUntil(config_.warmup + config_.duration);
  driver_->Stop();
  protocol_->Stop();

  // Snapshot the measured interval first: the chaos drain below may retire
  // further (post-measurement) work that must not shift the reported
  // numbers.
  result_ = Collect();

  if (chaos_) {
    // Quiesce so in-flight failovers, retransmissions and deferred retries
    // settle before the invariants are checked.
    sim_->RunUntilIdle();
    result_.chaos_active = true;
    result_.aborted_unavailable = metrics_->aborted_unavailable();
    result_.failovers = chaos_->injector().failovers_completed();
    result_.elections_rerun = chaos_->injector().elections_rerun();
    result_.messages_dropped = cluster_->network().messages_dropped();
    for (size_t i = 0; i < result_.window_throughput.size(); ++i) {
      result_.window_availability.push_back(metrics_->WindowAvailability(i));
    }
    for (const ChaosController::Fired& f : chaos_->fired()) {
      result_.fault_events.push_back(ExperimentResult::FaultEvent{
          static_cast<double>(f.at) / 1e6, f.description});
    }
    if (config_.chaos.check_integrity) {
      IntegrityReport report = CheckClusterIntegrity(
          cluster_.get(), &chaos_->injector(), ledger_.get());
      result_.integrity_violations = report.violations.size();
      result_.integrity_partitions_checked = report.partitions_checked;
      result_.integrity_writes_checked = report.committed_writes_checked;
      result_.integrity_log_writes_checked = report.log_writes_checked;
      for (size_t i = 0; i < report.violations.size() && i < 5; ++i) {
        result_.integrity_messages.push_back(report.violations[i]);
      }
    }
  }
  if (cluster_->recovery_log() != nullptr) {
    // After the chaos drain (when one ran) so catch-ups completing during
    // the quiesce land in the records too.
    const RecoveryLog* log = cluster_->recovery_log();
    result_.recovery_active = true;
    result_.log_entries = log->entries_appended();
    result_.log_entries_lost = log->total_lost_entries();
    result_.log_snapshots = log->snapshots_taken();
    result_.catch_up_entries = cluster_->replication().catch_up_entries_shipped();
    if (chaos_) {
      const FailureInjector& injector = chaos_->injector();
      result_.stale_elections = injector.stale_elections();
      result_.recoveries_replayed = injector.recoveries_replayed();
      result_.catch_ups_completed = injector.catch_ups().size();
      for (const FailureInjector::CatchUpRecord& c : injector.catch_ups()) {
        result_.catch_up_events.push_back(ExperimentResult::CatchUpEvent{
            static_cast<double>(c.finished) / 1e6, static_cast<int>(c.node),
            static_cast<int>(c.partition),
            static_cast<double>(c.finished - c.started) / 1e6, c.entries});
      }
      for (const FailureInjector::RecoveryRecord& r : injector.recoveries()) {
        result_.recovery_events.push_back(ExperimentResult::RecoveryEvent{
            static_cast<double>(r.finished) / 1e6, static_cast<int>(r.node),
            static_cast<double>(r.finished - r.started) / 1e6, r.partitions});
      }
    }
  }
  if (auto* meta = dynamic_cast<MetaProtocol*>(protocol_.get())) {
    // After the chaos drain (when one ran) so flips completing during the
    // quiesce land in the timeline too.
    result_.meta_active = true;
    for (size_t i = 0; i < meta->num_children(); ++i) {
      result_.meta_children.push_back(meta->child_name(i));
    }
    result_.meta_assignment = meta->AssignmentCounts();
    for (const MetricsCollector::ProtocolSwitch& s :
         metrics_->protocol_switches()) {
      result_.protocol_switches.push_back(ExperimentResult::ProtocolSwitchEvent{
          static_cast<double>(s.at) / 1e6, static_cast<int>(s.partition),
          s.from, s.to});
    }
  }
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
