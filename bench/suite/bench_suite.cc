// One benchmark process: builds the experiment a workload file describes,
// runs it once, checks it, and prints one flat JSON object of raw
// measurements on stdout. bench/suite/run.py launches one process per
// (workload, repeat) and aggregates; see bench/suite/README.md.
//
//   bench_suite --config=FILE [--seed=N] [--scale=X] [--trace]
//
// --seed overrides the file's seed; --scale multiplies warmup and measured
// duration (the smoke run uses 0.1). --trace wraps the workload, the
// protocol and the predictor in timing decorators registered through the
// public registrars and attaches a CommitLedger; its modeled results must
// equal the untraced run's.
//
// Every layer is measured from outside: timers around ExperimentBuilder::Build,
// Experiment::Run and the decorated public interfaces, and public accessors
// read after the run. No engine source is modified for the benchmark.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "core/lion_protocol.h"
#include "core/predictor_interface.h"
#include "harness/config_schema.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "replication/integrity.h"

// --- heap allocation counter -------------------------------------------------
// The benchmark process is single-threaded, so plain counters suffice; an
// atomic add per allocation would itself cost a measurable share of the run.
// The standard library's array and nothrow forms forward to these
// replacements.
namespace {
uint64_t g_allocs = 0;
uint64_t g_alloc_bytes = 0;
bool g_count_allocs = true;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) {
    ++g_allocs;
    g_alloc_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() of a pointer from operator new
// in this file's own call sites and warn.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lion {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- span tracer -------------------------------------------------------------
// Self time per layer: a span's duration minus the part its nested spans
// cover. Completion -> Next -> Submit -> predictor chains nest on one stack,
// so no nanosecond is charged to two layers.
enum Layer { kWorkloadNext, kProtocolSubmit, kPredictor, kLedger, kNumLayers };

class Tracer {
 public:
  Tracer() { stack_.reserve(64); }

  void Enter(Layer layer) { stack_.push_back(Frame{layer, Clock::now(), 0}); }

  void Exit() {
    Frame f = stack_.back();
    stack_.pop_back();
    int64_t total = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - f.start)
                        .count();
    self_ns_[f.layer] += total - f.child_ns;
    calls_[f.layer]++;
    if (!stack_.empty()) stack_.back().child_ns += total;
  }

  int64_t self_ns(Layer layer) const { return self_ns_[layer]; }
  uint64_t calls(Layer layer) const { return calls_[layer]; }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  int64_t self_ns_[kNumLayers] = {};
  uint64_t calls_[kNumLayers] = {};
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(Layer layer) { g_tracer.Enter(layer); }
  ~Span() { g_tracer.Exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

// --- timing decorators -------------------------------------------------------
constexpr const char* kTracedPrefix = "traced:";

class TracedWorkload : public WorkloadGenerator {
 public:
  explicit TracedWorkload(std::unique_ptr<WorkloadGenerator> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  TxnPtr Next(TxnId id, SimTime now, Rng* rng) override {
    Span span(kWorkloadNext);
    return inner_->Next(id, now, rng);
  }

 private:
  std::unique_ptr<WorkloadGenerator> inner_;
};

class TracedPredictor : public PredictorInterface {
 public:
  explicit TracedPredictor(std::unique_ptr<PredictorInterface> inner)
      : inner_(std::move(inner)) {}
  void OnTxn(const std::vector<PartitionId>& parts, SimTime now) override {
    Span span(kPredictor);
    inner_->OnTxn(parts, now);
  }
  void AugmentGraph(HeatGraph* graph, SimTime now) override {
    Span span(kPredictor);
    inner_->AugmentGraph(graph, now);
  }
  double WorkloadVariation(SimTime now) override {
    Span span(kPredictor);
    return inner_->WorkloadVariation(now);
  }
  void ForecastPartitions(SimTime now, int horizon,
                          std::vector<double>* out) override {
    Span span(kPredictor);
    inner_->ForecastPartitions(now, horizon, out);
  }

 private:
  std::unique_ptr<PredictorInterface> inner_;
};

// Owns the inner protocol and forwards the whole lifecycle. The inner
// factory sees the experiment config with its own registry name restored
// (and the traced predictor kind kept, so a predicting protocol builds the
// decorated predictor); the copy lives as long as the inner protocol.
class TracedProtocol : public Protocol {
 public:
  TracedProtocol(const ProtocolContext& ctx, const std::string& inner_name)
      : Protocol(ctx.cluster, ctx.metrics), config_(ctx.config) {
    config_.protocol = inner_name;
    ProtocolContext inner_ctx{config_, ctx.cluster, ctx.metrics};
    Status s =
        ProtocolRegistry::Global().Create(inner_name, inner_ctx, &inner_);
    if (!s.ok()) std::fprintf(stderr, "traced: %s\n", s.ToString().c_str());
  }

  Protocol* inner() { return inner_.get(); }

  std::string name() const override { return inner_->name(); }
  void Start() override { inner_->Start(); }
  void Stop() override {
    Protocol::Stop();
    inner_->Stop();
  }
  void EnableDegradation(const ChaosConfig* config) override {
    Protocol::EnableDegradation(config);
    inner_->EnableDegradation(config);
  }
  const GeoPlacement* geo_placement() const override {
    return inner_->geo_placement();
  }

 protected:
  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override {
    Span span(kProtocolSubmit);
    inner_->Submit(std::move(txn), std::move(done));
  }

 private:
  ExperimentConfig config_;
  std::unique_ptr<Protocol> inner_;
};

// Registers "traced:<name>" decorators for the run's protocol, workload and
// predictor, and points the config at them. The protocol decorator keeps
// the inner protocol's ExecutionMode; the predictor decorator receives the
// same PredictorContext (seed included), so forecasts are identical.
Status InstallTracing(ExperimentConfig* cfg) {
  const std::string protocol = cfg->protocol;
  const std::string workload = cfg->workload;
  const std::string predictor = cfg->predictor.kind;
  ExecutionMode mode;
  Status s = ProtocolRegistry::Global().Mode(protocol, &mode);
  if (!s.ok()) return s;

  ProtocolRegistrar(kTracedPrefix + protocol, mode,
                    [protocol](const ProtocolContext& ctx)
                        -> std::unique_ptr<Protocol> {
                      auto traced =
                          std::make_unique<TracedProtocol>(ctx, protocol);
                      if (traced->inner() == nullptr) return nullptr;
                      return traced;
                    });
  WorkloadRegistrar(kTracedPrefix + workload,
                    [workload](const WorkloadContext& ctx)
                        -> std::unique_ptr<WorkloadGenerator> {
                      ExperimentConfig inner_cfg = ctx.config;
                      inner_cfg.workload = workload;
                      WorkloadContext inner_ctx{inner_cfg, ctx.cluster};
                      std::unique_ptr<WorkloadGenerator> inner;
                      Status st = WorkloadRegistry::Global().Create(
                          workload, inner_ctx, &inner);
                      if (!st.ok()) return nullptr;
                      return std::make_unique<TracedWorkload>(std::move(inner));
                    });
  cfg->protocol = kTracedPrefix + protocol;
  cfg->workload = kTracedPrefix + workload;

  if (predictor != kPredictorOff) {
    PredictorRegistrar(kTracedPrefix + predictor,
                       [predictor](const PredictorContext& ctx)
                           -> std::unique_ptr<PredictorInterface> {
                         PredictorConfig inner_cfg = ctx.config;
                         inner_cfg.kind = predictor;
                         PredictorContext inner_ctx{inner_cfg, ctx.seed};
                         std::unique_ptr<PredictorInterface> inner;
                         Status st = PredictorRegistry::Global().Create(
                             predictor, inner_ctx, &inner);
                         if (!st.ok()) return nullptr;
                         return std::make_unique<TracedPredictor>(
                             std::move(inner));
                       });
    cfg->predictor.kind = kTracedPrefix + predictor;
  }
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Options {
  std::string config_path;
  bool has_seed = false;
  uint64_t seed = 0;
  double scale = 1.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--config=", 9) == 0) {
      opt->config_path = a + 9;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      char* end = nullptr;
      opt->seed = std::strtoull(a + 7, &end, 10);
      if (end == a + 7 || *end != '\0') return false;
      opt->has_seed = true;
    } else if (std::strncmp(a, "--scale=", 8) == 0) {
      char* end = nullptr;
      opt->scale = std::strtod(a + 8, &end);
      if (end == a + 8 || *end != '\0' || !(opt->scale > 0.0)) return false;
    } else if (std::strcmp(a, "--trace") == 0) {
      opt->trace = true;
    } else {
      return false;
    }
  }
  return !opt->config_path.empty();
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: bench_suite --config=FILE [--seed=N] [--scale=X] "
                 "[--trace]\n");
    return 2;
  }
  ExperimentConfig cfg;
  Json doc;
  Status s = Json::ParseFile(opt.config_path, &doc);
  if (s.ok()) s = ParseExperimentConfig(doc, &cfg);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", opt.config_path.c_str(),
                 s.ToString().c_str());
    return 2;
  }
  if (opt.has_seed) cfg.seed = opt.seed;
  cfg.warmup =
      static_cast<SimTime>(static_cast<double>(cfg.warmup) * opt.scale);
  cfg.duration =
      static_cast<SimTime>(static_cast<double>(cfg.duration) * opt.scale);
  const std::string protocol_name = cfg.protocol;
  const std::string workload_name = cfg.workload;
  if (opt.trace) {
    s = InstallTracing(&cfg);
    if (!s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  auto t_setup = Clock::now();
  std::unique_ptr<Experiment> ex;
  s = ExperimentBuilder(cfg).Build(&ex);
  double setup_s = SecondsSince(t_setup);
  if (!s.ok()) {
    std::fprintf(stderr, "build: %s\n", s.ToString().c_str());
    return 2;
  }

  // Exact sum and count of the measured interval's commit latencies, in
  // constant memory so the benchmark adds nothing to the run's peak RSS,
  // plus the ledger the traced run's integrity check uses. Commits at or
  // before the warmup boundary belong to the warmup.
  const SimTime warmup = cfg.warmup;
  Simulator* sim = ex->sim();
  uint64_t latency_samples = 0;
  int64_t latency_sum_ns = 0;
  bool measuring = true;
  std::unique_ptr<CommitLedger> ledger;
  if (opt.trace) {
    ledger = std::make_unique<CommitLedger>(cfg.cluster.total_partitions());
  }
  ex->metrics()->SetCommitListener([&](const Transaction& txn) {
    SimTime now = sim->Now();
    if (measuring && now > warmup) {
      ++latency_samples;
      latency_sum_ns += now - txn.created_at();
    }
    if (ledger != nullptr) {
      // The ledger's own allocations are not the engine's.
      Span span(kLedger);
      g_count_allocs = false;
      ledger->Record(txn);
      g_count_allocs = true;
    }
  });

  const uint64_t allocs0 = g_allocs;
  const uint64_t alloc_bytes0 = g_alloc_bytes;
  auto t_run = Clock::now();
  ExperimentResult res = ex->Run();
  double run_wall_s = SecondsSince(t_run);
  const uint64_t allocs = g_allocs - allocs0;
  const uint64_t alloc_bytes = g_alloc_bytes - alloc_bytes0;
  measuring = false;

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // Whole-run counters are read before the drain so they cover exactly the
  // warmup + measured schedule.
  Cluster* cluster = ex->cluster();
  MetricsCollector* metrics = ex->metrics();
  const SimTime sim_end = sim->Now();
  uint64_t run_commits = 0;
  for (uint64_t c : metrics->window_commits()) run_commits += c;
  const uint64_t events = sim->processed_events();
  const uint64_t net_bytes = cluster->network().total_bytes();
  const uint64_t net_messages = cluster->network().total_messages();

  // Measured-interval network bytes: the stats windows after the warmup.
  uint64_t measured_bytes = 0;
  const std::vector<uint64_t>& window_bytes =
      cluster->network().window_bytes();
  const size_t first_window = static_cast<size_t>(warmup / metrics->window());
  for (size_t i = first_window; i < window_bytes.size(); ++i) {
    measured_bytes += window_bytes[i];
  }

  double util_sum = 0.0, util_max = 0.0;
  uint64_t tasks = 0;
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    WorkerPool* pool = cluster->pool(n);
    double util = Ratio(static_cast<double>(pool->busy_time()),
                        static_cast<double>(pool->workers()) *
                            static_cast<double>(sim_end));
    util_sum += util;
    util_max = std::max(util_max, util);
    tasks += pool->completed_tasks();
  }
  uint64_t records = 0;
  for (PartitionId p = 0; p < cluster->num_partitions(); ++p) {
    records += cluster->store(p)->record_count();
  }

  Protocol* protocol = ex->protocol();
  if (auto* traced = dynamic_cast<TracedProtocol*>(protocol)) {
    protocol = traced->inner();
  }
  uint64_t plan_rounds = 0, plan_entries = 0, remaster_requests = 0;
  if (auto* lion = dynamic_cast<LionProtocol*>(protocol)) {
    remaster_requests = lion->remaster_requests();
    if (lion->planner() != nullptr) {
      plan_rounds = lion->planner()->plans_generated();
      plan_entries = lion->planner()->entries_dispatched();
    }
  }
  const RemasterManager& remaster = cluster->remaster();
  const MigrationManager& migration = cluster->migration();
  // Log-bucketed (about 4% relative error); recorded, not bounded.
  auto percentile_us = [metrics](double q) {
    return static_cast<double>(metrics->latency().Percentile(q)) / 1000.0;
  };

  // Quiesce, then check the cluster's structure (and, traced, that every
  // committed write is present in the stores).
  sim->RunUntilIdle();
  IntegrityReport integrity =
      CheckClusterIntegrity(cluster, nullptr, ledger.get());
  metrics->SetCommitListener(nullptr);
  for (size_t i = 0; i < integrity.violations.size() && i < 5; ++i) {
    std::fprintf(stderr, "integrity: %s\n", integrity.violations[i].c_str());
  }
  uint64_t issued = metrics->aborted_unavailable();
  for (uint64_t c : metrics->window_commits()) issued += c;

  const PhaseBreakdown& b = res.breakdown;
  const double committed =
      static_cast<double>(std::max<uint64_t>(1, res.committed));
  const uint64_t shipped = cluster->replication().total_entries_shipped();

  Json out = Json::Object();
  auto num = [&out](const char* key, double v) {
    out.Set(key, Json::Double(v));
  };
  auto count = [&out](const char* key, uint64_t v) {
    out.Set(key, Json::Uint(v));
  };
  // Whole-run totals per whole-run commit; phase sums per measured commit.
  auto per_txn = [run_commits](double total) {
    return total / static_cast<double>(std::max<uint64_t>(1, run_commits));
  };
  auto us_per_commit = [committed](SimTime total_ns) {
    return static_cast<double>(total_ns) / 1000.0 / committed;
  };
  out.Set("protocol", Json::Str(protocol_name));
  out.Set("workload", Json::Str(workload_name));
  count("seed", cfg.seed);
  out.Set("traced", Json::Bool(opt.trace));
#ifdef NDEBUG
  out.Set("ndebug", Json::Bool(true));
#else
  out.Set("ndebug", Json::Bool(false));
#endif
  out.Set("compiler", Json::Str(__VERSION__));

  // Modeled results: a function of the config and seed alone.
  count("committed", res.committed);
  count("aborts", res.aborts);
  count("single_node", res.single_node);
  count("remastered", res.remastered);
  count("distributed", res.distributed);
  count("aborted_unavailable", metrics->aborted_unavailable());
  count("latency_samples", latency_samples);
  count("run_commits", run_commits);
  count("issued", issued);
  num("txn_s", res.throughput);
  num("p50_us", percentile_us(0.50));
  num("p99_us", percentile_us(0.99));
  num("p999_us", percentile_us(0.999));
  num("lat_mean_us", Ratio(static_cast<double>(latency_sum_ns) / 1000.0,
                           static_cast<double>(latency_samples)));
  num("bytes_per_txn", Ratio(static_cast<double>(measured_bytes), committed));
  count("net_bytes", net_bytes);
  count("net_messages", net_messages);
  count("events", events);
  count("allocs", allocs);
  count("alloc_bytes", alloc_bytes);
  count("worker_tasks", tasks);
  count("records", records);
  count("plan_rounds", plan_rounds);
  count("plan_entries", plan_entries);
  count("remaster_requests", remaster_requests);
  count("remasters", remaster.remasters_completed());
  num("remaster_mean_us",
      Ratio(static_cast<double>(remaster.total_remaster_time()) / 1000.0,
            static_cast<double>(remaster.remasters_completed())));
  count("migrations", migration.migrations_completed());
  count("migrated_bytes", migration.migrated_bytes());
  count("entries_shipped", shipped);
  num("util_mean", util_sum / static_cast<double>(cluster->num_nodes()));
  num("util_max", util_max);
  num("lat_scheduling_us", us_per_commit(b.scheduling));
  num("lat_execution_us", us_per_commit(b.execution));
  num("lat_commit_us", us_per_commit(b.commit));
  num("lat_replication_us", us_per_commit(b.replication));
  num("lat_other_us", us_per_commit(b.other));
  num("events_per_txn", per_txn(static_cast<double>(events)));
  num("msgs_per_txn", per_txn(static_cast<double>(net_messages)));
  num("tasks_per_txn", per_txn(static_cast<double>(tasks)));
  num("allocs_per_txn", per_txn(static_cast<double>(allocs)));
  num("alloc_bytes_per_txn", per_txn(static_cast<double>(alloc_bytes)));
  num("entries_shipped_per_txn", per_txn(static_cast<double>(shipped)));
  out.Set("integrity_ok", Json::Bool(integrity.ok()));
  count("integrity_violations", integrity.violations.size());
  count("integrity_writes_checked", integrity.committed_writes_checked);

  // Host measurements.
  num("setup_s", setup_s);
  num("run_wall_s", run_wall_s);
  num("peak_rss_mb", peak_rss_mb);
  num("ns_per_event",
      Ratio(run_wall_s * 1e9, static_cast<double>(events)));
  if (opt.trace) {
    auto self_ns = [](Layer l) {
      return static_cast<double>(g_tracer.self_ns(l));
    };
    double spans_ns = 0.0;
    for (int l = 0; l < kNumLayers; ++l) spans_ns += self_ns(Layer(l));
    num("next_ns_per_txn", per_txn(self_ns(kWorkloadNext)));
    num("submit_ns_per_txn", per_txn(self_ns(kProtocolSubmit)));
    num("predictor_ns_per_txn", per_txn(self_ns(kPredictor)));
    count("predictor_calls", g_tracer.calls(kPredictor));
    num("ledger_s", self_ns(kLedger) / 1e9);
    num("loop_self_s", run_wall_s - spans_ns / 1e9);
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace lion

int main(int argc, char** argv) { return lion::Main(argc, argv); }
