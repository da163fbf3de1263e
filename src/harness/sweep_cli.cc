#include "harness/sweep_cli.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "replication/chaos_config.h"
#include "sim/topology.h"

namespace lion {

namespace {

/// Per-metric median across one point's repeated runs; index N/2 of the
/// sorted values (the upper median for even N — with min/max reported
/// alongside, the convention barely matters).
double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double DistPct(const ExperimentResult& r) {
  if (r.committed == 0) return 0.0;
  return 100.0 * static_cast<double>(r.distributed) /
         static_cast<double>(r.committed);
}

/// The scalar result metrics that aggregate across repeat runs, declared
/// once: JSON key, extractor, and whether the value emits as an integer.
struct MetricSpec {
  const char* key;
  double (*get)(const ExperimentResult&);
  bool integral;
};

const MetricSpec kAggregatedMetrics[] = {
    {"throughput_txn_s", [](const ExperimentResult& r) { return r.throughput; },
     false},
    {"committed",
     [](const ExperimentResult& r) { return static_cast<double>(r.committed); },
     true},
    {"aborts",
     [](const ExperimentResult& r) { return static_cast<double>(r.aborts); },
     true},
    {"single_node",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.single_node);
     },
     true},
    {"remastered",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.remastered);
     },
     true},
    {"distributed",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.distributed);
     },
     true},
    {"p10_us", [](const ExperimentResult& r) { return r.p10_us; }, false},
    {"p50_us", [](const ExperimentResult& r) { return r.p50_us; }, false},
    {"p95_us", [](const ExperimentResult& r) { return r.p95_us; }, false},
    {"p99_us", [](const ExperimentResult& r) { return r.p99_us; }, false},
    {"bytes_per_txn",
     [](const ExperimentResult& r) { return r.bytes_per_txn; }, false},
    {"remasters",
     [](const ExperimentResult& r) { return static_cast<double>(r.remasters); },
     true},
    {"migrations",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.migrations);
     },
     true},
    {"migrated_bytes",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.migrated_bytes);
     },
     true},
};

/// One {"metric":value,...} block over the group's successful results,
/// reduced by `pick` (median / min / max over the sorted per-metric values).
Json MetricBlock(const std::vector<const ExperimentResult*>& results,
                 size_t (*pick)(size_t n)) {
  Json block = Json::Object();
  std::vector<double> values;
  for (const MetricSpec& m : kAggregatedMetrics) {
    values.clear();
    for (const ExperimentResult* r : results) values.push_back(m.get(*r));
    std::sort(values.begin(), values.end());
    double v = values[pick(values.size())];
    block.Set(m.key, m.integral ? Json::Int(static_cast<int64_t>(v))
                                : Json::Printf("%.6g", v));
  }
  return block;
}

/// One point as a report sees it: its config and its base-seed result.
struct ReportPoint {
  const SweepPoint* point;
  const ExperimentResult* result;
};

/// The number at `v`; 0 when the member is absent.
double NumberAt(const Json* v) {
  double d = 0.0;
  if (v == nullptr || !v->GetDouble(&d).ok()) return 0.0;
  return d;
}

double DidonaBoundUs(const ExperimentConfig& config) {
  Topology topo(config.cluster.net, config.cluster.num_nodes);
  return 2.0 * static_cast<double>(topo.max_cross_region_latency()) /
         static_cast<double>(kMicrosecond);
}

Json DidonaReference(const std::vector<ReportPoint>& points) {
  Json bound = Json::Object();
  Json distance = Json::Object();
  std::vector<int> regions_seen;
  for (const ReportPoint& p : points) {
    const ExperimentConfig& config = p.point->config;
    double bound_us = DidonaBoundUs(config);
    int regions = config.cluster.net.regions;
    if (std::find(regions_seen.begin(), regions_seen.end(), regions) ==
        regions_seen.end()) {
      regions_seen.push_back(regions);
      bound.Set("regions=" + std::to_string(regions),
                Json::Printf("%.6g", bound_us));
    }
    distance.Set(p.point->name,
                 Json::Printf("%.6g", p.result->p99_us - bound_us));
  }
  Json out = Json::Object();
  out.Set("didona_lower_bound_us", std::move(bound));
  out.Set("distance_from_bound_us", std::move(distance));
  return out;
}

Json MetaSummary(const std::vector<ReportPoint>& points) {
  double meta = 0.0, best = 0.0, worst = 0.0;
  Json switches = Json::Uint(0);
  for (const ReportPoint& p : points) {
    const ExperimentResult& r = *p.result;
    if (const Json* summary = r.subsystems.Find("meta")) {
      meta = r.throughput;
      if (const Json* count = summary->Find("switches")) switches = *count;
    } else {
      if (best == 0.0 || r.throughput > best) best = r.throughput;
      if (worst == 0.0 || r.throughput < worst) worst = r.throughput;
    }
  }
  Json out = Json::Object();
  out.Set("meta_txn_s", Json::Printf("%.1f", meta));
  out.Set("best_static_txn_s", Json::Printf("%.1f", best));
  out.Set("worst_static_txn_s", Json::Printf("%.1f", worst));
  out.Set("meta_vs_best",
          Json::Printf("%.4f", best > 0.0 ? meta / best : 0.0));
  out.Set("meta_vs_worst",
          Json::Printf("%.4f", worst > 0.0 ? meta / worst : 0.0));
  out.Set("switches", std::move(switches));
  return out;
}

/// Mean availability over the stats windows after the last crash of the
/// chaos schedule: for a second crash, the stretch where only a recovered
/// node's replicas can keep its failed-over partitions serving.
double PostCrashAvailability(const ExperimentConfig& config,
                             const ExperimentResult& r) {
  SimTime last_crash = 0;
  for (const std::string& entry : config.chaos.schedule) {
    ChaosEvent ev;
    if (!ChaosEvent::Parse(entry, &ev).ok()) continue;
    if (ev.kind == ChaosEventKind::kCrash ||
        ev.kind == ChaosEventKind::kCrashDirty) {
      last_crash = std::max(last_crash, ev.at);
    }
  }
  const Json* availability = r.subsystems.Find("window_availability");
  if (availability == nullptr) return 0.0;
  const std::vector<Json>& windows = availability->items();
  size_t from =
      r.window > 0 ? static_cast<size_t>(last_crash / r.window) + 1 : 0;
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = from; i < windows.size(); ++i) {
    sum += NumberAt(&windows[i]);
    n++;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

Json RecoveryPanel(const std::vector<ReportPoint>& points) {
  Json out = Json::Array();
  for (const ReportPoint& p : points) {
    const ExperimentConfig& config = p.point->config;
    const ExperimentResult& r = *p.result;
    double recovery_ms = 0.0;
    Json lost = Json::Uint(0);
    if (const Json* recovery = r.subsystems.Find("recovery")) {
      if (const Json* events = recovery->Find("recovery_events")) {
        for (const Json& ev : events->items()) {
          recovery_ms += NumberAt(ev.Find("duration_ms"));
        }
      }
      if (const Json* count = recovery->Find("log_entries_lost")) {
        lost = *count;
      }
    }
    Json entry = Json::Object();
    entry.Set("name", Json::Str(p.point->name));
    entry.Set("durability_lag_us",
              Json::Int(config.recovery.enabled
                            ? config.recovery.durability_lag / kMicrosecond
                            : -1));
    entry.Set("recovery_ms", Json::Printf("%.3f", recovery_ms));
    entry.Set("post_crash_availability",
              Json::Printf("%.4f", PostCrashAvailability(config, r)));
    entry.Set("log_entries_lost", std::move(lost));
    out.Add(std::move(entry));
  }
  return out;
}

struct SweepReport {
  const char* name;
  Json (*build)(const std::vector<ReportPoint>& points);
};

const SweepReport kSweepReports[] = {
    {"reference", DidonaReference},
    {"meta_summary", MetaSummary},
    {"recovery_panel", RecoveryPanel},
};

}  // namespace

bool StderrIsTty() { return isatty(fileno(stderr)) != 0; }

std::vector<SweepPoint> ExpandRepeat(std::vector<SweepPoint> points,
                                     int repeat) {
  if (repeat <= 1) return points;
  std::vector<SweepPoint> expanded;
  expanded.reserve(points.size() * static_cast<size_t>(repeat));
  for (SweepPoint& p : points) {
    for (int k = 0; k < repeat; ++k) {
      SweepPoint run;
      run.name = p.name + "/rep=" + std::to_string(k);
      run.config = p.config;
      run.config.seed = p.config.seed + static_cast<uint64_t>(k);
      expanded.push_back(std::move(run));
    }
  }
  return expanded;
}

SweepOptions::ProgressFn MakeSweepProgress(bool enabled, size_t total) {
  if (!enabled || total == 0) return nullptr;
  // The hook is copied into the runner, so the start time and the shared
  // state live behind a shared_ptr.
  auto start = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::now());
  return [start, total](size_t done, size_t runner_total,
                        const SweepOutcome& outcome) {
    (void)runner_total;
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      *start)
            .count();
    double eta = done > 0
                     ? elapsed / static_cast<double>(done) *
                           static_cast<double>(total - done)
                     : 0.0;
    // \r + trailing spaces keep one live status line; runs are long (a
    // simulated experiment each), so the redraw rate is harmless.
    std::fprintf(stderr, "\r[%zu/%zu done, ~%.0fs left] %s\x1b[K", done,
                 total, eta, outcome.name.c_str());
    if (done == total) std::fputc('\n', stderr);
  };
}

Json MergeRepeatJson(const std::vector<SweepOutcome>& outcomes, int repeat) {
  if (repeat <= 1) return SweepRunner::MergeJson(outcomes);
  const size_t n = static_cast<size_t>(repeat);
  Json runs = Json::Array();
  for (size_t base = 0; base < outcomes.size(); base += n) {
    size_t group_end = std::min(outcomes.size(), base + n);
    std::vector<const ExperimentResult*> ok;
    const SweepOutcome* first_failure = nullptr;
    size_t first_ok_rep = 0;  // rep index of ok.front() within the group
    for (size_t i = base; i < group_end; ++i) {
      if (outcomes[i].status.ok()) {
        if (ok.empty()) first_ok_rep = i - base;
        ok.push_back(&outcomes[i].result);
      } else if (first_failure == nullptr) {
        first_failure = &outcomes[i];
      }
    }
    // Strip the "/rep=k" suffix back off for the group's record name.
    std::string name = outcomes[base].name;
    size_t cut = name.rfind("/rep=");
    if (cut != std::string::npos) name = name.substr(0, cut);

    Json run = Json::Object();
    run.Set("name", Json::Str(std::move(name)));
    const char* status =
        ok.empty() ? StatusCodeName(first_failure->status.code()) : "OK";
    run.Set("status", Json::Str(status));
    run.Set("runs_ok", Json::Uint(ok.size()));
    if (ok.empty()) {
      run.Set("error", Json::Str(first_failure->status.message()));
    } else {
      run.Set("protocol", Json::Str(ok.front()->protocol));
      run.Set("workload", Json::Str(ok.front()->workload));
      // Repeat k derives its seed as base + k, so the base seed names the
      // whole family — recovered from the first *successful* run's seed and
      // its rep offset, in case earlier reps failed.
      run.Set("seed_base", Json::Uint(ok.front()->seed - first_ok_rep));
      run.Set("median", MetricBlock(ok, [](size_t c) { return c / 2; }));
      run.Set("min", MetricBlock(ok, [](size_t) { return size_t{0}; }));
      run.Set("max", MetricBlock(ok, [](size_t c) { return c - 1; }));
    }
    runs.Add(std::move(run));
  }
  Json doc = Json::Object();
  doc.Set("sweep_size", Json::Uint((outcomes.size() + n - 1) / n));
  doc.Set("repeat", Json::Int(repeat));
  doc.Set("runs", std::move(runs));
  return doc;
}

const std::vector<std::string>& SweepReportNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    for (const SweepReport& report : kSweepReports) v->push_back(report.name);
    return v;
  }();
  return *names;
}

Json MergeSweepJson(const std::vector<SweepPoint>& points,
                    const std::vector<SweepOutcome>& outcomes, int repeat) {
  Json doc = MergeRepeatJson(outcomes, repeat);
  const size_t runs_per_point = repeat > 1 ? static_cast<size_t>(repeat) : 1;
  for (const SweepReport& report : kSweepReports) {
    bool selected = false;
    std::vector<ReportPoint> inputs;
    for (size_t i = 0; i < points.size(); ++i) {
      const std::vector<std::string>& wanted = points[i].reports;
      if (std::find(wanted.begin(), wanted.end(), report.name) ==
          wanted.end()) {
        continue;
      }
      selected = true;
      const SweepOutcome& base_run = outcomes.at(i * runs_per_point);
      if (base_run.status.ok()) {
        inputs.push_back(ReportPoint{&points[i], &base_run.result});
      }
    }
    if (!selected) continue;
    doc.Set(report.name, report.build(inputs));
  }
  return doc;
}

bool PrintSweepSummaries(std::FILE* out,
                         const std::vector<SweepOutcome>& outcomes,
                         int repeat) {
  if (repeat < 1) repeat = 1;
  bool all_ok = true;
  const size_t n = static_cast<size_t>(repeat);
  for (size_t base = 0; base < outcomes.size(); base += n) {
    size_t group_end = std::min(outcomes.size(), base + n);
    std::vector<double> throughput, p50, p95, dist;
    double min_tput = 0.0, max_tput = 0.0;
    for (size_t i = base; i < group_end; ++i) {
      const SweepOutcome& o = outcomes[i];
      if (!o.status.ok()) {
        all_ok = false;
        std::fprintf(out, "%s: %s\n", o.name.c_str(),
                     o.status.ToString().c_str());
        continue;
      }
      throughput.push_back(o.result.throughput);
      p50.push_back(o.result.p50_us);
      p95.push_back(o.result.p95_us);
      dist.push_back(DistPct(o.result));
    }
    if (throughput.empty()) continue;
    min_tput = *std::min_element(throughput.begin(), throughput.end());
    max_tput = *std::max_element(throughput.begin(), throughput.end());
    // Strip the "/rep=k" suffix back off for the group's display name.
    std::string name = outcomes[base].name;
    if (repeat > 1) {
      size_t cut = name.rfind("/rep=");
      if (cut != std::string::npos) name = name.substr(0, cut);
    }
    if (repeat == 1) {
      std::fprintf(out, "%s: ktxn/s=%.1f p50_us=%.0f p95_us=%.0f "
                        "dist_pct=%.1f\n",
                   name.c_str(), throughput[0] / 1000.0, p50[0], p95[0],
                   dist[0]);
    } else {
      std::fprintf(out,
                   "%s: ktxn/s=%.1f [%.1f..%.1f] p50_us=%.0f p95_us=%.0f "
                   "dist_pct=%.1f (median of %zu)\n",
                   name.c_str(), MedianOf(throughput) / 1000.0,
                   min_tput / 1000.0, max_tput / 1000.0, MedianOf(p50),
                   MedianOf(p95), MedianOf(dist), throughput.size());
    }
  }
  return all_ok;
}

}  // namespace lion
