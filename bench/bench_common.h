// Shared entry point for the per-figure benchmark binaries.
//
// Each binary declares its sweep as a vector of labeled grid points
// (PointSpec) and delegates to bench::SweepMain, which runs the grid
// through SweepRunner (multi-threaded, deterministic merge), prints one
// summary line per point in declaration order, then runs each point's
// optional `on_done` hook (time-series printing) in the same order.
//
// Flags accepted by every figure binary:
//   --filter=SUBSTR   run only points whose name contains SUBSTR
//   --threads=N       sweep pool size (default: hardware_concurrency)
//   --repeat=N        run each point N times with derived seeds and report
//                     per-metric medians (+ min/max); on_done hooks observe
//                     each point's first (base-seed) run and the merged
//                     JSON aggregates each point into median/min/max blocks
//                     (see MergeRepeatJson in harness/sweep_cli.h)
//   --sweep=FILE      replace the compiled-in grid with a JSON sweep spec
//                     (see harness/sweep_spec.h and examples/configs/)
//   --json=PATH       also write the merged sweep JSON document to PATH
//   --list            print point names and exit
//
// While running, a [k/n done, ~Ns left] progress line updates on stderr
// when it is a TTY (suppressed under --json and in redirected logs).
//
// Environment: LION_BENCH_FAST=1 halves warmup/duration for smoke runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/registry.h"
#include "harness/sweep_cli.h"
#include "harness/sweep_runner.h"
#include "harness/sweep_spec.h"

namespace lion {
namespace bench {

inline bool FastMode() {
  const char* v = std::getenv("LION_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

/// The evaluation cluster defaults (Sec. VI-A, scaled down as in
/// ClusterConfig).
inline ClusterConfig EvalCluster(int nodes = 4) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.workers_per_node = 8;
  cfg.partitions_per_node = 12;
  cfg.records_per_partition = 10000;
  cfg.record_bytes = 1000;
  cfg.init_replicas = 2;
  cfg.max_replicas = 4;
  return cfg;
}

/// Baseline experiment config shared by the sweeps.
inline ExperimentConfig EvalConfig(const std::string& protocol, int nodes = 4) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.cluster = EvalCluster(nodes);
  cfg.warmup = FastMode() ? 500 * kMillisecond : 1 * kSecond;
  cfg.duration = FastMode() ? 1 * kSecond : 2 * kSecond;
  cfg.lion.planner.interval = 250 * kMillisecond;
  cfg.lion.planner.min_history = 64;
  cfg.predictor.sample_interval = 100 * kMillisecond;
  cfg.predictor.train_epochs = 5;
  return cfg;
}

/// A protocol as it appears in a figure: the paper's label plus the factory
/// name it resolves to in ProtocolRegistry (usually identical).
struct ProtocolEntry {
  std::string label;
  std::string factory;
};

/// The paper's protocol lineup for one execution mode, enumerated from the
/// registry rather than hard-coded: every registered protocol of that mode
/// joins the figure automatically. Parenthesized names ("Lion(R)",
/// "Lion(SW)", ...) are the Fig. 6 / Table II ablation variants and are
/// excluded here — except "Lion(B)", the full batch system, which reports
/// under the paper's plain "Lion" label in the batch figures. "meta" is
/// also excluded: it is a composite router over other registered
/// protocols, not a lineup member (it has its own figure, FigMeta).
inline std::vector<ProtocolEntry> ProtocolsByMode(ExecutionMode mode) {
  std::vector<ProtocolEntry> entries;
  for (const std::string& name :
       ProtocolRegistry::Global().NamesByMode(mode)) {
    if (name.find('(') != std::string::npos) continue;
    if (name == "meta") continue;
    entries.push_back(ProtocolEntry{name, name});
  }
  if (mode == ExecutionMode::kBatch &&
      ProtocolRegistry::Global().Contains("Lion(B)")) {
    entries.push_back(ProtocolEntry{"Lion", "Lion(B)"});
  }
  return entries;
}

inline std::vector<ProtocolEntry> StandardProtocols() {
  return ProtocolsByMode(ExecutionMode::kStandard);
}

inline std::vector<ProtocolEntry> BatchProtocols() {
  return ProtocolsByMode(ExecutionMode::kBatch);
}

/// One labeled grid point plus an optional ordered post-run hook (series
/// printing and other per-point reporting run after the whole sweep, in
/// declaration order, so multi-threaded output stays deterministic).
struct PointSpec {
  std::string name;
  ExperimentConfig config;
  std::function<void(const SweepOutcome&)> on_done;
};

/// Prints one paper-style series (time on the x-axis).
inline void PrintSeries(const std::string& tag, const ExperimentResult& res) {
  std::printf("%s t(s)", tag.c_str());
  for (size_t i = 0; i < res.window_throughput.size(); ++i) {
    std::printf(" %.1f", ToSeconds(res.window * (i + 1)));
  }
  std::printf("\n%s ktxn/s", tag.c_str());
  for (double v : res.window_throughput) std::printf(" %.1f", v / 1000.0);
  std::printf("\n");
}

/// Shared main(): flag parsing, filtered SweepRunner execution, ordered
/// reporting with optional --repeat medians, optional merged-JSON emission.
/// `extra_json`, when set, receives every point's outcome and returns
/// additional top-level members (without braces, e.g. `"reference":{...}`)
/// spliced into the merged JSON document — figure binaries use it for
/// analytic reference curves and derived per-point metrics that accompany
/// the measured runs. Returns the process exit code (1 if any point failed
/// to build/run).
using ExtraJsonFn =
    std::function<std::string(const std::vector<SweepOutcome>&)>;

inline int SweepMain(int argc, char** argv, const char* title,
                     std::vector<PointSpec> specs,
                     ExtraJsonFn extra_json = nullptr) {
  std::string filter;
  std::string json_path;
  std::string sweep_path;
  int threads = 0;  // 0 = hardware_concurrency
  int repeat = 1;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--filter=", 9) == 0) {
      filter = a + 9;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      threads = std::atoi(a + 10);
    } else if (std::strncmp(a, "--repeat=", 9) == 0) {
      repeat = std::atoi(a + 9);
      if (repeat < 1) {
        std::fprintf(stderr, "--repeat must be >= 1\n");
        return 1;
      }
    } else if (std::strncmp(a, "--sweep=", 8) == 0) {
      sweep_path = a + 8;
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      json_path = a + 7;
    } else if (std::strcmp(a, "--list") == 0) {
      list_only = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\n"
                   "usage: %s [--filter=SUBSTR] [--threads=N] [--repeat=N] "
                   "[--sweep=FILE] [--json=PATH] [--list]\n",
                   a, argv[0]);
      return 1;
    }
  }

  if (!sweep_path.empty()) {
    // A JSON grid replaces the compiled-in points (and their on_done
    // hooks): the same runner front end, config declared in the file.
    std::vector<SweepPoint> points;
    Status s = LoadSweepFile(sweep_path, &points);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    specs.clear();
    for (SweepPoint& p : points) {
      specs.push_back(PointSpec{std::move(p.name), std::move(p.config),
                                nullptr});
    }
  }

  if (!filter.empty()) {
    std::vector<PointSpec> kept;
    for (PointSpec& s : specs) {
      if (s.name.find(filter) != std::string::npos) {
        kept.push_back(std::move(s));
      }
    }
    specs = std::move(kept);
  }

  if (list_only) {
    for (const PointSpec& s : specs) std::printf("%s\n", s.name.c_str());
    return 0;
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no sweep points match --filter=%s\n",
                 filter.c_str());
    return 1;
  }

  std::printf("%s — %zu points%s%s\n", title, specs.size(),
              repeat > 1 ? " (median of repeats)" : "",
              FastMode() ? " (fast mode)" : "");

  std::vector<SweepPoint> points;
  points.reserve(specs.size());
  for (const PointSpec& s : specs) {
    points.push_back(SweepPoint{s.name, s.config});
  }
  points = ExpandRepeat(std::move(points), repeat);

  SweepOptions options;
  options.threads = threads;
  options.on_progress =
      MakeSweepProgress(StderrIsTty() && json_path.empty(), points.size());
  SweepRunner runner(options);
  for (SweepPoint& p : points) runner.Add(std::move(p));
  std::vector<SweepOutcome> outcomes = runner.Run();

  bool all_ok = PrintSweepSummaries(stdout, outcomes, repeat);
  for (size_t i = 0; i < specs.size(); ++i) {
    // Each point's first run carries the base seed, so under --repeat the
    // hook observes exactly what a --repeat=1 run would have produced.
    size_t first_run = i * static_cast<size_t>(repeat);
    if (specs[i].on_done && outcomes[first_run].status.ok()) {
      specs[i].on_done(outcomes[first_run]);
    }
  }

  if (!json_path.empty()) {
    std::string json = MergeRepeatJson(outcomes, repeat);
    if (extra_json) {
      std::string extra = extra_json(outcomes);
      // The merged document is a single object; splice the extra members
      // just inside its closing brace.
      if (!extra.empty() && !json.empty() && json.back() == '}') {
        json.insert(json.size() - 1, "," + extra);
      }
    }
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace bench
}  // namespace lion
