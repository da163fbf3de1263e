// Command-line experiment runner: compose any protocol x workload x cluster
// configuration without writing code. The entire flag surface is derived
// from the config schema (harness/config_schema.h) — every declared field
// is settable as --<dotted.path>=<value>, configs load from JSON files, and
// JSON sweep grids run through the multi-threaded SweepRunner. There are no
// hand-rolled per-field flag cases here. Every paper figure is a sweep grid
// in examples/configs/, so this is also the figure front end.
//
// Usage examples:
//   lion_bench_cli --protocol=Lion --workload=ycsb --ycsb.cross_ratio=0.8
//   lion_bench_cli --config=examples/configs/quickstart.json --json
//   lion_bench_cli --config=exp.json --lion.planner.interval_ms=250
//   lion_bench_cli --sweep=examples/configs/fig7_cross_ratio.json --repeat=3
//   lion_bench_cli --sweep=examples/configs/fig_geo.json --list
//   lion_bench_cli --flags          # the full derived flag listing
//   lion_bench_cli --list
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness/config_schema.h"
#include "harness/experiment.h"
#include "harness/sweep_cli.h"
#include "harness/sweep_spec.h"

using namespace lion;

namespace {

void PrintRegistries() {
  std::printf("protocols:");
  for (const std::string& p : ProtocolRegistry::Global().Names()) {
    std::printf(" %s%s", p.c_str(),
                ProtocolRegistry::Global().IsBatch(p) ? "*" : "");
  }
  std::printf("   (* = batch execution)\nworkloads:");
  for (const std::string& w : WorkloadRegistry::Global().Names()) {
    std::printf(" %s", w.c_str());
  }
  std::printf("\npredictors:");
  for (const std::string& p : PredictorRegistry::Global().Names()) {
    std::printf(" %s", p.c_str());
  }
  std::printf("   (select with --predictor.kind; \"off\" disables)\n");
}

void PrintUsage() {
  std::printf(
      "lion_bench_cli — run simulated experiments from the config schema\n\n"
      "single run:\n"
      "  --config=FILE      load an ExperimentConfig JSON file\n"
      "  --KEY=VALUE        set any schema field by dotted path, e.g.\n"
      "                     --protocol=Calvin --ycsb.cross_ratio=0.5\n"
      "                     --duration_s=2 --cluster.num_nodes=8\n"
      "                     (applied after --config, in command order)\n"
      "  --series           also print the throughput time series\n"
      "  --json             emit the full result as one JSON object\n"
      "  --print-config     print the effective config JSON and exit\n\n"
      "sweep (grid file; see examples/configs/):\n"
      "  --sweep=FILE       expand a JSON axis grid and run every point\n"
      "  --filter=SUBSTR    run only points whose name contains SUBSTR\n"
      "  --threads=N        sweep pool size (default hardware_concurrency)\n"
      "  --repeat=N         run each point N times with derived seeds and\n"
      "                     report per-metric medians (+ min/max); with\n"
      "                     --json each point aggregates into median/min/max\n"
      "                     blocks instead of one record per run\n"
      "  --json             emit the merged sweep JSON instead of summaries,\n"
      "                     with the report blocks the grid selects\n"
      "  --list             with --sweep: print the grid's point names\n\n"
      "discovery:\n"
      "  --list             registered protocols and workloads\n"
      "  --flags            every derived --KEY flag, grouped by config\n"
      "                     section (--flags=md for a markdown dump)\n"
      "  --help             this text\n");
}

void PrintFlags() {
  // Grouped by top-level config section, both derived from the schema —
  // the listing and the section help never go stale by hand.
  std::vector<ConfigFlagGroup> groups =
      ListFlagGroups(ExperimentConfigSchema());
  size_t width = 0;
  for (const ConfigFlagGroup& g : groups) {
    for (const auto& f : g.flags) width = std::max(width, f.first.size());
  }
  bool first = true;
  for (const ConfigFlagGroup& g : groups) {
    if (!first) std::printf("\n");
    first = false;
    if (g.name.empty()) {
      std::printf("top-level:\n");
    } else {
      std::printf("%s — %s:\n", g.name.c_str(), g.help.c_str());
    }
    for (const auto& f : g.flags) {
      std::printf("  --%-*s  %s\n", static_cast<int>(width), f.first.c_str(),
                  f.second.c_str());
    }
  }
}

int RunSweep(const std::string& sweep_path, const std::string& filter,
             int threads, int repeat, bool json, bool list) {
  std::vector<SweepPoint> points;
  Status s = LoadSweepFile(sweep_path, &points);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (!filter.empty()) {
    std::vector<SweepPoint> kept;
    for (SweepPoint& p : points) {
      if (p.name.find(filter) != std::string::npos)
        kept.push_back(std::move(p));
    }
    points = std::move(kept);
    if (points.empty()) {
      std::fprintf(stderr, "no sweep points match --filter=%s\n",
                   filter.c_str());
      return 1;
    }
  }
  if (list) {
    for (const SweepPoint& p : points) std::printf("%s\n", p.name.c_str());
    return 0;
  }
  // The declared points stay for the reports; the runner gets the repeats.
  std::vector<SweepPoint> runs = ExpandRepeat(points, repeat);

  SweepOptions options;
  options.threads = threads;
  options.on_progress = MakeSweepProgress(StderrIsTty() && !json,
                                          runs.size());
  SweepRunner runner(options);
  for (SweepPoint& p : runs) runner.Add(std::move(p));
  std::vector<SweepOutcome> outcomes = runner.Run();

  if (json) {
    std::printf("%s\n",
                MergeSweepJson(points, outcomes, repeat).Dump().c_str());
    bool all_ok = true;
    for (const SweepOutcome& o : outcomes) all_ok &= o.status.ok();
    return all_ok ? 0 : 1;
  }
  return PrintSweepSummaries(stdout, outcomes, repeat) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string sweep_path;
  std::string filter;
  // Dotted-path overrides in command order; applied after --config so flags
  // refine a file-loaded base.
  std::vector<std::pair<std::string, std::string>> overrides;
  int threads = 0;
  int repeat = 1;
  bool series = false;
  bool json = false;
  bool print_config = false;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--list") == 0) {
      list = true;
    } else if (std::strcmp(a, "--flags") == 0) {
      PrintFlags();
      return 0;
    } else if (std::strcmp(a, "--flags=md") == 0) {
      std::printf("%s", FlagsMarkdown(ExperimentConfigSchema(),
                                      "lion_bench_cli flag reference")
                            .c_str());
      return 0;
    } else if (std::strcmp(a, "--help") == 0) {
      PrintUsage();
      return 0;
    } else if (std::strcmp(a, "--series") == 0) {
      series = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--print-config") == 0) {
      print_config = true;
    } else if (std::strncmp(a, "--config=", 9) == 0) {
      config_path = a + 9;
    } else if (std::strncmp(a, "--sweep=", 8) == 0) {
      sweep_path = a + 8;
    } else if (std::strncmp(a, "--filter=", 9) == 0) {
      filter = a + 9;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      threads = std::atoi(a + 10);
    } else if (std::strncmp(a, "--repeat=", 9) == 0) {
      repeat = std::atoi(a + 9);
      if (repeat < 1) {
        std::fprintf(stderr, "--repeat must be >= 1\n");
        return 1;
      }
    } else if (std::strncmp(a, "--", 2) == 0 &&
               std::strchr(a + 2, '=') != nullptr) {
      const char* eq = std::strchr(a + 2, '=');
      overrides.emplace_back(std::string(a + 2, eq), std::string(eq + 1));
    } else {
      std::fprintf(stderr, "unknown flag: %s (see --help, --flags)\n", a);
      return 1;
    }
  }

  if (!sweep_path.empty()) {
    if (!overrides.empty() || !config_path.empty() || series ||
        print_config) {
      std::fprintf(stderr,
                   "--sweep runs the grid file as-is; --config, --series and "
                   "--KEY overrides apply to single runs only\n");
      return 1;
    }
    return RunSweep(sweep_path, filter, threads, repeat, json, list);
  }
  if (list) {
    PrintRegistries();
    return 0;
  }
  if (repeat != 1 || threads != 0 || !filter.empty()) {
    std::fprintf(stderr,
                 "--repeat/--threads/--filter apply to --sweep runs only\n");
    return 1;
  }

  ExperimentConfig cfg;
  if (!config_path.empty()) {
    Json doc;
    Status s = Json::ParseFile(config_path, &doc);
    if (s.ok()) s = ParseExperimentConfig(doc, &cfg);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  for (const auto& kv : overrides) {
    Status s = SetExperimentFlag(&cfg, kv.first, kv.second);
    if (!s.ok()) {
      std::fprintf(stderr, "--%s=%s: %s\n", kv.first.c_str(),
                   kv.second.c_str(), s.ToString().c_str());
      return 1;
    }
  }

  if (print_config) {
    std::printf("%s\n", EmitExperimentConfig(cfg).Dump().c_str());
    return 0;
  }

  ExperimentResult res;
  Status status = ExperimentBuilder(cfg).Run(&res);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    PrintRegistries();
    return 1;
  }
  if (res.committed == 0) {
    std::fprintf(stderr,
                 "no transactions committed — run too short for this "
                 "protocol/workload (try a longer --duration_s)\n");
    return 1;
  }

  if (json) {
    std::printf("%s\n", res.ToJson().Dump().c_str());
    return 0;
  }

  std::printf("protocol   : %s\n", cfg.protocol.c_str());
  std::printf("workload   : %s\n", cfg.workload.c_str());
  std::printf("throughput : %.0f txn/s\n", res.throughput);
  std::printf("committed  : %llu (aborts %llu)\n",
              (unsigned long long)res.committed, (unsigned long long)res.aborts);
  std::printf("classes    : single=%llu remastered=%llu distributed=%llu\n",
              (unsigned long long)res.single_node,
              (unsigned long long)res.remastered,
              (unsigned long long)res.distributed);
  std::printf("latency us : p10=%.0f p50=%.0f p95=%.0f p99=%.0f\n", res.p10_us,
              res.p50_us, res.p95_us, res.p99_us);
  std::printf("network    : %.0f bytes/txn\n", res.bytes_per_txn);
  std::printf("adaptation : %llu remasters, %llu migrations (%.1f MB)\n",
              (unsigned long long)res.remasters,
              (unsigned long long)res.migrations,
              res.migrated_bytes / (1024.0 * 1024.0));
  if (series) {
    std::printf("series ktxn/s:");
    for (double v : res.window_throughput) std::printf(" %.0f", v / 1000.0);
    std::printf("\n");
  }
  return 0;
}
