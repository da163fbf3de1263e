// Multi-threaded experiment sweep: fan a config grid out across OS threads.
//
// Each Experiment owns its entire component stack (simulator, cluster,
// metrics, protocol, workload — see harness/experiment.h), so independent
// runs share no mutable state and can execute concurrently. The registries
// are populated during static initialization and only read afterwards,
// which keeps ExperimentBuilder::Run thread-safe.
//
// Determinism: every run carries its own seed inside its config, and
// outcomes are stored at their Add() index, so the merged result — and the
// merged JSON — is byte-identical no matter how many threads execute the
// sweep or how they interleave.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "harness/experiment.h"
#include "harness/experiment_config.h"

namespace lion {

/// One labeled grid point. Labels name the point in reports and in the
/// merged JSON ("Fig7a/2PC/cross=20"); uniqueness is the caller's business.
struct SweepPoint {
  std::string name;
  ExperimentConfig config;
  /// Derived report blocks this point feeds (harness/sweep_cli.h), set from
  /// its spec's "reports" key; the runner itself ignores them.
  std::vector<std::string> reports;
};

/// What happened to one grid point. `result` is meaningful iff `status` is
/// OK; a failed Build/Run (unknown protocol name, invalid config) is
/// reported here instead of aborting the rest of the sweep.
struct SweepOutcome {
  std::string name;
  Status status;
  ExperimentResult result;
};

struct SweepOptions {
  using ProgressFn =
      std::function<void(size_t done, size_t total, const SweepOutcome&)>;

  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  /// The pool never exceeds the number of points.
  int threads = 0;
  /// Optional progress hook, called after each run completes. Serialized by
  /// an internal mutex but invoked from worker threads, in completion (not
  /// Add) order — do not touch sweep state from it.
  ProgressFn on_progress;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = SweepOptions{});

  void Add(std::string name, ExperimentConfig config);
  void Add(SweepPoint point);

  size_t size() const { return points_.size(); }

  /// Executes every added point across the pool and returns outcomes in
  /// Add() order. May be called once per set of added points; points stay
  /// added, so a second Run() re-executes the same grid.
  std::vector<SweepOutcome> Run();

  /// Merges outcomes into one sweep-level JSON document:
  ///   {"sweep_size":N,"runs":[{"name":...,"status":"OK","result":{...}},
  ///                           {"name":...,"status":"NOT_FOUND","error":"..."}]}
  static Json MergeJson(const std::vector<SweepOutcome>& outcomes);

 private:
  SweepOptions options_;
  std::vector<SweepPoint> points_;
};

}  // namespace lion
