// The sweep front end behind lion_bench_cli --sweep: repeat expansion with
// derived seeds, a TTY progress/ETA line, per-point summary reporting with
// medians, and the merged JSON document with the derived report blocks a
// sweep spec selects.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep_runner.h"

namespace lion {

/// True when stderr is an interactive terminal — progress/ETA lines are
/// suppressed otherwise (CI logs, redirects).
bool StderrIsTty();

/// Replicates every point `repeat` times in place (point i's runs stay
/// consecutive): run k is named "<name>/rep=k" and carries the derived seed
/// `base_seed + k`, so repeats sample independent executions while staying
/// fully deterministic. `repeat <= 1` returns the points unchanged.
std::vector<SweepPoint> ExpandRepeat(std::vector<SweepPoint> points,
                                     int repeat);

/// Returns an on_progress hook that rewrites one stderr status line:
///   [12/40 done, ~84s left] Fig7a/Lion/cross=50
/// ETA extrapolates mean wall time per completed run over the remainder.
/// Pass enabled=false (not a TTY, --json mode) for a no-op hook.
SweepOptions::ProgressFn MakeSweepProgress(bool enabled, size_t total);

/// Merged sweep JSON with repeat runs aggregated per point. With
/// `repeat <= 1` this is exactly SweepRunner::MergeJson. Otherwise each
/// declared point becomes one record carrying per-metric "median"/"min"/
/// "max" blocks over its successful runs (element-wise across the scalar
/// result fields; series are omitted — they live in individual-run mode):
///   {"sweep_size":N,"repeat":R,"runs":[
///     {"name":"Fig7a/Lion/cross=50","status":"OK","runs_ok":5,
///      "protocol":"Lion","workload":"ycsb","seed_base":1,
///      "median":{"throughput_txn_s":...,...},"min":{...},"max":{...}}]}
/// A point whose runs all failed reports the first failure's status/error.
/// Aggregation is order-deterministic, so the threads=1 vs threads=N
/// byte-identity guarantee of MergeJson carries over.
Json MergeRepeatJson(const std::vector<SweepOutcome>& outcomes, int repeat);

/// Report names a sweep spec may select with its "reports" key, in the
/// order the merged document emits them: "reference", "meta_summary",
/// "recovery_panel".
const std::vector<std::string>& SweepReportNames();

/// MergeRepeatJson followed by one top-level member per report that any of
/// `points` selects. `points` are the declared points (before
/// ExpandRepeat) and `outcomes` their runs, `repeat` consecutive runs per
/// point. A report reads the points that select it in declaration order,
/// each through its config and the result of its base-seed run (the first
/// of its repeats); points whose run failed are left out. Subsystem values
/// (switch counts, recovery durations, availability) are read from the
/// run's JSON members, as printed there. Numbers keep the fixed precision
/// the figures have always printed.
///
///   "reference": {"didona_lower_bound_us":{"regions=2":60000,...},
///                 "distance_from_bound_us":{"<point>":-51234.5,...}}
///     The Didona et al. lower bound on the commit latency of transactions
///     that conflict across regions: one WAN round trip, 2x the largest
///     one-way inter-region latency of the point's topology, in us (0 for
///     one region), keyed by region count. The distance is the point's p99
///     latency minus its bound; the bound binds cross-region conflicting
///     commits, which live in the tail.
///   "meta_summary": {"meta_txn_s":..,"best_static_txn_s":..,
///                    "worst_static_txn_s":..,"meta_vs_best":..,
///                    "meta_vs_worst":..,"switches":N}
///     Throughput of the meta protocol's point against the best and worst
///     of the other points, and its protocol switch count.
///   "recovery_panel": [{"name":..,"durability_lag_us":..,"recovery_ms":..,
///                       "post_crash_availability":..,
///                       "log_entries_lost":N},...]
///     One entry per point: its recovery.durability_lag_us (-1 with
///     recovery off, when a crashed node rejoins empty), the summed
///     duration of its recovery events, and its mean availability over the
///     stats windows after the chaos schedule's last crash.
Json MergeSweepJson(const std::vector<SweepPoint>& points,
                    const std::vector<SweepOutcome>& outcomes, int repeat);

/// Prints one summary line per declared point, in declaration order. With
/// repeat > 1 the line reports the per-metric median across that point's
/// runs plus the throughput min/max spread:
///   name: ktxn/s=102.4 [98.1..104.0] p50_us=870 p95_us=2410 dist_pct=4.2
///     (median of 5)
/// Failed runs print their status instead. Returns true when every run
/// succeeded.
bool PrintSweepSummaries(std::FILE* out,
                         const std::vector<SweepOutcome>& outcomes,
                         int repeat);

}  // namespace lion
