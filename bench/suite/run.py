#!/usr/bin/env python3
"""Benchmark runner for the Lion simulator (see bench/suite/README.md).

Builds bench_suite into .bench_build (bench/suite/CMakeLists.txt links it
against the root project's lion_engine target), then runs one fresh, single-threaded process per (workload, seed, repeat).

  run.py --workload W --seed N --seconds S --trace 0|1
      One workload for about S seconds; prints one JSON result line.
  run.py [--seed N] [--out PATH]
      Whole suite: ROUNDS interleaved rounds, workload order rotated each round,
      then one traced run per workload; writes a result file with spread
      and box fingerprint.
  run.py --smoke
      Every workload at a tenth of its length, one repeat plus the traced
      run, every check on.
  run.py --compare BASE.json NEW.json
      One row per workload x end-to-end metric with a verdict.

Exit status is non-zero when a build, a process or a correctness check
fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_suite"
WORKLOAD_DIR = HERE / "workloads"
WORKLOADS = ["ycsb_lion", "tpcc_2pc", "hotspot_lion", "batch_lion"]

# A workload run (--workload) simulates this many distinct seeds derived from
# --seed; the modeled metrics are medians over them. Remaining time repeats
# the same seeds, which adds host-time samples and determinism checks.
SEEDS_PER_RUN = 4
# Untraced rounds of a suite run (the smoke run does one).
ROUNDS = 3
PROCESS_TIMEOUT_S = 150

# Modeled results: a pure function of workload file and seed. Any two
# processes with the same seed, traced or not, must agree on all of them.
DIGEST_KEYS = [
    "committed", "aborts", "single_node", "remastered", "distributed",
    "aborted_unavailable", "latency_samples", "run_commits", "issued",
    "txn_s", "p50_us", "p99_us", "p999_us", "lat_mean_us", "bytes_per_txn", "net_bytes", "net_messages", "events",
    "allocs", "alloc_bytes", "worker_tasks", "records", "plan_rounds",
    "plan_entries", "remaster_requests", "remasters", "migrations",
    "migrated_bytes", "entries_shipped",
]

# End-to-end metrics: (name, unit, raw key, reported statistic). Host
# timings report the fastest untraced process of the run: interference from
# other tenants only ever slows a process down, so the minimum is the
# steadiest estimate of the program's own speed. Memory reports the median
# process. Modeled metrics ("seed") report the median over distinct seeds.
END_TO_END = [
    ("setup_s", "s", "setup_s", "min"),
    ("run_wall_s", "s", "run_wall_s", "min"),
    ("peak_rss_mb", "MB", "peak_rss_mb", "median"),
    ("txn_s", "txn/s", "txn_s", "seed"),
    ("lat_mean_us", "us", "lat_mean_us", "seed"),
    ("bytes_per_txn", "B/txn", "bytes_per_txn", "seed"),
]


def ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, fn(untraced, traced) -> samples).
# Counters are deterministic and read from the first untraced process;
# timings have one sample per process (or per untraced/traced pair).
def _modeled(key):
    return lambda u, t: [u[0][key]]


def _traced(key):
    return lambda u, t: [r[key] for r in t]


def _overhead(u, t):
    return [(tr["run_wall_s"] - tr["ledger_s"]) / un["run_wall_s"] - 1.0
            for un, tr in zip(u, t)]


def _frac(key):
    return lambda u, t: [ratio(u[0][key], u[0]["committed"])]


PER_LAYER = [
    ("sim.events_per_txn", "events/txn", _modeled("events_per_txn")),
    ("sim.ns_per_event", "ns/event",
     lambda u, t: [r["ns_per_event"] for r in u]),
    ("sim.loop_self_s", "s", _traced("loop_self_s")),
    ("net.msgs_per_txn", "msgs/txn", _modeled("msgs_per_txn")),
    ("workers.util_mean", "frac", _modeled("util_mean")),
    ("workers.util_max", "frac", _modeled("util_max")),
    ("workers.tasks_per_txn", "tasks/txn", _modeled("tasks_per_txn")),
    ("lat.scheduling_us", "us", _modeled("lat_scheduling_us")),
    ("lat.execution_us", "us", _modeled("lat_execution_us")),
    ("lat.commit_us", "us", _modeled("lat_commit_us")),
    ("lat.replication_us", "us", _modeled("lat_replication_us")),
    ("lat.other_us", "us", _modeled("lat_other_us")),
    ("protocols.submit_ns_per_txn", "ns/txn", _traced("submit_ns_per_txn")),
    ("txn.abort_rate", "frac",
     lambda u, t: [ratio(u[0]["aborts"], u[0]["committed"] + u[0]["aborts"])]),
    ("core.single_node_frac", "frac", _frac("single_node")),
    ("core.remastered_frac", "frac", _frac("remastered")),
    ("core.distributed_frac", "frac", _frac("distributed")),
    ("core.plan_rounds", "count", _modeled("plan_rounds")),
    ("core.plan_entries", "count", _modeled("plan_entries")),
    ("core.remaster_requests", "count", _modeled("remaster_requests")),
    ("core.predictor_ns_per_txn", "ns/txn", _traced("predictor_ns_per_txn")),
    ("core.predictor_calls", "count", lambda u, t: [t[0]["predictor_calls"]]),
    ("replication.remasters", "count", _modeled("remasters")),
    ("replication.remaster_mean_us", "us", _modeled("remaster_mean_us")),
    ("replication.migrations", "count", _modeled("migrations")),
    ("replication.migrated_mb", "MB",
     lambda u, t: [u[0]["migrated_bytes"] / 1e6]),
    ("replication.entries_shipped_per_txn", "entries/txn",
     _modeled("entries_shipped_per_txn")),
    ("workload.next_ns_per_txn", "ns/txn", _traced("next_ns_per_txn")),
    ("storage.records", "count", _modeled("records")),
    ("alloc.per_txn", "allocs/txn", _modeled("allocs_per_txn")),
    ("alloc.bytes_per_txn", "B/txn", _modeled("alloc_bytes_per_txn")),
    ("trace.overhead_frac", "frac", _overhead),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; raises on failure."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"engine sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_process(workload, seed, trace=False, scale=1.0):
    cmd = [str(BINARY), f"--config={WORKLOAD_DIR / (workload + '.json')}",
           f"--seed={seed}"]
    if scale != 1.0:
        cmd.append(f"--scale={scale}")
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(runs):
    """Correctness problems across one workload's processes ([] when sound)."""
    problems = []
    by_seed = {}
    for r in runs:
        tag = f"seed {r['seed']}{' traced' if r['traced'] else ''}"
        if not r["ndebug"]:
            problems.append(f"{tag}: binary built without NDEBUG")
        if r["committed"] == 0:
            problems.append(f"{tag}: nothing committed")
        if r["single_node"] + r["remastered"] + r["distributed"] != \
                r["committed"]:
            problems.append(f"{tag}: exec classes do not sum to committed")
        if r["latency_samples"] != r["committed"]:
            problems.append(f"{tag}: latency samples != committed")
        if not r["integrity_ok"]:
            problems.append(f"{tag}: {r['integrity_violations']} integrity "
                            "violations")
        if r["traced"] and r["integrity_writes_checked"] == 0:
            problems.append(f"{tag}: the ledger checked no committed write")
        first = by_seed.setdefault(r["seed"], r)
        # The traced run's decorated names ("traced:<name>") are longer, so
        # the result's copies of them may allocate a few more bytes.
        keys = DIGEST_KEYS if r["traced"] == first["traced"] else \
            [k for k in DIGEST_KEYS if k != "alloc_bytes"]
        diff = [k for k in keys if r[k] != first[k]]
        if diff:
            problems.append(f"{tag}: modeled digest differs from the first "
                            f"run of this seed in {', '.join(diff)}")
    return problems


def stats(values):
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": med, "q3": q3,
            "max": max(values), "n": len(values), "values": values}


def end_to_end(untraced):
    """End-to-end metric name -> stats, from untraced processes only."""
    per_seed = {}
    for r in untraced:
        per_seed.setdefault(r["seed"], r)
    out = {}
    for name, unit, key, report in END_TO_END:
        source = per_seed.values() if report == "seed" else untraced
        out[name] = dict(stats(r[key] for r in source), unit=unit,
                         reported="min" if report == "min" else "median",
                         per_seed=report == "seed")
    return out


def per_layer(untraced, traced):
    """Per-layer metric name -> stats, from the first seed's processes."""
    seed = untraced[0]["seed"]
    u = [r for r in untraced if r["seed"] == seed]
    t = [r for r in traced if r["seed"] == seed]
    return {name: dict(stats(fn(u, t)), unit=unit)
            for name, unit, fn in PER_LAYER}


def derived_seeds(seed):
    return [(seed * SEEDS_PER_RUN + i) % (1 << 64)
            for i in range(SEEDS_PER_RUN)]


def workload_run(args):
    """One workload for about --seconds; the result JSON on the last line."""
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    build()
    seeds = derived_seeds(args.seed)
    untraced, traced = [], []
    start = time.monotonic()
    if args.trace:
        # Pairs on the first seed: the traced run must reproduce the
        # untraced digest exactly; their wall times give the overhead.
        while True:
            t0 = time.monotonic()
            untraced.append(run_process(args.workload, seeds[0]))
            traced.append(run_process(args.workload, seeds[0], trace=True))
            took = time.monotonic() - t0
            if time.monotonic() - start + took > args.seconds:
                break
    else:
        i = 0
        while True:
            t0 = time.monotonic()
            untraced.append(run_process(args.workload, seeds[i % len(seeds)]))
            took = time.monotonic() - t0
            i += 1
            if i >= len(seeds) and \
                    time.monotonic() - start + took > args.seconds:
                break
    runs = untraced + traced
    problems = check(runs)
    for p in problems:
        log(f"{args.workload}: {p}")
    attempted = sum(r["issued"] for r in runs)
    failed = attempted if problems else sum(r["aborted_unavailable"]
                                            for r in runs)
    summary = per_layer(untraced, traced) if args.trace else \
        end_to_end(untraced)
    metrics = {name: {"value": s[s.get("reported", "median")],
                      "unit": s["unit"]}
               for name, s in summary.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def box_fingerprint(compiler_version):
    cpu = "unknown"
    try:
        m = re.search(r"^model name\s*:\s*(.*)$",
                      Path("/proc/cpuinfo").read_text(), re.M)
        cpu = m.group(1) if m else cpu
    except OSError:
        pass
    cache = (BUILD / "CMakeCache.txt").read_text()

    def cache_value(key):
        m = re.search(rf"^{key}:\w+=(.*)$", cache, re.M)
        return m.group(1) if m else "unknown"

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": f"{cache_value('CMAKE_CXX_COMPILER')} "
                        f"{compiler_version}",
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "git_sha": sha or "unknown"}


def suite_run(args):
    """Interleaved rounds of every workload plus one traced run each."""
    build()
    scale = 0.1 if args.smoke else 1.0
    repeats = 1 if args.smoke else ROUNDS
    untraced = {w: [] for w in WORKLOADS}
    traced = {w: [] for w in WORKLOADS}
    for rnd in range(repeats):
        order = WORKLOADS[rnd % len(WORKLOADS):] + \
            WORKLOADS[:rnd % len(WORKLOADS)]
        for w in order:
            log(f"round {rnd + 1}/{repeats}: {w}")
            untraced[w].append(run_process(w, args.seed, scale=scale))
    for w in WORKLOADS:
        log(f"traced: {w}")
        traced[w].append(run_process(w, args.seed, trace=True, scale=scale))

    result = {"box": box_fingerprint(traced[WORKLOADS[0]][0]["compiler"]),
              "seed": args.seed,
              "repeats": repeats, "scale": scale, "workloads": {}}
    failures = 0
    for w in WORKLOADS:
        runs = untraced[w] + traced[w]
        problems = check(runs)
        for p in problems:
            log(f"{w}: {p}")
        failures += bool(problems)
        issued = sum(r["issued"] for r in runs)
        unavailable = sum(r["aborted_unavailable"] for r in runs)
        result["workloads"][w] = {
            "correct": not problems,
            "problems": problems,
            "failed_frac": 1.0 if problems else ratio(unavailable, issued),
            "end_to_end": end_to_end(untraced[w]),
            "per_layer": per_layer(untraced[w], traced[w]),
            "digest": {k: untraced[w][0][k] for k in DIGEST_KEYS},
        }
    print_suite(result)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        log(f"wrote {out}")
    return 1 if failures else 0


def print_suite(result):
    for w, r in result["workloads"].items():
        print(f"== {w}: {'ok' if r['correct'] else 'FAILED'}, failed_frac "
              f"{r['failed_frac']:g}")
        for name, s in r["end_to_end"].items():
            print(f"  {name:16s} {s['median']:14.6g} {s['unit']:8s} "
                  f"[{s['min']:.6g} .. {s['max']:.6g}] n={s['n']}")
        for name, s in r["per_layer"].items():
            print(f"  {name:36s} {s['median']:14.6g} {s['unit']}")


def verdict(base, new, better, bound):
    """improved / unchanged / regressed / unresolved, and the worsening.

    A spread (IQR/median) wider than the bound leaves the comparison
    unresolved unless every new sample beats every base sample. A gain
    must exceed the base's own IQR; where that IQR says nothing about the
    noise (a side with one sample, or a modeled metric taken at one seed,
    which moves with the seed), it must exceed the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"]) / base["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    if sign > 0:
        all_better = max(new["values"]) < min(base["values"])
    else:
        all_better = min(new["values"]) > max(base["values"])
    if spread > bound:
        return worse_by, "improved" if all_better else "unresolved"
    if worse_by > bound:
        return worse_by, "regressed"
    if min(base["n"], new["n"]) < 2 or base.get("per_seed"):
        gain_needed = bound * base["median"]
    else:
        gain_needed = base["q3"] - base["q1"]
    if worse_by < 0 and abs(new["median"] - base["median"]) > gain_needed:
        return worse_by, "improved"
    return worse_by, "unchanged"


def cell(s):
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    regressed = 0
    print(f"{'workload':13s} {'metric':14s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'worse':>8s} {'bound':>6s}  verdict")
    for w in WORKLOADS:
        if w not in base or w not in new:
            continue
        for m in spec["end_to_end"]:
            b = base[w]["end_to_end"].get(m["name"])
            n = new[w]["end_to_end"].get(m["name"])
            if b is None or n is None:
                continue
            worse_by, v = verdict(b, n, m["better"], m["bound"])
            regressed += v == "regressed"
            print(f"{w:13s} {m['name']:14s} {cell(b):>32s} {cell(n):>32s} "
                  f"{worse_by:+8.2%} {m['bound']:6.1%}  {v}")
        for side, res in (("base", base[w]), ("new", new[w])):
            if not res["correct"]:
                print(f"{w:13s} {side} run failed its correctness checks")
                regressed += 1
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload:
            return workload_run(args)
        if args.out is None and not args.smoke:
            args.out = str(ROOT / ".bench_results" / "latest.json")
        return suite_run(args)
    except BenchError as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
