#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the RAC reproduction.

Builds bench/e2e (the rac_e2e driver plus the src/ libraries, Release), runs
each workload as separate driver processes, derives every metric named in
BENCHMARK.json, and checks that the program's outputs are correct.

  run.py                               all workloads, untraced, table + checks
  run.py --trace 1                     all workloads, per-layer metrics
  run.py --workload W --seed N --seconds T --trace 0|1
                                       one workload; last stdout line is the
                                       JSON result {correct, attempted, failed,
                                       metrics}
  run.py sample --runs 5 --out FILE    a run set: N untraced runs per workload
                                       (seeds 1..N) plus one traced run each
  run.py compare A B                   diff two run sets, end to end and per
                                       layer; exits 1 if a metric got worse
                                       beyond its bound
  run.py check FILE                    validate a run set or result file
  run.py selftest                      smoke-scale pass over every workload
                                       plus tamper tests of `check`

Standard library only. Every path it reads or writes is inside the checkout:
the build and scratch files go under build-e2e/ at the repository root, or
under $CARGO_TARGET_DIR/e2e when that is set.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"

# Each measured run repeats the driver as separate processes, all traced or
# all untraced, until --seconds have passed and at least this many have run:
# setup runs once per process, so setup_s is a median over them.
MIN_PROCESSES = 3
DRIVER_TIMEOUT_S = 170
SINGLE_AGENT = ("onboard", "traffic-day", "des-faults")
SPAN_COVERAGE_FLOOR = 0.98


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build and driver processes
# ---------------------------------------------------------------------------

def pool_threads():
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count() or 1
    return max(1, min(4, available))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    if not target:
        return ROOT / "build-e2e"
    target = Path(target)
    return (target if target.is_absolute() else ROOT / target) / "e2e"


def build():
    """Configure (once) and build the driver; returns its path."""
    out = build_dir()
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(pool_threads())])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "rac_e2e"


def child_env():
    """The environment the runner pins for every driver process."""
    env = dict(os.environ)
    for name in ("RAC_LIBRARY_CACHE", "RAC_TRACE", "RAC_BENCH_REPORT",
                 "RAC_BENCH_QUICK"):
        env.pop(name, None)
    env["RAC_THREADS"] = str(pool_threads())
    return env


def run_driver(binary, workload, seed, work, traced, smoke):
    fd, out = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--out", out]
    spans = out + ".spans" if traced else None
    if spans:
        cmd += ["--trace", spans]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(),
                              capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"rac_e2e {workload} seed {seed} exited "
                             f"{proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(Path(out).read_text())
        if spans:
            result["spans"] = json.loads(Path(spans).read_text())
        return result
    finally:
        for path in (out, spans):
            if path and os.path.exists(path):
                os.remove(path)


def measure(binary, workload, seed, seconds, trace, smoke=False,
            min_processes=MIN_PROCESSES):
    """Repeat the driver for `seconds` and at least `min_processes` times;
    returns every process's result."""
    work = Path(tempfile.mkdtemp(prefix="runs-", dir=build_dir()))
    results = []
    try:
        start = time.monotonic()
        while len(results) < min_processes or \
                time.monotonic() - start < seconds:
            results.append(run_driver(binary, workload, seed, work, trace,
                                      smoke))
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def interval_timings(spans):
    """Per-interval durations (us) of one traced process, read from its
    spans: decide, observe and measure, and the agent's reconfiguration
    time observe(i) + decide(i+1) within each episode."""
    rows, names = spans["spans"], spans["names"]
    kind = {names.index(n): key for n, key in (
        ("core.rac.decide", "decide_us"), ("core.rac.observe", "observe_us"),
        ("env.measure", "measure_us"))}
    interval = names.index("interval")
    parts = {}     # interval span id -> {key: us}
    episodes = {}  # episode span id -> [(interval index, interval span id)]
    out = {"decide_us": [], "observe_us": [], "measure_us": [],
           "reconfig_us": []}
    for i, (start, end, parent, name, index) in enumerate(rows):
        if name == interval:
            episodes.setdefault(parent, []).append((index, i))
        elif name in kind:
            us = (end - start) * 1e-3
            out[kind[name]].append(us)
            parts.setdefault(parent, {})[kind[name]] = us
    for intervals in episodes.values():
        intervals.sort()
        for (_, prev), (_, cur) in zip(intervals, intervals[1:]):
            observe = parts.get(prev, {}).get("observe_us")
            decide = parts.get(cur, {}).get("decide_us")
            if observe is not None and decide is not None:
                out["reconfig_us"].append(observe + decide)
    return out


def counter(result, phase, name):
    return result[phase + "_counters"].get(name, 0.0)


def span_stats(spans):
    """Per span: duration and self time (duration minus the union of its
    children's intervals), plus the structural problems found."""
    rows = spans["spans"]
    names = spans["names"]
    problems = []
    children = [[] for _ in rows]
    for i, (start, end, parent, _, _) in enumerate(rows):
        if end < start:
            problems.append(f"span {i} ({names[rows[i][3]]}) never closed")
            continue
        if parent >= 0:
            p_start, p_end = rows[parent][0], rows[parent][1]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({names[rows[i][3]]}) escapes its "
                                f"parent {parent}")
            children[parent].append((start, end))
    out = []
    for i, (start, end, _, name, _) in enumerate(rows):
        covered, reach = 0, start
        for c_start, c_end in sorted(children[i]):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((names[name], max(0, end - start), max(0, end - start - covered)))
    return out, problems


def span_totals(stats, name):
    """Seconds of duration and of self time over the spans named `name`."""
    return (sum(s[1] for s in stats if s[0] == name) * 1e-9,
            sum(s[2] for s in stats if s[0] == name) * 1e-9)


def quality(result):
    """Decision quality pooled over one process's episodes. Deterministic
    for a seed: every process of a run must agree on it."""
    eps = result["episodes"]
    requested = sum(e["requested"] for e in eps)
    delivered = sum(e["delivered"] for e in eps)
    settles = [e["settle_intervals"] for e in eps
               if e["settle_intervals"] is not None]
    return {
        "sla_attainment": sum(e["sla_hits"] for e in eps) / requested,
        "mean_response_ms": (sum(e["response_sum_ms"] for e in eps) /
                             delivered if delivered else 0.0),
        "settle_intervals": statistics.mean(settles) if settles else None,
        "intervals": requested,
        "lost": sum(e["lost"] for e in eps),
    }


def intervals_per_s(result):
    """Management intervals (tenant-intervals for the fleet) completed per
    wall second of the online phase."""
    return sum(e["completed"] for e in result["episodes"]) / result["online_s"]


def digest(result):
    return "-".join(e["digest"] for e in result["episodes"])


def end_to_end(results):
    """The end-to-end metrics of one untraced measurement: timings are
    medians over the processes, quality is the (identical) pooled quality."""
    return {
        "setup_s": median([r["setup_s"] for r in results]),
        "intervals_per_s": median([intervals_per_s(r) for r in results]),
        "sla_attainment": quality(results[0])["sla_attainment"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }


def per_layer(workload, traced):
    """The per-layer metrics of one traced measurement."""
    t0 = traced[0]
    single = workload in SINGLE_AGENT

    def med(fn):
        return median([fn(r) for r in traced])

    stats = [span_stats(r["spans"])[0] for r in traced]

    def span_med(name, self_time):
        return median([span_totals(s, name)[self_time] for s in stats])

    def busy(phase, hist):
        return med(lambda r: counter(r, phase, hist + ".sum") * 1e-6)

    def count(phase, name):
        return counter(t0, phase, name)

    both = lambda name: count("setup", name) + count("online", name)
    timings = [interval_timings(r["spans"]) for r in traced]
    for t, r in zip(timings, traced):
        t["reconfig_us"] += r["fleet"]["reconfig_us"]
    pooled = lambda key: [v for t in timings for v in t[key]]
    measure_us = pooled("measure_us")
    reconfig_us = pooled("reconfig_us")
    steps = [v for r in traced for v in r["fleet"]["step_ms"]]
    retrain_steps = [v for r in traced
                     for v, flag in zip(r["fleet"]["step_ms"],
                                        r["fleet"]["retrain_step"]) if flag]
    sim_busy = busy("online", "env.sim.measure_us")
    completed_requests = count("online", "tiersim.completed_requests")
    mva_calls = both("queueing.mva.solves") + both(
        "queueing.mva.throughput_curves")
    td_runs = both("rl.td.runs")
    threads = t0["threads"]
    q = quality(t0)
    return {
        "core.policy_init.wall_s": span_med("core.policy_init", False),
        "core.policy_init.offline_samples": count(
            "setup", "core.policy_init.offline_samples"),
        "core.policy_init.train_busy_s": busy("setup",
                                              "core.policy_init.train_us"),
        "env.setup_evaluations": count("setup", "env.analytic.evaluations"),
        "env.setup_eval_busy_s": busy("setup", "env.analytic.evaluate_us"),
        "env.measure_p50_us": median(measure_us),
        "env.measure_p99_us": percentile(measure_us, 99),
        "env.measure_busy_s": span_med("env.measure", True) if single
        else busy("online", "env.analytic.evaluate_us"),
        "queueing.setup_recursion_steps": count(
            "setup", "queueing.mva.recursion_steps"),
        "queueing.online_recursion_steps": count(
            "online", "queueing.mva.recursion_steps"),
        "queueing.cache_hit_ratio": (both("queueing.mva.cache_hits") /
                                     mva_calls if mva_calls else 0.0),
        "tiersim.measure_busy_s": sim_busy,
        "tiersim.completed_requests": completed_requests,
        "tiersim.requests_per_busy_s": (completed_requests / sim_busy
                                        if sim_busy else 0.0),
        "core.rac.decide_p50_us": median(pooled("decide_us")),
        "core.rac.observe_p50_us": median(pooled("observe_us")),
        "core.rac.observe_p99_us": percentile(pooled("observe_us"), 99),
        "core.rac.reconfig_p50_ms": median(reconfig_us) / 1000.0,
        "core.rac.reconfig_p99_ms": percentile(reconfig_us, 99) / 1000.0,
        "core.rac.reconfig_samples": len(timings[0]["reconfig_us"]),
        "core.rac.retrain_busy_s": busy("online", "core.rac.retrain_us"),
        "core.rac.policy_switches": count("online",
                                          "core.rac.policy_switches"),
        "core.rac.policy_reseeds": count("online", "core.rac.policy_reseeds"),
        "core.rac.safe_fallbacks": count("online", "core.rac.safe_fallbacks"),
        "core.rac.settle_intervals": q["settle_intervals"] or 0.0,
        "core.rac.mean_response_ms": q["mean_response_ms"],
        "rl.setup_td_backups": count("setup", "rl.td.backups"),
        "rl.online_td_backups": count("online", "rl.td.backups"),
        "rl.td_converged_ratio": (both("rl.td.converged") / td_runs
                                  if td_runs else 0.0),
        "rl.setup_train_busy_s": busy("setup", "rl.td.batch_train_us"),
        "rl.online_train_busy_s": busy("online", "rl.td.batch_train_us"),
        "core.runner.overhead_busy_s": span_med("core.runner.overhead", True),
        "core.checkpoint.serialize_busy_s": span_med(
            "core.checkpoint.serialize", False),
        "core.checkpoint.write_busy_s": busy("online",
                                             "core.checkpoint.write_us"),
        "core.checkpoint.bytes": count("online", "core.checkpoint.bytes"),
        "fault.drops": count("online", "core.fault.drops"),
        "fault.spikes": count("online", "core.fault.spikes"),
        "fault.freezes": count("online", "core.fault.freezes"),
        "fault.reconfig_failures": count("online",
                                         "core.fault.reconfig_failures"),
        "fault.measure_retries": count("online", "core.fault.measure_retries"),
        "fault.missing_intervals": count("online",
                                         "core.fault.missing_intervals"),
        "fault.failed_interval_frac": q["lost"] / q["intervals"],
        "fleet.build_s": med(lambda r: r["fleet"]["build_s"]),
        "fleet.step_p50_ms": median(steps),
        "fleet.retrain_step_ms": median(retrain_steps),
        "fleet.bytes_per_tenant": med(lambda r: r["fleet"]["bytes_per_tenant"]),
        "util.pool.setup_utilization": med(
            lambda r: r["setup_cpu_s"] / (r["setup_s"] * threads)),
        "util.pool.online_utilization": med(
            lambda r: r["online_cpu_s"] / (r["online_s"] * threads)),
        "process.setup_rss_mb": med(lambda r: r["setup_rss_mb"]),
        # Both modes take the same clock readings; what tracing adds in the
        # loop is recording the spans, timed directly by the driver. (On a
        # shared host, comparing traced with untraced processes resolves
        # nothing finer than the +-10% drift between them.)
        "obs.trace_overhead_pct": med(
            lambda r: 100.0 * r["span_recording_s"] /
            sum(e["loop_s"] for e in r["episodes"])),
    }


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check_results(workload, results):
    """Correctness checks over every process of one measurement (all share
    a seed). Returns the list of failures; empty means correct."""
    failures = []
    for i, r in enumerate(results):
        tag = f"{workload} process {i}"
        if not r["episodes"]:
            failures.append(f"{tag}: no episodes ran")
        for k, e in enumerate(r["episodes"]):
            if e["completed"] != e["requested"] or e["completed"] < 1:
                failures.append(f"{tag} episode {k}: completed "
                                f"{e['completed']} of {e['requested']} "
                                "intervals")
            if not e["outputs_valid"]:
                failures.append(f"{tag} episode {k}: a delivered response "
                                "is not finite and > 0")
            if workload == "des-faults" and \
                    e["checkpoint_completed"] != e["requested"]:
                failures.append(f"{tag} episode {k}: last checkpoint holds "
                                f"{e['checkpoint_completed']} intervals, "
                                f"expected {e['requested']}")
        if r["library_size"] != r["contexts_trained"]:
            failures.append(f"{tag}: library has {r['library_size']} "
                            f"policies for {r['contexts_trained']} contexts")
        if "spans" in r:
            failures += [f"{tag}: {p}" for p in check_spans(workload, r)]
    for r in results[1:]:
        if digest(r) != digest(results[0]):
            failures.append(f"{workload}: decision digest differs between "
                            "processes of one seed (traced "
                            f"{results[0]['traced']} vs {r['traced']})")
        if quality(r) != quality(results[0]):
            failures.append(f"{workload}: quality differs between processes "
                            "of one seed")
    return failures


def check_spans(workload, result):
    if result["spans_overflowed"]:
        return ["span log overflowed"]
    stats, problems = span_stats(result["spans"])
    if workload in SINGLE_AGENT:
        loop_ns = sum(e["loop_s"] for e in result["episodes"]) * 1e9
        covered = sum(s[1] for s in stats if s[0] == "interval")
        if covered / loop_ns < SPAN_COVERAGE_FLOOR:
            problems.append(f"interval spans cover {covered / loop_ns:.4f} "
                            f"of the online loop, below "
                            f"{SPAN_COVERAGE_FLOOR}")
    return problems


# ---------------------------------------------------------------------------
# BENCHMARK.json and run records
# ---------------------------------------------------------------------------

def metric_specs(spec, kind):
    return {m["name"]: m for m in spec[kind]}


def run_record(workload, seed, everything):
    """One measured run (its processes are all traced or all untraced), as
    stored in a run set and printed by the CLI."""
    traced = everything[0]["traced"]
    failures = check_results(workload, everything)
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "processes": len(everything),
        "digest": hashlib.sha256(
            digest(everything[0]).encode()).hexdigest()[:16],
        "quality": quality(everything[0]),
        "attempted": sum(e["requested"] for r in everything
                         for e in r["episodes"]),
        # Intervals that did not complete, plus every interval of an
        # episode whose delivered responses were not all finite and > 0.
        "failed": sum(e["requested"] if not e["outputs_valid"]
                      else e["requested"] - e["completed"]
                      for r in everything for e in r["episodes"]),
        "correct": not failures,
        "failures": failures,
        "build": everything[0]["build"],
        "threads": everything[0]["threads"],
    }
    if traced:
        record["per_layer"] = per_layer(workload, everything)
    else:
        record["metrics"] = end_to_end(everything)
    return record


def validate_record(record, spec):
    """Schema problems of one run record against BENCHMARK.json."""
    kind = "per_layer" if record.get("traced") else "end_to_end"
    key = "per_layer" if record.get("traced") else "metrics"
    expected = set(metric_specs(spec, kind))
    got = record.get(key, {})
    problems = []
    missing = sorted(expected - set(got))
    extra = sorted(set(got) - expected)
    if missing:
        problems.append(f"{record.get('workload')}: missing {kind} metrics "
                        f"{missing}")
    if extra:
        problems.append(f"{record.get('workload')}: unknown {kind} metrics "
                        f"{extra}")
    for name, value in got.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{record.get('workload')}: {name} is not a "
                            "finite number")
    if record.get("workload") not in [w["name"] for w in spec["workloads"]]:
        problems.append(f"unknown workload {record.get('workload')}")
    if not record.get("correct"):
        problems += record.get("failures") or [
            f"{record.get('workload')}: marked incorrect"]
    return problems


def validate_runs(runs, spec):
    problems = []
    for record in runs:
        problems += validate_record(record, spec)
    digests = {}
    for record in runs:
        key = (record.get("workload"), record.get("seed"))
        first = digests.setdefault(key, record)
        if record.get("digest") != first.get("digest"):
            problems.append(f"{key[0]} seed {key[1]}: decision digest "
                            "differs between runs")
        elif record.get("quality") != first.get("quality"):
            problems.append(f"{key[0]} seed {key[1]}: quality metrics "
                            "differ between runs")
    return problems


def load_runs(path):
    data = json.loads(Path(path).read_text())
    if "runs" in data:
        return data["runs"]
    if "workload" in data:
        return [data]
    raise BenchError(f"{path}: neither a run set nor a run record")


def host_fingerprint(records):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build = records[0]["build"] if records else {}
    return {
        "nproc": os.cpu_count(),
        "pool_threads": pool_threads(),
        "cpu": cpu,
        "compiler": build.get("compiler", ""),
        "build_type": build.get("build_type", ""),
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def fmt(value):
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"


def print_record(record, spec):
    kind = "per_layer" if record["traced"] else "end_to_end"
    values = record["per_layer" if record["traced"] else "metrics"]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    for name, value in values.items():
        print(f"{record['workload']:<13} {name:<36} {fmt(value):>14} "
              f"{units.get(name, '')}")
    for failure in record["failures"]:
        print(f"{record['workload']:<13} CHECK FAILED: {failure}")


def cmd_measure(args, spec):
    """One workload in the format the benchmark contract asks for."""
    workload, trace = args.workload, args.trace == 1
    binary = build()
    record = run_record(workload, args.seed,
                        measure(binary, workload, args.seed, args.seconds,
                                trace))
    print_record(record, spec)
    metrics = record["per_layer" if trace else "metrics"]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    problems = validate_record(record, spec)
    print(json.dumps({
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }))
    return 0 if not problems else 1


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def cmd_all(args, spec):
    """Every workload, one run each: the default command."""
    binary = build()
    problems = []
    for workload in workload_names(spec):
        record = run_record(workload, args.seed,
                            measure(binary, workload, args.seed,
                                    args.seconds, args.trace == 1))
        print_record(record, spec)
        problems += validate_record(record, spec)
    print("checks:", "PASS" if not problems else "FAIL")
    for p in problems:
        print("  " + p)
    return 0 if not problems else 1


def cmd_sample(args, spec):
    """A run set: `runs` untraced runs per workload (seeds 1..runs, the
    workloads interleaved) plus one traced run per workload."""
    binary = build()
    records = []
    for seed in range(1, args.runs + 1):
        for workload in workload_names(spec):
            records.append(run_record(
                workload, seed,
                measure(binary, workload, seed, args.seconds, False)))
            print(f"run {seed}/{args.runs} {workload}", file=sys.stderr)
    for workload in workload_names(spec):
        records.append(run_record(
            workload, 1, measure(binary, workload, 1, args.seconds, True)))
    out = {"schema": "rac-e2e-runs v1", "host": host_fingerprint(records),
           "recorded": time.strftime("%Y-%m-%d"),
           "run_seconds": args.seconds,
           "summary": summarize(records, spec), "runs": records}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    problems = validate_runs(records, spec)
    for p in problems:
        print("CHECK FAILED:", p)
    return 0 if not problems else 1


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records, spec):
    """Median and quartiles of every end-to-end metric per workload, and
    the traced run's per-layer metrics."""
    out = {}
    for workload in workload_names(spec):
        rows = [r for r in records if r["workload"] == workload]
        e2e = {}
        for name in metric_specs(spec, "end_to_end"):
            values = [r["metrics"][name] for r in rows if not r["traced"]]
            if values:
                q1, q2, q3 = quartiles(values)
                e2e[name] = {"median": q2, "q1": q1, "q3": q3,
                             "runs": len(values)}
        traced = [r for r in rows if r["traced"]]
        out[workload] = {"end_to_end": e2e,
                         "per_layer": traced[0]["per_layer"] if traced else {}}
    return out


def verdict(a_values, b_values, better, bound):
    """better / worse / unchanged / unresolved for one metric, following the
    choosing-metrics rules: worse beyond the bound fails; a spread wider than
    the bound is unresolved unless every B run beats every A run; a gain
    needs B to win 9 of 10 index-paired runs by more than A's spread."""
    sign = 1.0 if better == "higher" else -1.0
    _, a_med, _ = quartiles(a_values)
    _, b_med, _ = quartiles(b_values)
    q1, _, q3 = quartiles(a_values)
    scale = abs(a_med) if a_med else 1.0
    gain = sign * (b_med - a_med) / scale
    spread = (q3 - q1) / scale
    all_better = all(sign * (b - a) > 0 for a in a_values for b in b_values)
    pairs = list(zip(a_values, b_values))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if -gain > bound:
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    return "unchanged"


def cmd_compare(args, spec):
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    worse = []
    spread = lambda q: f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"
    print(f"{'workload':<13} {'metric':<16} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'B/A':>7}  verdict")
    for workload in workload_names(spec):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name] for r in a_runs
                 if r["workload"] == workload and not r["traced"]
                 and name in r.get("metrics", {})]
            b = [r["metrics"][name] for r in b_runs
                 if r["workload"] == workload and not r["traced"]
                 and name in r.get("metrics", {})]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            v = verdict(a, b, m["better"], m["bound"])
            if v == "worse":
                worse.append(f"{workload} {name}")
            print(f"{workload:<13} {name:<16} {spread(qa):>36} "
                  f"{spread(qb):>36} {ratio:7.3f}  {v}")
    print()
    print(f"{'workload':<13} {'per-layer metric':<36} {'A':>14} {'B':>14} "
          f"{'B/A':>8}")
    for workload in workload_names(spec):
        a = next((r["per_layer"] for r in a_runs
                  if r["workload"] == workload and r["traced"]), None)
        b = next((r["per_layer"] for r in b_runs
                  if r["workload"] == workload and r["traced"]), None)
        if a is None or b is None:
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            va, vb = a.get(name, 0.0), b.get(name, 0.0)
            ratio = f"{vb / va:8.3f}" if va else f"{'-':>8}"
            print(f"{workload:<13} {name:<36} {fmt(va):>14} {fmt(vb):>14} "
                  f"{ratio}")
    if worse:
        print("\nworse beyond the bound:", ", ".join(worse))
        return 1
    return 0


def cmd_check(args, spec):
    problems = validate_runs(load_runs(args.file), spec)
    for p in problems:
        print("CHECK FAILED:", p)
    print("check:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


def cmd_selftest(args, spec):
    """Smoke-scale pass: every workload twice untraced and once traced, all
    correctness checks, then proof that `check` rejects tampered results."""
    start = time.monotonic()
    binary = build()
    records = []
    for workload in workload_names(spec):
        for trace, processes in ((False, 2), (True, 1)):
            records.append(run_record(
                workload, 1, measure(binary, workload, 1, 0, trace,
                                     smoke=True, min_processes=processes)))
    failures = []
    problems = validate_runs(records, spec)
    if problems:
        failures += ["clean results rejected: " + p for p in problems]
    flipped = copy.deepcopy(records)
    last = flipped[0]["digest"][-1]
    flipped[0]["digest"] = flipped[0]["digest"][:-1] + ("0" if last != "0"
                                                        else "1")
    if not validate_runs(flipped, spec):
        failures.append("a flipped decision digest passed check")
    dropped = copy.deepcopy(records)
    dropped[0]["metrics"].pop(next(iter(dropped[0]["metrics"])))
    if not validate_runs(dropped, spec):
        failures.append("a result missing a metric passed check")
    elapsed = time.monotonic() - start
    for f in failures:
        print("SELFTEST FAILED:", f)
    print(f"selftest: {'PASS' if not failures else 'FAIL'} "
          f"({len(records)} records, {elapsed:.1f} s)")
    return 0 if not failures else 1


def main(argv):
    spec = json.loads(BENCHMARK.read_text())
    if argv and argv[0] in ("sample", "compare", "check", "selftest"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "sample":
            parser.add_argument("--runs", type=int, default=5)
            parser.add_argument("--seconds", type=float,
                                default=spec["run_seconds"])
            parser.add_argument("--out", required=True)
        elif argv[0] == "compare":
            parser.add_argument("a")
            parser.add_argument("b")
        elif argv[0] == "check":
            parser.add_argument("file")
        args = parser.parse_args(argv[1:])
        return {"sample": cmd_sample, "compare": cmd_compare,
                "check": cmd_check, "selftest": cmd_selftest}[argv[0]](
                    args, spec)
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return cmd_measure(args, spec)
    return cmd_all(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
