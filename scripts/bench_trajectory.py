#!/usr/bin/env python3
"""Bench-report aggregation and perf-trajectory regression gating.

Dependency-free (stdlib only). Drives the declared bench suite with
RAC_BENCH_REPORT set, aggregates the per-bench `rac-bench-report v1` JSON
files into one trajectory entry, and maintains the checked-in
BENCH_trajectory.json (schema `rac-bench-trajectory v1`, one entry per
PR/baseline refresh).

Subcommands:
  sweep    run the suite, collect reports + exit codes into --reports DIR
  collect  print the trajectory entry aggregated from --reports DIR
  append   append that entry to the trajectory file (the baseline refresh)
  report   render the trajectory as a table (one row per entry)
  diff     compare two entries layer by layer (default: the last two):
           per bench, wall_ms, trace_digest and every phase's inclusive
           us on both sides with the head/base ratio
  check    sweep (quick) into a temp dir and gate against the last
           matching baseline entry; used by the `bench_regression_check`
           ctest

Gating rules (check):
  * a bench missing its report, or whose exit code regressed 0 -> nonzero
    relative to the baseline, always fails;
  * a decision-trace digest mismatch always fails -- the digest only moves
    when the benches' decisions changed, which a perf PR must not do
    silently (refresh the baseline with `append` when the change is
    intentional);
  * per-phase wall time is gated at +25% over baseline for phases costing
    >= 100 ms in the baseline, with up to 2 re-runs taking the minimum
    (noise robustness); phases absent from either side are skipped;
  * total wall_ms is recorded but not gated (too noisy across hosts and
    cache states) -- EXCEPT where the baseline entry carries a
    `speedup_floor` claim: `append --claim-speedup BENCH:RATIO` records
    the previous baseline's wall as the reference, and `check` then fails
    if the bench's current wall ever drops below RATIO x faster than that
    reference (re-runs taking the minimum, same noise policy as phases);
  * wall gates are skipped entirely when the host fingerprint (nproc,
    build type, compiler) differs from the baseline's.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SCHEMA_REPORT = "rac-bench-report v1"
SCHEMA_TRAJECTORY = "rac-bench-trajectory v1"

# The gated suite. Order is run order; every name is a binary in
# <build-dir>/bench/.
SUITE = [
    "bench_fig5_policy_comparison",
    "bench_fig6_online_learning",
    "bench_micro",
    "bench_parallel_init",
    "bench_fault_robustness",
    "bench_fleet_scale",
    "bench_dynamic_traffic",
]

PHASE_GATE_RATIO = 1.25      # fail a gated phase at +25% over baseline
PHASE_GATE_FLOOR_US = 100_000.0  # only gate phases >= 100 ms in baseline
MAX_RERUNS = 2               # extra runs (min taken) before failing a phase


def log(msg):
    print(f"bench_trajectory: {msg}", flush=True)


def run_bench(build_dir, bench, reports_dir, quick, extra_env=None):
    """Run one bench with reporting on; returns its exit code."""
    exe = os.path.join(build_dir, "bench", bench)
    if not os.path.exists(exe):
        log(f"MISSING binary {exe}")
        return 127
    env = dict(os.environ)
    env["RAC_BENCH_REPORT"] = reports_dir
    if quick:
        env["RAC_BENCH_QUICK"] = "1"
    else:
        env.pop("RAC_BENCH_QUICK", None)
    if extra_env:
        env.update(extra_env)
    log_path = os.path.join(reports_dir, bench + ".log")
    with open(log_path, "w") as log_file:
        proc = subprocess.run(
            [exe], stdout=log_file, stderr=subprocess.STDOUT, env=env
        )
    return proc.returncode


def sweep(build_dir, reports_dir, quick, benches=None):
    """Run the suite; write exit codes to <reports>/sweep.json."""
    os.makedirs(reports_dir, exist_ok=True)
    exit_codes = {}
    for bench in benches or SUITE:
        log(f"running {bench} (quick={quick}) ...")
        exit_codes[bench] = run_bench(build_dir, bench, reports_dir, quick)
        log(f"  -> exit {exit_codes[bench]}")
    with open(os.path.join(reports_dir, "sweep.json"), "w") as out:
        json.dump({"quick": quick, "exit_codes": exit_codes}, out, indent=1)
    return exit_codes


def flatten_phases(node, prefix="", out=None):
    """'a/b' -> inclusive_us for every phase under the synthetic root."""
    if out is None:
        out = {}
    for child in node.get("children", []):
        path = f"{prefix}/{child['name']}" if prefix else child["name"]
        out[path] = child.get("inclusive_us", 0.0)
        flatten_phases(child, path, out)
    return out


def load_report(reports_dir, bench):
    path = os.path.join(reports_dir, bench + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != SCHEMA_REPORT:
        raise SystemExit(
            f"bench_trajectory: {path}: unsupported schema "
            f"{report.get('schema')!r} (want {SCHEMA_REPORT!r})"
        )
    return report


def collect(reports_dir):
    """Aggregate one sweep's reports into a trajectory entry."""
    sweep_path = os.path.join(reports_dir, "sweep.json")
    exit_codes = {}
    quick = None
    if os.path.exists(sweep_path):
        with open(sweep_path) as f:
            sweep_info = json.load(f)
        exit_codes = sweep_info.get("exit_codes", {})
        quick = sweep_info.get("quick")

    entry = {"git_sha": "unknown", "quick": quick, "host": {}, "benches": {}}
    for bench in SUITE:
        report = load_report(reports_dir, bench)
        record = {"exit_code": exit_codes.get(bench)}
        if report is not None:
            entry["git_sha"] = report.get("git_sha", entry["git_sha"])
            if quick is None:
                entry["quick"] = report.get("quick", False)
            host = report.get("host", {})
            entry["host"] = {
                "nproc": host.get("nproc"),
                "build_type": host.get("build_type"),
                "compiler": host.get("compiler"),
            }
            record.update(
                {
                    "run_id": report.get("run_id"),
                    "wall_ms": report.get("wall_ms"),
                    "trace_digest": report.get("trace_digest"),
                    "peak_rss_bytes": report.get("process", {}).get(
                        "peak_rss_bytes"
                    ),
                    "phases": flatten_phases(report.get("phases", {})),
                }
            )
        entry["benches"][bench] = record
    return entry


def load_trajectory(path):
    if not os.path.exists(path):
        return {"schema": SCHEMA_TRAJECTORY, "entries": []}
    with open(path) as f:
        trajectory = json.load(f)
    if trajectory.get("schema") != SCHEMA_TRAJECTORY:
        raise SystemExit(
            f"bench_trajectory: {path}: unsupported schema "
            f"{trajectory.get('schema')!r}"
        )
    return trajectory


def parse_speedup_claims(claims):
    """['bench:2.0', ...] -> {bench: ratio}; exits on malformed input."""
    parsed = {}
    for claim in claims or []:
        bench, sep, ratio = claim.partition(":")
        if not sep or bench not in SUITE:
            raise SystemExit(
                f"bench_trajectory: bad --claim-speedup {claim!r} "
                f"(want BENCH:RATIO with BENCH in {SUITE})"
            )
        try:
            parsed[bench] = float(ratio)
        except ValueError:
            raise SystemExit(
                f"bench_trajectory: bad ratio in --claim-speedup {claim!r}"
            )
        if parsed[bench] <= 1.0:
            raise SystemExit(
                f"bench_trajectory: --claim-speedup ratio must be > 1 "
                f"({claim!r})"
            )
    return parsed


def append(reports_dir, trajectory_path, label, claims=None):
    entry = collect(reports_dir)
    if label:
        entry["label"] = label
    trajectory = load_trajectory(trajectory_path)
    claims = parse_speedup_claims(claims)
    if claims:
        reference = find_baseline(trajectory, entry.get("quick"))
        if reference is None:
            raise SystemExit(
                "bench_trajectory: --claim-speedup needs a prior entry in "
                "the same mode to measure against"
            )
        floors = {}
        for bench, ratio in claims.items():
            ref_wall = (
                reference.get("benches", {}).get(bench, {}).get("wall_ms")
            )
            cur_wall = entry["benches"].get(bench, {}).get("wall_ms")
            if ref_wall is None or cur_wall is None:
                raise SystemExit(
                    f"bench_trajectory: --claim-speedup {bench}: wall_ms "
                    "missing from the reference or current entry"
                )
            achieved = ref_wall / cur_wall
            if achieved < ratio:
                raise SystemExit(
                    f"bench_trajectory: --claim-speedup {bench}: measured "
                    f"{achieved:.2f}x, below the claimed {ratio:.2f}x -- "
                    "refusing to record an unmet claim"
                )
            floors[bench] = {
                "min_ratio": ratio,
                "reference_wall_ms": ref_wall,
                "reference_git_sha": reference.get("git_sha", "unknown"),
            }
            log(
                f"speedup claim {bench}: {achieved:.2f}x measured vs "
                f"{ratio:.2f}x floor (reference "
                f"{floors[bench]['reference_git_sha'][:12]})"
            )
        entry["speedup_floor"] = floors
    trajectory["entries"].append(entry)
    tmp = trajectory_path + ".tmp"
    with open(tmp, "w") as out:
        json.dump(trajectory, out, indent=1)
        out.write("\n")
    os.replace(tmp, trajectory_path)
    log(
        f"appended entry {len(trajectory['entries'])} "
        f"({entry['git_sha'][:12]}, quick={entry['quick']}) "
        f"to {trajectory_path}"
    )


def report(trajectory_path, last):
    trajectory = load_trajectory(trajectory_path)
    entries = trajectory["entries"][-last:] if last else trajectory["entries"]
    if not entries:
        print("trajectory is empty")
        return
    header = ["#", "git_sha", "quick", "label"] + [
        b.replace("bench_", "") for b in SUITE
    ]
    rows = [header]
    base = len(trajectory["entries"]) - len(entries)
    for i, entry in enumerate(entries):
        row = [
            str(base + i + 1),
            str(entry.get("git_sha", "?"))[:12],
            str(entry.get("quick")),
            str(entry.get("label", ""))[:24],
        ]
        for bench in SUITE:
            record = entry.get("benches", {}).get(bench, {})
            wall = record.get("wall_ms")
            code = record.get("exit_code")
            cell = "-" if wall is None else f"{wall / 1000.0:.1f}s"
            if code not in (0, None):
                cell += f"!e{code}"
            row.append(cell)
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))


def pick_entry(entries, number, default, role):
    """The 1-based entry `number` (as `report` numbers them), or `default`
    from the end when None."""
    index = len(entries) - default if number is None else number - 1
    if not 0 <= index < len(entries):
        raise SystemExit(
            f"bench_trajectory: no entry #{index + 1} for --{role} "
            f"(the trajectory has {len(entries)})"
        )
    return index


def diff(trajectory_path, base_number, head_number):
    """Per bench: wall_ms, trace_digest and each phase's inclusive us in
    the base and head entries, with head/base. A side without the value
    shows `-`."""
    entries = load_trajectory(trajectory_path)["entries"]
    base_i = pick_entry(entries, base_number, 2, "base")
    head_i = pick_entry(entries, head_number, 1, "head")
    base, head = entries[base_i], entries[head_i]

    def describe(i, entry):
        label = entry.get("label", "")
        return f"#{i + 1} {str(entry.get('git_sha', '?'))[:12]} {label}"

    print(f"base {describe(base_i, base)}")
    print(f"head {describe(head_i, head)}")

    def cell(value):
        return "-" if value is None else f"{value:.1f}"

    def ratio(b, h):
        return "-" if b is None or h is None or b <= 0 else f"{h / b:.2f}x"

    benches = list(head.get("benches", {}))
    benches += [b for b in base.get("benches", {}) if b not in benches]
    for bench in benches:
        b_rec = base.get("benches", {}).get(bench, {})
        h_rec = head.get("benches", {}).get(bench, {})
        b_dig, h_dig = b_rec.get("trace_digest"), h_rec.get("trace_digest")
        rows = [("metric / phase (inclusive us)", "base", "head", "head/base"),
                ("trace_digest", b_dig or "-", h_dig or "-",
                 "same" if b_dig == h_dig else "DIFFERS")]
        values = [("wall_ms", b_rec.get("wall_ms"), h_rec.get("wall_ms"))]
        b_ph, h_ph = b_rec.get("phases", {}), h_rec.get("phases", {})
        for path in sorted(set(b_ph) | set(h_ph), key=lambda p: p.split("/")):
            name = "  " * (path.count("/") + 1) + path.rsplit("/", 1)[-1]
            values.append((name, b_ph.get(path), h_ph.get(path)))
        rows += [(name, cell(b), cell(h), ratio(b, h)) for name, b, h in values]
        print(f"\n== {bench}")
        widths = [max(len(r[c]) for r in rows) for c in range(4)]
        for r in rows:
            print("  ".join([r[0].ljust(widths[0])] +
                            [r[c].rjust(widths[c]) for c in range(1, 4)]))


def find_baseline(trajectory, quick):
    """Last entry recorded in the same mode; None when there is none."""
    for entry in reversed(trajectory["entries"]):
        if bool(entry.get("quick")) == bool(quick):
            return entry
    return None


def gated_phase_regressions(base_record, cur_record):
    """Phase paths over the +25% gate (baseline >= floor, present in both)."""
    over = []
    base_phases = base_record.get("phases") or {}
    cur_phases = cur_record.get("phases") or {}
    for path, base_us in base_phases.items():
        if base_us < PHASE_GATE_FLOOR_US or path not in cur_phases:
            continue
        if cur_phases[path] > base_us * PHASE_GATE_RATIO:
            over.append((path, base_us, cur_phases[path]))
    return over


def check(build_dir, trajectory_path, quick, keep_reports):
    trajectory = load_trajectory(trajectory_path)
    baseline = find_baseline(trajectory, quick)
    if baseline is None:
        log(
            f"no baseline entry (quick={quick}) in {trajectory_path}; "
            "nothing to gate -- PASS (bootstrap with "
            "`bench_trajectory.py sweep` + `append`)"
        )
        return 0

    tmp_dir = tempfile.mkdtemp(prefix="rac-bench-check-")
    sweep(build_dir, tmp_dir, quick)
    current = collect(tmp_dir)

    host_matches = current["host"] == baseline.get("host")
    if not host_matches:
        log(
            f"host fingerprint differs (baseline {baseline.get('host')}, "
            f"current {current['host']}); wall gates skipped"
        )

    failures = []
    for bench in SUITE:
        base_record = baseline.get("benches", {}).get(bench)
        cur_record = current["benches"].get(bench, {})
        if base_record is None:
            log(f"{bench}: not in baseline; skipped")
            continue

        base_code = base_record.get("exit_code")
        cur_code = cur_record.get("exit_code")
        if cur_record.get("run_id") is None:
            failures.append(f"{bench}: no report produced (exit {cur_code})")
            continue
        if base_code == 0 and cur_code != 0:
            failures.append(
                f"{bench}: exit code regressed 0 -> {cur_code} (see "
                f"{os.path.join(tmp_dir, bench + '.log')})"
            )
            continue

        base_digest = base_record.get("trace_digest")
        cur_digest = cur_record.get("trace_digest")
        if base_digest and cur_digest != base_digest:
            failures.append(
                f"{bench}: decision-trace digest diverged "
                f"({base_digest} -> {cur_digest}); the agents decided "
                "differently -- refresh the baseline only if intentional"
            )
            continue

        if not host_matches:
            continue
        over = gated_phase_regressions(base_record, cur_record)
        reruns = 0
        while over and reruns < MAX_RERUNS:
            reruns += 1
            log(
                f"{bench}: {len(over)} phase(s) over the wall gate; "
                f"re-run {reruns}/{MAX_RERUNS} to rule out noise"
            )
            run_bench(build_dir, bench, tmp_dir, quick)
            rerun = collect(tmp_dir)["benches"][bench]
            merged_phases = dict(cur_record.get("phases") or {})
            for path, us in (rerun.get("phases") or {}).items():
                if path in merged_phases:
                    merged_phases[path] = min(merged_phases[path], us)
                else:
                    merged_phases[path] = us
            cur_record = dict(rerun)
            cur_record["phases"] = merged_phases
            over = gated_phase_regressions(base_record, cur_record)
        for path, base_us, cur_us in over:
            failures.append(
                f"{bench}: phase {path} regressed "
                f"{base_us / 1000.0:.1f} ms -> {cur_us / 1000.0:.1f} ms "
                f"(gate +{(PHASE_GATE_RATIO - 1.0) * 100.0:.0f}%)"
            )

        floor = (baseline.get("speedup_floor") or {}).get(bench)
        if floor:
            ref_wall = floor["reference_wall_ms"]
            ratio = floor["min_ratio"]
            budget = ref_wall / ratio
            cur_wall = cur_record.get("wall_ms")
            reruns = 0
            while (
                cur_wall is None or cur_wall > budget
            ) and reruns < MAX_RERUNS:
                reruns += 1
                log(
                    f"{bench}: wall {cur_wall} ms over the "
                    f"{ratio:.2f}x speedup floor ({budget:.1f} ms); "
                    f"re-run {reruns}/{MAX_RERUNS} to rule out noise"
                )
                run_bench(build_dir, bench, tmp_dir, quick)
                rerun_wall = (
                    collect(tmp_dir)["benches"][bench].get("wall_ms")
                )
                if rerun_wall is not None:
                    cur_wall = (
                        rerun_wall
                        if cur_wall is None
                        else min(cur_wall, rerun_wall)
                    )
            if cur_wall is None or cur_wall > budget:
                failures.append(
                    f"{bench}: speedup claim regressed -- wall "
                    f"{cur_wall} ms exceeds {budget:.1f} ms "
                    f"(claimed >= {ratio:.2f}x vs reference "
                    f"{ref_wall:.1f} ms @ "
                    f"{floor.get('reference_git_sha', '?')[:12]})"
                )
        log(f"{bench}: OK (digest {cur_digest}, exit {cur_code})")

    if failures:
        for failure in failures:
            log(f"FAIL: {failure}")
        log(f"reports kept at {tmp_dir}")
        return 1
    log(f"all {len(SUITE)} benches within gates vs baseline "
        f"{baseline.get('git_sha', '?')[:12]}")
    if not keep_reports:
        for name in os.listdir(tmp_dir):
            os.unlink(os.path.join(tmp_dir, name))
        os.rmdir(tmp_dir)
    else:
        log(f"reports kept at {tmp_dir}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the suite with reporting on")
    p_sweep.add_argument("--build-dir", required=True)
    p_sweep.add_argument("--reports", required=True)
    p_sweep.add_argument("--quick", action="store_true")

    p_collect = sub.add_parser("collect", help="print the aggregated entry")
    p_collect.add_argument("--reports", required=True)

    p_append = sub.add_parser("append", help="append the entry (baseline)")
    p_append.add_argument("--reports", required=True)
    p_append.add_argument("--trajectory", required=True)
    p_append.add_argument("--label", default="")
    p_append.add_argument(
        "--claim-speedup", action="append", metavar="BENCH:RATIO",
        help="record a wall-clock speedup floor vs the previous entry in "
        "the same mode; `check` fails if the bench later falls below it",
    )

    p_report = sub.add_parser("report", help="render the trajectory")
    p_report.add_argument("--trajectory", required=True)
    p_report.add_argument("--last", type=int, default=0)

    p_diff = sub.add_parser("diff", help="compare two entries per layer")
    p_diff.add_argument("--trajectory", required=True)
    p_diff.add_argument("--base", type=int, metavar="I",
                        help="base entry, 1-based (default: second-last)")
    p_diff.add_argument("--head", type=int, metavar="J",
                        help="head entry, 1-based (default: last)")

    p_check = sub.add_parser("check", help="gate against the baseline")
    p_check.add_argument("--build-dir", required=True)
    p_check.add_argument("--trajectory", required=True)
    p_check.add_argument(
        "--full", action="store_true",
        help="gate the full-size suite instead of quick mode",
    )
    p_check.add_argument("--keep-reports", action="store_true")

    args = parser.parse_args()
    if args.command == "sweep":
        codes = sweep(args.build_dir, args.reports, args.quick)
        return 1 if any(c != 0 for c in codes.values()) else 0
    if args.command == "collect":
        print(json.dumps(collect(args.reports), indent=1))
        return 0
    if args.command == "append":
        append(args.reports, args.trajectory, args.label, args.claim_speedup)
        return 0
    if args.command == "report":
        report(args.trajectory, args.last)
        return 0
    if args.command == "diff":
        diff(args.trajectory, args.base, args.head)
        return 0
    if args.command == "check":
        return check(
            args.build_dir, args.trajectory, not args.full, args.keep_reports
        )
    return 2


if __name__ == "__main__":
    sys.exit(main())
