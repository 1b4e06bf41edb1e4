#!/usr/bin/env python3
"""Perf-regression harness: run the benches, emit a machine-readable report.

Measures two layers and writes them to one JSON document:

  * google-benchmark micro benches (micro_name, micro_cache, micro_wire,
    micro_resolution): per-benchmark real ns/op from --benchmark_out JSON;
  * end-to-end experiments (fig1_cache_blowup_cdf, table1_source_prefix_census,
    fig4_hidden_resolvers_mp, fig8_cname_flattening, micro_live, ...):
    wall-clock ms (from the run's --metrics-out export), heap allocation
    count (the run.allocations gauge fed by bench/alloc_hooks.cpp), and
    peak RSS in KiB (ru_maxrss via os.wait4).

Modes:
  bench_report.py --build-dir build --out BENCH_PR10.json     # measure
  bench_report.py --build-dir build --check [--baseline F]    # CI gate
  bench_report.py --compare OLD NEW                           # offline diff

--check re-measures and compares against the checked-in baseline
(BENCH_PR10.json by default) with deliberately generous thresholds — CI
machines are noisy, so the gate only catches step-function regressions
(2-3x), not percent-level drift. Allocation counts are near-deterministic,
so their threshold is tighter. See docs/perf.md for how to refresh the
baselines.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MICRO_BENCHES = ["micro_name", "micro_cache", "micro_wire", "micro_resolution",
                 "micro_timer"]
EXPERIMENTS = ["fig1_cache_blowup_cdf", "table1_source_prefix_census",
               "fig4_hidden_resolvers_mp", "fig8_cname_flattening",
               "fig_hitrate_vs_capacity", "micro_live", "scale_streaming"]

# Extra flags for experiments whose defaults target a bigger machine than a
# CI runner: the harness runs scale_streaming at a 100K-member fleet (the
# 1M-member run is the manually documented number in docs/perf.md).
# --sweep=1 times the thread-count matrix and exports the scale.sweep.*
# q/s-vs-cores gauges that land in the report's "sweep_qps" block.
EXPERIMENT_ARGS = {
    "scale_streaming": ["--resolvers=100000", "--duration-s=20", "--sweep=1"],
}

# --check thresholds: fresh measurement may not exceed baseline * factor.
WALL_FACTOR = 3.0       # wall time: very generous, CI boxes differ wildly
MICRO_FACTOR = 3.0      # ns/op of each micro benchmark
ALLOC_FACTOR = 1.5      # allocation counts barely vary between runs
# Ignore micro benchmarks faster than this: a 2 ns timer-bound loop can
# triple on scheduler noise alone without meaning anything.
MICRO_FLOOR_NS = 5.0

# Plain double, no unit suffix: the pinned google-benchmark rejects "0.1s".
MICRO_MIN_TIME = "0.1"


def run_with_rusage(cmd, cwd):
    """Run cmd, return (returncode, peak_rss_kb)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = status  # keep Popen bookkeeping consistent
    code = os.waitstatus_to_exitcode(status)
    return code, int(rusage.ru_maxrss)


def measure_experiment(bench_dir, name):
    binary = os.path.join(bench_dir, name)
    if not os.path.exists(binary):
        print(f"[bench_report] skip {name}: {binary} not built", file=sys.stderr)
        return None
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        metrics_path = tmp.name
    try:
        code, peak_rss_kb = run_with_rusage(
            [binary, f"--metrics-out={metrics_path}"]
            + EXPERIMENT_ARGS.get(name, []), cwd=bench_dir)
        if code != 0:
            print(f"[bench_report] {name} exited {code}", file=sys.stderr)
            return None
        with open(metrics_path) as f:
            metrics = json.load(f)
    finally:
        os.unlink(metrics_path)
    gauges = metrics.get("gauges", {})
    allocations = gauges.get("run.allocations", {}).get("value")
    result = {
        "wall_ms": round(float(metrics["wall_ms"]), 1),
        "allocations": allocations,
        "peak_rss_kb": peak_rss_kb,
    }
    # The q/s-vs-cores scaling curve (scale_streaming --sweep=1). Recorded,
    # not gated: absolute throughput moves with the runner, and the
    # multi-core speedup gate lives in the bench itself (--min-speedup-pct).
    sweep = {key: g.get("value") for key, g in gauges.items()
             if key.startswith("scale.sweep.")}
    if sweep:
        result["sweep_qps"] = sweep
    return result


def measure_micro(bench_dir, name):
    binary = os.path.join(bench_dir, name)
    if not os.path.exists(binary):
        print(f"[bench_report] skip {name}: {binary} not built", file=sys.stderr)
        return None
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        code = subprocess.call(
            [binary, f"--benchmark_out={out_path}",
             "--benchmark_out_format=json",
             f"--benchmark_min_time={MICRO_MIN_TIME}"],
            cwd=bench_dir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if code != 0:
            print(f"[bench_report] {name} exited {code}", file=sys.stderr)
            return None
        with open(out_path) as f:
            doc = json.load(f)
    finally:
        os.unlink(out_path)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue
        # google-benchmark reports in the unit it chose; normalize to ns.
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        out[bench["name"]] = {
            "real_ns": round(float(bench["real_time"]) * scale, 2),
        }
    return out


def measure(build_dir):
    bench_dir = os.path.join(os.path.abspath(build_dir), "bench")
    report = {
        "schema": "ecsdns.bench_report.v1",
        "benchmarks": {},
        "experiments": {},
    }
    for name in MICRO_BENCHES:
        result = measure_micro(bench_dir, name)
        if result is not None:
            report["benchmarks"][name] = result
    for name in EXPERIMENTS:
        result = measure_experiment(bench_dir, name)
        if result is not None:
            report["experiments"][name] = result
    return report


def merge_best(reports):
    """Fold N repeat runs into one report, keeping the best of each metric.

    Best-of-N filters scheduler noise: min for times and allocation counts
    (allocations are near-deterministic anyway), max for peak RSS (a high
    -water mark is only meaningful as an upper bound).
    """
    merged = reports[0]
    for other in reports[1:]:
        for suite, benches in other["benchmarks"].items():
            target = merged["benchmarks"].setdefault(suite, {})
            for bench, m in benches.items():
                if bench not in target or m["real_ns"] < target[bench]["real_ns"]:
                    target[bench] = m
        for exp, m in other["experiments"].items():
            base = merged["experiments"].setdefault(exp, m)
            base["wall_ms"] = min(base["wall_ms"], m["wall_ms"])
            if base.get("allocations") and m.get("allocations"):
                base["allocations"] = min(base["allocations"], m["allocations"])
            base["peak_rss_kb"] = max(base["peak_rss_kb"], m["peak_rss_kb"])
            if m.get("sweep_qps"):
                best = base.setdefault("sweep_qps", {})
                for cell, qps in m["sweep_qps"].items():
                    best[cell] = max(best.get(cell, 0), qps)
    return merged


def check(baseline, fresh):
    """Compare a fresh measurement against the baseline; return violations."""
    violations = []
    for exp, base in baseline.get("experiments", {}).items():
        now = fresh.get("experiments", {}).get(exp)
        if now is None:
            violations.append(f"{exp}: missing from fresh run")
            continue
        if now["wall_ms"] > base["wall_ms"] * WALL_FACTOR:
            violations.append(
                f"{exp}: wall_ms {now['wall_ms']} > {WALL_FACTOR}x baseline "
                f"{base['wall_ms']}")
        if (base.get("allocations") and now.get("allocations") and
                now["allocations"] > base["allocations"] * ALLOC_FACTOR):
            violations.append(
                f"{exp}: allocations {now['allocations']} > {ALLOC_FACTOR}x "
                f"baseline {base['allocations']}")
    for suite, benches in baseline.get("benchmarks", {}).items():
        fresh_suite = fresh.get("benchmarks", {}).get(suite)
        if fresh_suite is None:
            violations.append(f"{suite}: missing from fresh run")
            continue
        for bench, base in benches.items():
            now = fresh_suite.get(bench)
            if now is None:
                violations.append(f"{suite}/{bench}: missing from fresh run")
                continue
            if base["real_ns"] < MICRO_FLOOR_NS:
                continue
            if now["real_ns"] > base["real_ns"] * MICRO_FACTOR:
                violations.append(
                    f"{suite}/{bench}: {now['real_ns']} ns > {MICRO_FACTOR}x "
                    f"baseline {base['real_ns']} ns")
    return violations


def compare(old, new):
    """Human-readable old-vs-new summary (speedups > 1 mean new is faster)."""
    lines = []
    for exp in sorted(set(old.get("experiments", {})) |
                      set(new.get("experiments", {}))):
        a = old.get("experiments", {}).get(exp)
        b = new.get("experiments", {}).get(exp)
        if not a or not b:
            continue
        speedup = a["wall_ms"] / b["wall_ms"] if b["wall_ms"] else float("inf")
        lines.append(f"{exp}: wall {a['wall_ms']} -> {b['wall_ms']} ms "
                     f"({speedup:.2f}x)")
        if a.get("allocations") and b.get("allocations"):
            ratio = a["allocations"] / b["allocations"]
            lines.append(f"{exp}: allocations {a['allocations']} -> "
                         f"{b['allocations']} ({ratio:.2f}x fewer)")
        if a.get("peak_rss_kb") and b.get("peak_rss_kb"):
            lines.append(f"{exp}: peak RSS {a['peak_rss_kb']} -> "
                         f"{b['peak_rss_kb']} KiB")
        for cell in sorted(set(a.get("sweep_qps", {})) |
                           set(b.get("sweep_qps", {}))):
            qa = a.get("sweep_qps", {}).get(cell)
            qb = b.get("sweep_qps", {}).get(cell)
            if qa and qb:
                lines.append(f"{exp}: {cell} {qa} -> {qb} q/s "
                             f"({qb / qa:.2f}x)")
    for suite in sorted(set(old.get("benchmarks", {})) |
                        set(new.get("benchmarks", {}))):
        sa = old.get("benchmarks", {}).get(suite, {})
        sb = new.get("benchmarks", {}).get(suite, {})
        for bench in sorted(set(sa) | set(sb)):
            a, b = sa.get(bench), sb.get(bench)
            if not a or not b:
                continue
            speedup = a["real_ns"] / b["real_ns"] if b["real_ns"] else float("inf")
            lines.append(f"{suite}/{bench}: {a['real_ns']} -> {b['real_ns']} ns "
                         f"({speedup:.2f}x)")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    parser.add_argument("--out", help="write the measured report to this file")
    parser.add_argument("--check", action="store_true",
                        help="measure and gate against the baseline")
    parser.add_argument("--baseline",
                        default=os.path.join(REPO, "BENCH_PR10.json"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="measure N times and keep the best of each metric")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two report files and exit")
    args = parser.parse_args()

    if args.compare:
        with open(args.compare[0]) as f:
            old = json.load(f)
        with open(args.compare[1]) as f:
            new = json.load(f)
        print("\n".join(compare(old, new)))
        return 0

    report = merge_best([measure(args.build_dir)
                         for _ in range(max(1, args.repeat))])
    if not report["benchmarks"] and not report["experiments"]:
        print("[bench_report] nothing measured — wrong --build-dir?",
              file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[bench_report] wrote {args.out}")

    if args.check:
        with open(args.baseline) as f:
            baseline = json.load(f)
        violations = check(baseline, report)
        if violations:
            print("[bench_report] PERF REGRESSION:")
            for v in violations:
                print(f"  {v}")
            return 1
        print(f"[bench_report] OK within thresholds of {args.baseline}")

    if not args.out and not args.check:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
