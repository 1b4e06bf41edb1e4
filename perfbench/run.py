#!/usr/bin/env python3
"""Build and run one workload of the ecsdns benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library from src/ and the
benchmark program into .bench_build/perfbench (Release), runs the workload
in its own process, and relays its output. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Traced runs also write their spans to
.bench_build/spans/. Exits non-zero, without a result line, when the
sources or the build are missing or broken.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ecsdns_perfbench")
SPANS_DIR = os.path.join(".bench_build", "spans")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def online_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here: run from the repository root")
    jobs = str(min(online_cpus(), 8))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed", 1)
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
               "ecsdns_perfbench"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed", 1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(line, traced):
    """Problems with the result line against BENCHMARK.json's metric list."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["unexpected result keys %s" % sorted(result)]
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        return ["metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet_replay", "bounded_sweep",
                                 "resolver_fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build()
    os.makedirs(SPANS_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-dir", SPANS_DIR, "--commit", source_id()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace == 1) if lines else ["no output"]
    if problems:
        print("\n".join(lines))
        fail("; ".join(problems), 1)
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
