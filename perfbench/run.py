#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload olap_open --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The first call builds the simulator from
src/ together with the benchmark binary into .bench_build/ (RelWithDebInfo,
the repository's default build type); later calls reuse the build.

Each workload runs in its own process (the perfbench binary), on one
thread. `--workload all` runs the three workloads one after another.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list. A traced run first repeats the
untraced run of the same workload and seed, so obs.trace_overhead
compares the two, and writes the traced run's spans to
.bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("olap_open", "ingest_scan", "diff_fuzz")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the binary; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def revision():
    """The git revision, or a digest of the sources when not in git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  check=False)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_binary(args, env):
    """Runs perfbench once; returns (stdout lines, parsed last line)."""
    try:
        done = subprocess.run([BINARY] + args, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % done.returncode)
    return lines[:-1], json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, env):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    report, result = run_binary(common + ["--trace", "0"], env)
    if not trace:
        return report, result
    per_op = next((line.split("=", 1)[1] for line in report
                   if line.startswith("measured_s_per_op=")), None)
    if per_op is None:
        fail("untraced run did not report measured_s_per_op")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    out = os.path.join(traces, "%s-%d.json" % (workload, seed))
    return run_binary(common + ["--trace", "1", "--untraced-s-per-op",
                                per_op, "--trace-out", out], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        report, result = run_workload(workload, args.seed, args.seconds,
                                      args.trace == 1, env)
        print("\n".join(report), flush=True)
        results[workload] = result
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps(results))


if __name__ == "__main__":
    main()
