#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Builds the benchmark binary (see run.py) and checks, at reduced sizes:

  * determinism: each workload run twice on one seed prints identical
    virtual-time metrics (vt_*), write_amp, fail_share, per-layer counts
    and arrival digest, and no failures;
  * seeding: a second seed changes each workload's arrival trace;
  * names: the metrics printed on the last line equal BENCHMARK.json's
    end_to_end list (untraced) and per_layer list (traced), with the
    same units;
  * the command refuses to run, without printing a result, in a
    directory that holds only BENCHMARK.json and perfbench/.

Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

SEED = 1
OTHER_SEED = 2


def check(ok, message):
    if not ok:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def perfbench(workload, seed, trace):
    """Runs the binary at reduced size; returns (report lines, result)."""
    env = dict(os.environ, PERFBENCH_REVISION="selftest")
    return run.run_binary(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace),
                           "--small"], env)


def exact_part(report, result):
    """What must repeat exactly for one seed: the text report without
    provenance and host-clock lines, and the value of every metric that
    is not on the host clock."""
    host = {line.split()[0] for line in report if "[host clock]" in line}
    lines = [line for line in report
             if "[host clock]" not in line and
             not line.startswith(("provenance:", "measured_s_per_op="))]
    exact = {name: m["value"] for name, m in result["metrics"].items()
             if name not in host}
    return lines, exact, result["attempted"], result["failed"]


def digest(report):
    return next(line for line in report if line.startswith("arrival_digest="))


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the three workloads run.py runs")

    for workload in run.WORKLOADS:
        report_a, traced_a = perfbench(workload, SEED, 1)
        report_b, traced_b = perfbench(workload, SEED, 1)
        check(traced_a["failed"] == 0 and traced_a["correct"],
              workload + ": no failed or wrong ops")
        check(exact_part(report_a, traced_a) == exact_part(report_b, traced_b),
              workload + ": two runs of one seed repeat every virtual-time "
              "metric, count and arrival")
        got = {k: v["unit"] for k, v in traced_a["metrics"].items()}
        check(got == layer, workload + ": traced metrics equal per_layer")

        report_u, untraced = perfbench(workload, SEED, 0)
        got = {k: v["unit"] for k, v in untraced["metrics"].items()}
        check(got == e2e, workload + ": untraced metrics equal end_to_end")
        vt = [l for l in report_u if "[virtual clock]" in l]
        vt_traced = [l for l in report_a if "[virtual clock]" in l and
                     l.split()[0] in {v.split()[0] for v in vt}]
        check(vt == vt_traced, workload + ": traced and untraced runs agree "
              "on every vt_* metric")

        report_c, _ = perfbench(workload, OTHER_SEED, 0)
        check(digest(report_c) != digest(report_a),
              workload + ": a second seed changes the arrival trace")

    bare = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "olap_open",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        check(done.returncode != 0 and "{" not in done.stdout,
              "without the sources the command fails and prints no result")
    finally:
        shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
