#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/test_perfbench.py

Checks, at one seed: the generated request lists have identical digests
when generated twice (and differ at another seed); the counts of the serial
traced replay repeat exactly across two traced runs; and both known aborting
inputs are counted as lost requests followed by a server restart.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
SECONDS = 1
# Counts the serial replay must reproduce bit for bit.
EXACT = ("checkpoint.hits", "checkpoint.misses", "checkpoint.inserts",
         "checkpoint.resumed_states", "checkpoint.bytes", "memo.hits",
         "memo.misses", "memo.hit_rate", "estimator.states_per_estimate",
         "task_time.queries_per_estimate")


def client(out, *args):
    return subprocess.run([os.path.join(out, "perfbench"), *args],
                          capture_output=True, text=True, check=True).stdout


def traced(workload):
    result = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    out = run.build()
    failures = []
    for workload in run.WORKLOADS:
        args = ["digest", "--workload", workload, "--seconds", str(SECONDS), "--seed"]
        first = client(out, *args, str(SEED))
        again = client(out, *args, str(SEED))
        other = client(out, *args, str(SEED + 1))
        if first != again:
            failures.append(f"{workload}: digest differs at seed {SEED}")
        if first == other:
            failures.append(f"{workload}: seeds {SEED} and {SEED + 1} give one digest")
        a, b = traced(workload), traced(workload)
        for key in EXACT:
            if a["metrics"][key]["value"] != b["metrics"][key]["value"]:
                failures.append(f"{workload}: {key} {a['metrics'][key]['value']} != "
                                f"{b['metrics'][key]['value']}")
        if not (a["correct"] and b["correct"]):
            failures.append(f"{workload}: a traced answer differs from the reference")
        print(f"{workload}: digest {first.strip()}, traced counts repeat")
    run_dir = os.path.join(out, "runs")
    os.makedirs(run_dir, exist_ok=True)
    crash = subprocess.run([os.path.join(out, "perfbench"), "crash-check",
                            "--dagperf", os.path.join(out, "dagperf"), "--out", run_dir],
                           capture_output=True, text=True)
    print(crash.stdout, end="")
    if crash.returncode != 0:
        failures.append("crash-check: known aborting inputs not counted as lost + restart")
    for f in failures:
        print("FAIL", f)
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
