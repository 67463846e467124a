#!/usr/bin/env python3
"""Build dagperf and the benchmark client from source, then run one workload.

    python3 perfbench/run.py --workload recurring --seed 1 --seconds 10 --trace 0

The last line of standard output is the result JSON; build output and
diagnostics go to standard error. See perfbench/NOTES.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recurring", "capacity-sweep", "tuning-resweep")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds incrementally; returns the build dir."""
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                    "perfbench_dagperf"], check=True, stdout=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    run_dir = os.path.join(out, "runs")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dagperf", os.path.join(out, "dagperf"), "--out", run_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
