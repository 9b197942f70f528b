#!/usr/bin/env python3
"""Build esg-bench from this checkout and run one workload for a fixed time.

    python3 benchmark/run.py --workload W --seed N --seconds T --trace 0|1

Configures and builds benchmark/ in Release (the first run in a checkout
compiles the repository's libraries), then runs

    esg-bench --workload W --seed N --seconds T --json [--trace]

and checks that the metrics in its closing JSON line are exactly the ones
BENCHMARK.json lists: the end-to-end metrics, or with --trace 1 the
per-layer ones.  Build output goes to stderr; stdout ends with the JSON.
Traces land in benchmark/out/.  The exit code is non-zero when the build,
a correctness check or the metric check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "esg-bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "esg-bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", "--out", OUT]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        return proc.returncode or 1

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        print(f"run.py: metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
