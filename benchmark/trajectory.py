#!/usr/bin/env python3
"""Record one trajectory row: the medians of `esg-bench --repeat N` for
every workload, with the host's nproc, the compiler and the build type.

    python3 benchmark/trajectory.py NNNN [--repeat 5]

Builds esg-bench like run.py, then writes benchmark/trajectory/NNNN.json.
Rows are comparable only when they were measured on the same host.
"""
import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (shares the build step)


def cache_value(key):
    with open(os.path.join(run.BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("row", help="row number, e.g. 0012")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.repeat < 2:
        parser.error("--repeat must be at least 2 to give an IQR")

    run.build()
    proc = subprocess.run(
        [os.path.join(run.BUILD, "esg-bench"), "--repeat", str(args.repeat)],
        stdout=subprocess.PIPE, text=True)
    workloads = {}
    flags = []
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] in ("FLAG", "FAILED"):
            flags.append(line)
        elif len(fields) >= 5 and fields[4].startswith("iqr="):
            workloads.setdefault(fields[0], {})[fields[1]] = {
                "median": float(fields[2]),
                "unit": fields[3],
                "iqr": float(fields[4][4:]),
            }
    compiler = subprocess.run([cache_value("CMAKE_CXX_COMPILER"), "--version"],
                              stdout=subprocess.PIPE, text=True)
    row = {
        "row": args.row,
        "date": datetime.date.today().isoformat(),
        "repeat": args.repeat,
        "nproc": os.cpu_count(),
        "compiler": compiler.stdout.splitlines()[0],
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "correct": proc.returncode == 0,
        "flags": flags,
        "workloads": workloads,
    }
    path = os.path.join(HERE, "trajectory", args.row + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(row, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
