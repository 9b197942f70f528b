#!/usr/bin/env bash
# Configure and build esg-bench in Release, then run it.  With no arguments
# this is the full pass: all four workloads, one child process each.
#
#   benchmark/run.sh                      # full pass
#   benchmark/run.sh --repeat 5           # medians, IQRs and flags
#   benchmark/run.sh --trace              # traced pass, TRACE_*.json here
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cmake -S "$here" -B "$here/build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$here/build" --target esg-bench -j "$(nproc)" >&2
exec "$here/build/esg-bench" "$@"
