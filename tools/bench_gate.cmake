# Bench regression gate (ctest: bench-gate, labels perf/report).
#
# Re-runs the deterministic benches and diffs the RunManifests they write
# against the baselines checked in under bench/baselines/.  Identity fields
# (seed, fault timeline hash, flight digest) must match exactly; metrics and
# bench values may move up to the tolerance (default 20%).  Any drift —
# or a bench failing outright — fails the gate.
#
# The manifests deliberately carry only machine-independent numbers: heap
# allocations per solve and per steady poll tick, solver invariants (no
# solve during polls, the rate gap against the reference solver), and
# sim-time metrics (sim_queue_depth/purges) — never wall-clock timings.
# Every bench transfer carries progress and completion callbacks, as
# TcpTransfer's do, so the numbers cover the one transfer path every world
# takes.  A regression in the solver's steady-state allocation discipline (a
# solve or a progress notice that allocates) therefore fails this gate
# deterministically on any machine.
#
# Invoked by ctest as:
#   cmake -DBENCH_FLUID=<bench_fluid_scale> -DBENCH_CHAOS=<bench_chaos>
#         -DESG_REPORT=<esg-report> -DBASELINE_DIR=<repo>/bench/baselines
#         -DWORK_DIR=<build>/bench-gate [-DTOLERANCE=0.2]
#         -P tools/bench_gate.cmake
#
# Refresh the baselines intentionally (after an accepted perf change) with:
#   cp <build>/bench-gate/MANIFEST_*.json bench/baselines/

foreach(var BENCH_FLUID BENCH_CHAOS BENCH_CAMPAIGN BENCH_EXPLORE ESG_REPORT
            BASELINE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_gate: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED TOLERANCE)
  set(TOLERANCE 0.2)
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_bench label)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_gate: ${label} failed (exit ${rc}):\n${out}")
  endif()
  message(STATUS "${label}: ok")
endfunction()

function(gate_manifest name)
  set(baseline "${BASELINE_DIR}/MANIFEST_${name}.json")
  set(current "${WORK_DIR}/MANIFEST_${name}.json")
  if(NOT EXISTS "${baseline}")
    message(FATAL_ERROR
      "bench_gate: no baseline ${baseline} — run the benches and copy "
      "${current} there to establish one")
  endif()
  if(NOT EXISTS "${current}")
    message(FATAL_ERROR "bench_gate: bench did not write ${current}")
  endif()
  execute_process(
    COMMAND "${ESG_REPORT}" diff "${baseline}" "${current}"
            --tolerance "${TOLERANCE}" --ignore wall_clock
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  message(STATUS "diff MANIFEST_${name}.json vs baseline:\n${out}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bench_gate: ${name} drifted beyond ${TOLERANCE} vs the checked-in "
      "baseline (see diff above).  If the change is intended, refresh "
      "bench/baselines/MANIFEST_${name}.json from ${current}.")
  endif()
endfunction()

run_bench("bench_fluid_scale --small" "${BENCH_FLUID}" --small)
run_bench("bench_chaos" "${BENCH_CHAOS}")
run_bench("bench_campaign --small" "${BENCH_CAMPAIGN}" --small)
run_bench("bench_explore" "${BENCH_EXPLORE}"
          --corpus "${BASELINE_DIR}/explore")

gate_manifest(fluid_scale)
gate_manifest(chaos)
gate_manifest(campaign)
gate_manifest(explore)

# Smoke the profile reporting path end-to-end: the chaos manifest carries a
# profile section, so critical-path and flame must both succeed on it.
run_bench("esg-report critical-path MANIFEST_chaos.json"
          "${ESG_REPORT}" critical-path "${WORK_DIR}/MANIFEST_chaos.json")
run_bench("esg-report flame MANIFEST_chaos.json"
          "${ESG_REPORT}" flame "${WORK_DIR}/MANIFEST_chaos.json"
          --out "${WORK_DIR}/chaos.folded")

message(STATUS "bench_gate: all manifests within tolerance ${TOLERANCE}")
