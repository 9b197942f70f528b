// Exporters for the observability layer.
//
//   * to_chrome_trace(tracer, recorder): Chrome `trace_event` JSON — load
//     the file in about:tracing or https://ui.perfetto.dev to see the
//     request-manager → gridftp → net span hierarchy on per-file tracks,
//     with the flight recorder's events (attempts, retries, faults) as
//     instant markers on them.
//   * to_prometheus_text(snapshot): the classic text exposition format
//     (counters, gauges, histograms with cumulative `le` buckets).
//   * to_json(snapshot): machine-readable snapshot; bench_util.hpp embeds
//     this into BENCH_*.json so a perf run and its metrics travel together.
//
// All output is deterministic: same-seed simulations export byte-identical
// text (asserted by tests/obs_test.cpp).
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace esg::obs {

/// JSON string-escape (quotes, backslashes, control characters).
std::string json_escape(std::string_view s);

/// Chrome trace_event JSON ({"traceEvents": [...]}).  Sim time maps to
/// microseconds; tracks map to tids with thread_name metadata; spans still
/// open at export time are closed at the tracer's current clock.  The
/// recorder's retained events become instant markers ("ph":"i") on their
/// tracks, with the event's target and attributes as args.
std::string to_chrome_trace(const Tracer& tracer,
                            const FlightRecorder& recorder);

/// Prometheus text exposition format.
std::string to_prometheus_text(const MetricsSnapshot& snapshot);

/// JSON object: {"sim_time_ns": ..., "metrics": [...]}.
std::string to_json(const MetricsSnapshot& snapshot);

}  // namespace esg::obs
