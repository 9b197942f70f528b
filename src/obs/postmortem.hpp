// Causal postmortems for file transfers.
//
// Table 1's striped run and Figure 8's 14-hour fault-tolerant transfer are
// postmortems a human read off monitoring output.  This engine does that
// read mechanically: given the flight-recorder event stream (live, or
// re-hydrated from a RunManifest), it reconstructs one file's story —
//
//   * per-phase time attribution: the lookup / find_replicas /
//     rank_replicas / stage / transfer slices tile the file's whole
//     lifetime, so the slice durations sum exactly to the rm.file span;
//   * a correlated timeline: the file's own lifecycle events joined (by
//     tracer track and by time window) with fault injections, breaker
//     transitions and link-state changes that overlapped it;
//   * root-cause attribution: the first anomaly the file suffered
//     (timeout, slow-replica abandon, checksum mismatch, stage retry, ...)
//     is matched by attribute_fault() to the chaos fault that explains it —
//     "stream stalled 12 s after brownout(lbnl-uplink)".
//
// attribute_fault() is the one rule that ties a symptom to a fault: the
// alert report, bench_chaos and the explorer's alerts-correlated invariant
// call it with an alert's firing time.
//
// The engine only reads events; it works identically on a live simulation
// and on a manifest loaded months later by `esg-report postmortem`.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/manifest.hpp"
#include "obs/recorder.hpp"

namespace esg::obs {

struct PhaseSlice {
  std::string phase;  // "rm.lookup", "hrm.stage", "rm.transfer", ...
  common::SimTime start = 0;
  common::SimTime end = 0;
  common::SimDuration duration() const { return end - start; }
};

struct Postmortem {
  std::string file;
  bool found = false;   // file.queued event located
  bool failed = false;
  bool degraded = false;  // retried, switched replica, or suffered anomalies
  /// "ok", the failure text, or "in flight" when the stream holds no
  /// file.complete/file.failed for the file.
  std::string status;
  common::SimTime started = 0;
  /// The terminal event's time; for a file in flight, the last recorded
  /// event's (open spans clamp at capture the same way).
  common::SimTime finished = 0;
  int attempts = 0;
  int replica_switches = 0;
  std::string chosen_host;

  /// Contiguous slices tiling [started, finished]; durations sum exactly
  /// to the file's whole-span duration.
  std::vector<PhaseSlice> phases;

  /// File events + overlapping fault/breaker/link events, time-ordered.
  std::vector<FlightEvent> timeline;

  bool has_root_cause = false;
  FlightEvent root_cause;     // the fault event held responsible
  FlightEvent first_anomaly;  // the symptom it explains
  /// first_anomaly.at - root_cause.at (how long until it bit).
  common::SimDuration anomaly_lag = 0;

  common::SimDuration total() const { return finished - started; }
  /// Multi-line human report.
  std::string render() const;
};

/// The chaos fault that best explains a symptom seen at `at`, or nullptr.
/// `symptom` is the symptom's own event when there is one (a postmortem's
/// first anomaly); an alert passes only its firing time.
///   * A checksum symptom (checksum.mismatch, or the corruption.refetch that
///     follows it) is explained by the fault.corruption its mismatch
///     consumed, at any lag: the k-th mismatch consumes the k-th injection.
///   * Otherwise the latest fault still active at `at` wins — a `.begin`
///     until its `.end`, or for good if none is recorded — else the latest
///     one that stopped acting within a 120 s recency window.  A corruption
///     injection is never active (an armed injection has hurt no payload
///     yet): it stops acting at the mismatch that consumes it, or at the
///     injection itself while nothing has consumed it by `at`.
const FlightEvent* attribute_fault(const std::vector<FlightEvent>& events,
                                   common::SimTime at,
                                   const FlightEvent& symptom = {});

/// Build the postmortem for `file` from an event stream (manifest order).
Postmortem build_postmortem(const std::vector<FlightEvent>& events,
                            const std::string& file);
Postmortem build_postmortem(const FlightRecorder& recorder,
                            const std::string& file);
inline Postmortem build_postmortem(const RunManifest& manifest,
                                   const std::string& file) {
  return build_postmortem(manifest.events, file);
}

/// Every file with a file.queued event, in first-seen order.
std::vector<std::string> postmortem_files(
    const std::vector<FlightEvent>& events);
/// Files whose postmortem would be interesting: failed or degraded.
std::vector<std::string> degraded_files(
    const std::vector<FlightEvent>& events);

}  // namespace esg::obs
