// The canonical exploration world: one small, fixed topology + workload
// that every enumerated fault schedule runs against.
//
// It runs on scenario::EsgStar, the same star as bench_chaos (client-site /
// hub / lbnl / isi, HPSS at lbnl): a few disk files replicated at both
// replica sites plus one tape-resident file, through the full self-healing
// stack — ReliableGet restart markers, retry backoff, replica rotation,
// circuit breakers, HRM stage retries, checksum re-fetch — under streaming
// telemetry with a burn-rate alert rule.  Small on purpose: a sweep runs
// hundreds of schedules, so one run must cost milliseconds of wall clock.
//
// run_schedule() arms the schedule's faults on this world, drives the
// workload to completion (under a liveness cap), then extracts everything
// the invariant suite needs: per-file outcomes, breaker health after a
// post-run cooldown, the alert timeline with fault correlation, and the
// byte-deterministic RunManifest + flight digest for replay comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "sim/explore/schedule.hpp"

namespace esg::explore {

/// Which stack carries the workload.  request_manager is the paper-§4 path
/// (replica lookup, MDS ranking, HRM staging for the tape file);
/// campaign drives the same files through campaign::CampaignDriver's
/// ReliableGet worker slots instead (disk files only — the campaign layer
/// has no tape staging path).
enum class Workload { request_manager, campaign };

struct WorldOptions {
  Workload workload = Workload::request_manager;
  int disk_files = 3;
  int tape_files = 1;
  common::Bytes file_size = 4'000'000;
  /// Liveness cap: if the workload has not completed by this simulated
  /// time, the run is declared non-terminating (the `terminates`
  /// invariant fails) instead of spinning forever.
  common::SimTime run_cap = 30 * common::kMinute;
};

/// Everything one schedule run produced, pre-digested for the invariants.
struct ScheduleRun {
  /// The workload completion callback fired before the liveness cap.
  bool terminated = false;
  int files_requested = 0;
  int completed = 0;
  int failed = 0;
  /// "file: error text" for every permanent failure, and "seeding: error
  /// text" when publishing the world's files failed.
  std::vector<std::string> failure_details;

  std::uint64_t timeline_hash = 0;
  std::uint64_t flight_digest = 0;
  common::SimTime finished_at = 0;

  /// Hosts whose breaker still refuses traffic after the post-run
  /// cooldown advance (must be empty: every breaker re-admits).
  std::vector<std::string> unhealthy_hosts;

  int alerts_fired = 0;  // firings at or before finished_at
  /// "rule @ time" for every firing obs::attribute_fault could not tie to an
  /// injected fault (must be empty: no alert without a cause).
  std::vector<std::string> uncorrelated_alerts;

  obs::RunManifest manifest;
  std::string manifest_json;
};

/// Run one schedule against the canonical world.  Deterministic: the same
/// (schedule, options) produces byte-identical manifest_json and
/// flight_digest on every call.
ScheduleRun run_schedule(const FaultSchedule& schedule,
                         const WorldOptions& options = {});

}  // namespace esg::explore
