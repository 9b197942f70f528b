// The four esg-bench workloads.  Each plays kRounds rounds: a round builds
// its inputs and world from round_seed(Options::seed, round), runs them and
// checks the outputs.  The RunResult holds the end-to-end metrics of all
// rounds (EndToEnd) and per-layer counts summed over them.  Spans go to
// `trace` when it is on.
#pragma once

#include <cstdint>

#include <vector>

#include "harness.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "sim/simulation.hpp"

namespace esg::bench {

/// `fleet` and `fleet-traced`: campaign replication, 2 sources -> 4 sites.
RunResult run_fleet(const Options& options, bool traced_fleet,
                    WallTrace& trace);
/// `archive`: an open loop of analysis requests through the RM and HRM.
RunResult run_archive(const Options& options, WallTrace& trace);
/// `explore`: the fault-schedule sweep over the canonical world.
RunResult run_explore(const Options& options, WallTrace& trace);

/// Host-side allocation counts of a run's three phases, over all rounds.
struct PhaseAllocs {
  std::uint64_t setup = 0;
  std::uint64_t run = 0;
  std::uint64_t report = 0;
};

/// Per-layer counters every workload reads from its final metrics snapshot
/// (gridftp, rm, hrm cache, breakers, campaign).  Workloads with several
/// worlds sum snapshots first; the ratios are computed from the sums.
struct LayerCounters {
  double transfers_started = 0, transfers_completed = 0, gridftp_retries = 0,
         attempt_timeouts = 0, restarts = 0, backoff_s = 0,
         checksum_failures = 0, corruption_refetches = 0,
         channels_reused = 0, channel_setups = 0, auth_handshakes = 0,
         hrm_hits = 0, hrm_misses = 0, rm_submitted = 0, rm_retries = 0,
         rm_stage_retries = 0, rm_replica_switches = 0, breaker_opens = 0,
         breaker_short_circuits = 0, campaign_retries = 0,
         campaign_failures = 0, sim_purges = 0;
  std::vector<std::uint64_t> stage_wait_buckets;
  std::vector<double> stage_wait_boundaries;

  void add(const obs::MetricsSnapshot& snapshot);
  /// Emit gridftp.*, hrm cache/stage-wait, rm.*, campaign.* and sim.purges.
  void emit(RunResult& out) const;
};

/// sim.*, net.* and obs.* counters of the worlds the benchmark built
/// itself, summed over rounds (maxima for the high-water marks).
struct WorldLayers {
  double events = 0, sim_wall_s = 0, queue_depth_max = 0, touches = 0,
         reallocations = 0, component_solves = 0, flows_solved = 0,
         max_solve_flows = 0, spans = 0, spans_dropped = 0,
         flight_events = 0, telemetry_samples = 0;

  /// `sim_wall_s` is the wall time of the round's Simulation::run().
  void add(sim::Simulation& sim, net::Network& net, double round_sim_wall_s);
  void emit(double files, RunResult& out) const;
};

/// Add a time-where profile's categories to profile.<category>_s.
void add_profile(const obs::TimeWhereProfile& profile, RunResult& out);
/// host.*: allocations per phase and wall microseconds per file, from the
/// totals over all rounds; `run_s` holds each round's run time.
void emit_host(const PhaseAllocs& allocs, const std::vector<double>& run_s,
               double files, RunResult& out);
/// Span-derived layer timings: the median over the set-up builds of each
/// set-up span, and the report spans (traced runs only).
void emit_span_timings(const WallTrace& trace, RunResult& out);

}  // namespace esg::bench
