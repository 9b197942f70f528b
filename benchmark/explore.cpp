// explore: the fault-interleaving sweep.  Thousands of tiny 4-file worlds,
// each built, faulted, run and checked against the invariant suite, so
// world construction, teardown and invariant checks dominate and the
// network barely runs.  The schedule set is the canonical enumeration with
// its random tier drawn from the round's seed; every 8th schedule is also
// replayed for determinism, as bench_explore does.
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/explore/enumerate.hpp"
#include "sim/explore/invariants.hpp"
#include "workloads.hpp"

namespace esg::bench {

namespace {
constexpr std::size_t kDeterminismStride = 8;
// Each schedule's world moves files of a size drawn from the seed, so the
// sweep covers more than one transfer length and no world time is the same
// on every seed.
constexpr common::Bytes kMinFileSize = 2'000'000;
constexpr common::Bytes kMaxFileSize = 6'000'000;
}  // namespace

RunResult run_explore(const Options& options, WallTrace& trace) {
  RunResult out;
  EndToEnd e2e;
  LayerCounters layers;
  PhaseAllocs allocs;
  std::size_t invariants = 0;
  std::size_t replays = 0;
  std::uint64_t flight_events = 0;
  double worlds = 0;
  double files = 0;

  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    const std::string where = "round " + std::to_string(round) + ": ";
    explore::EnumerationConfig config = explore::canonical_enumeration();
    config.budget = static_cast<std::size_t>(scaled(3000, options.scale, 8));
    config.sweep_seed = seed;

    // Set-up is the enumeration and the draw of each world's file size.
    const std::uint64_t a_setup = allocations();
    const auto t_setup = WallTrace::Clock::now();
    std::vector<explore::FaultSchedule> schedules;
    std::vector<common::Bytes> file_size;
    {
      auto setup_span = trace.span("setup");
      auto sp = trace.span("explore.enumerate");
      schedules = explore::enumerate_schedules(config);
      // The enumeration's random tier draws from `seed`; keep apart from it.
      common::Rng rng(~seed);
      for (std::size_t i = 0; i < schedules.size(); ++i) {
        file_size.push_back(
            kMinFileSize + static_cast<common::Bytes>(
                               rng.uniform() *
                               static_cast<double>(kMaxFileSize - kMinFileSize)));
      }
    }
    const double setup_s = seconds_since(t_setup);

    const std::uint64_t a_run = allocations();
    const auto t_run = WallTrace::Clock::now();
    std::size_t violating = 0;
    std::size_t unterminated = 0;
    double sim_total_s = 0;
    double bytes = 0;
    std::vector<double> finished_s;
    std::string first_violation;
    {
      auto sp = trace.span("run.sim");
      for (std::size_t i = 0; i < schedules.size(); ++i) {
        explore::InvariantOptions opts;
        opts.world.file_size = file_size[i];
        opts.check_determinism = i % kDeterminismStride == 0;
        explore::CheckResult result;
        {
          auto check = trace.span("explore.check");
          result = explore::check_schedule(schedules[i], opts);
        }
        invariants += static_cast<std::size_t>(result.invariants_checked);
        replays += opts.check_determinism ? 1 : 0;
        if (!result.violations.empty()) {
          ++violating;
          if (first_violation.empty()) {
            first_violation = ":\n" + result.violations.front().render();
          }
        }
        if (!result.run.terminated) ++unterminated;
        const double t = common::to_seconds(result.run.finished_at);
        finished_s.push_back(t);
        sim_total_s += t;
        bytes += result.run.completed * static_cast<double>(file_size[i]);
        files += opts.world.disk_files + opts.world.tape_files;
        flight_events += result.run.manifest.events_recorded;
        layers.add(result.run.manifest.metrics);
      }
    }
    const double run_s = seconds_since(t_run);
    allocs.setup += a_run - a_setup;
    allocs.run += allocations() - a_run;

    out.check(violating == 0, where + std::to_string(violating) +
                                  " schedules violated an invariant" +
                                  first_violation);
    out.check(unterminated == 0, where + std::to_string(unterminated) +
                                     " schedules did not terminate");
    out.check(schedules.size() == config.budget,
              where + "enumeration produced " +
                  std::to_string(schedules.size()) + " schedules, budget " +
                  std::to_string(config.budget));
    out.attempted += schedules.size();
    out.failed += violating;
    worlds += static_cast<double>(schedules.size());

    // Each schedule's workload is due at its world's t = 0, so a
    // schedule's latency is the simulated time its files took; the sweep's
    // makespan is the simulated time of all its worlds together.
    e2e.add_round(setup_s, run_s, sim_total_s, bytes, finished_s);
  }

  e2e.emit(out);
  layers.emit(out);
  out.set("obs.flight_events", static_cast<double>(flight_events));
  out.set("explore.schedules", worlds);
  out.set("explore.invariants_checked", static_cast<double>(invariants));
  out.set("explore.replays", static_cast<double>(replays));
  emit_host(allocs, e2e.run_s, files, out);
  if (trace.enabled()) {
    out.set("explore.enumerate_s", median(trace.durations("explore.enumerate")));
    auto checks = trace.durations("explore.check");
    for (double& d : checks) d *= 1e3;
    out.set("explore.check_p50_ms", quantile(checks, 0.50));
    out.set("explore.check_p99_ms", quantile(checks, 0.99));
  }
  return out;
}

}  // namespace esg::bench
