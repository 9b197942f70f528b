#include "sim/explore/world.hpp"

#include <utility>

#include "campaign/driver.hpp"
#include "obs/postmortem.hpp"
#include "rm/request_manager.hpp"
#include "scenario/star.hpp"

namespace esg::explore {

namespace {

using common::kSecond;

constexpr const char* kCollection = "explore";

}  // namespace

ScheduleRun run_schedule(const FaultSchedule& schedule,
                         const WorldOptions& options) {
  ScheduleRun out;

  storage::TapeConfig tape;
  tape.drives = 1;
  tape.mount_time = 5 * kSecond;
  tape.avg_seek = 2 * kSecond;
  tape.read_rate = common::mbps(400);
  scenario::EsgStar grid(schedule.sim_seed, tape);
  sim::Simulation& sim = grid.sim;
  const int tape_files = options.workload == Workload::request_manager
                             ? options.tape_files
                             : 0;
  const scenario::Publication publication = scenario::esg_star_publication(
      kCollection, options.disk_files, tape_files, options.file_size);
  grid.publish(publication);
  sim.run();  // drain the seeding RPCs before faults/workload start
  if (!grid.seeding_status().ok()) {
    out.failure_details.push_back("seeding: " +
                                  grid.seeding_status().error().to_string());
  }

  // ---- arm the schedule ----
  sim::FaultInjector injector(schedule.sim_seed);
  for (const auto& e : schedule.faults) injector.add(e);
  injector.clamp_to(schedule.horizon);
  out.timeline_hash = injector.timeline_hash();
  injector.arm(sim, grid.fault_hooks());

  // ---- streaming telemetry: burn-rate paging only.  The canonical runs
  // are short and bursty, so an EWMA anomaly watchdog would fire on the
  // workload's own ramp — every page must instead be attributable to an
  // injected fault, which is exactly the alert invariant.
  sim.alerts().add(scenario::gridftp_failure_burn());
  auto telemetry = sim.start_telemetry(kSecond);

  // ---- workload ----
  rm::BreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 30 * kSecond;

  bool done = false;
  if (options.workload == Workload::request_manager) {
    rm::RequestManager manager(grid.orb, grid.client().local_host(),
                               grid.make_catalog(), grid.make_mds_client(),
                               grid.client(), nullptr, breaker);
    rm::RequestOptions opts;
    opts.transfer.buffer_size = common::kMiB;
    opts.transfer.parallelism = 2;
    opts.transfer.stall_timeout = 10 * kSecond;
    // Generous budgets: every bounded fault window must be survivable, so
    // a permanent failure is a lost file, not an exhausted retry count.
    opts.reliability.max_attempts = 60;
    opts.reliability.retry_backoff = kSecond;
    opts.reliability.max_backoff = 8 * kSecond;
    opts.reliability.jitter = 0.25;
    // A crashed HRM loses in-flight stage RPCs; the default 30-minute
    // per-attempt stage timeout would park the tape worker far past the
    // liveness cap, so detect and retry within a minute instead.
    opts.stage_retry.attempt_timeout = 60 * kSecond;
    opts.stage_retry.max_attempts = 12;
    opts.stage_retry.retry_backoff = 5 * kSecond;
    opts.max_concurrent = 4;

    std::vector<rm::FileRequest> wanted;
    for (const auto& f : publication.files) {
      wanted.push_back({kCollection, f.name});
    }
    out.files_requested = static_cast<int>(wanted.size());
    rm::RequestResult result;
    manager.submit(wanted, opts, [&](rm::RequestResult r) {
      result = std::move(r);
      done = true;
      telemetry.cancel();
    });
    sim.run_while_pending(
        [&] { return done || sim.now() >= options.run_cap; });
    out.terminated = done;
    if (done) {
      sim.run();  // drain trailing fault windows deterministically
      out.finished_at = result.finished;
      for (const auto& f : result.files) {
        if (f.status.ok()) {
          ++out.completed;
        } else {
          ++out.failed;
          out.failure_details.push_back(
              f.request.filename + ": " + f.status.error().to_string());
        }
      }
    }
    // Advance past the breaker cooldown, then every breaker must re-admit
    // traffic (closed, or open-past-cooldown ready to probe).
    sim.schedule_after(breaker.cooldown + kSecond, [] {});
    sim.run();
    for (const auto& host : manager.health().hosts()) {
      if (!manager.health().healthy(host)) {
        out.unhealthy_hosts.push_back(host);
      }
    }
  } else {
    campaign::CampaignCatalog ccat;
    ccat.name = kCollection;
    for (const auto& lf : publication.files) {
      campaign::CampaignFile f;
      f.dataset = kCollection;
      f.name = lf.name;
      f.size = lf.size;
      f.sources = {{"lbnl.host", "co2/" + f.name},
                   {"isi.host", "co2/" + f.name}};
      f.destination_site = "client-site";
      ccat.files.push_back(std::move(f));
    }
    campaign::CampaignOptions copts;
    copts.per_site_concurrency = 2;
    copts.transfer.buffer_size = common::kMiB;
    copts.transfer.parallelism = 2;
    copts.transfer.stall_timeout = 10 * kSecond;
    copts.retry.max_attempts = 60;
    copts.retry.retry_backoff = kSecond;
    copts.retry.max_backoff = 8 * kSecond;
    copts.retry.jitter = 0.25;
    copts.breaker = breaker;
    campaign::CampaignDriver driver(sim, std::move(ccat), grid.endpoints(),
                                    copts);

    out.files_requested = options.disk_files;
    campaign::IntegrityReport report;
    driver.run([&](const campaign::IntegrityReport& r) {
      report = r;
      done = true;
      telemetry.cancel();
    });
    sim.run_while_pending(
        [&] { return done || sim.now() >= options.run_cap; });
    out.terminated = done;
    if (done) {
      sim.run();
      out.finished_at = sim.now();
      out.completed = static_cast<int>(report.files_moved);
      out.failed = static_cast<int>(report.files_failed);
      if (report.files_failed > 0) {
        out.failure_details.push_back(
            std::to_string(report.files_failed) +
            " campaign task(s) permanently failed");
      }
    }
    sim.schedule_after(breaker.cooldown + kSecond, [] {});
    sim.run();
    for (const auto& host : driver.health().hosts()) {
      if (!driver.health().healthy(host)) {
        out.unhealthy_hosts.push_back(host);
      }
    }
  }
  if (!out.terminated) out.finished_at = sim.now();
  out.flight_digest = sim.flight_recorder().digest();

  // ---- manifest + alert correlation ----
  out.manifest = obs::capture_manifest(
      "explore", schedule.sim_seed, scenario::kEsgStarTopology,
      out.timeline_hash, sim.flight_recorder(),
      sim.metrics().snapshot(sim.now()));
  out.manifest.set_bench("files_completed", out.completed);
  out.manifest.set_bench("files_failed", out.failed);
  out.manifest.set_bench("finished_at_s", common::to_seconds(out.finished_at));
  out.manifest.alerts = sim.alerts().history();
  for (const auto& a : out.manifest.alerts) {
    if (a.fired_at > out.finished_at) continue;
    ++out.alerts_fired;
    if (obs::attribute_fault(out.manifest.events, a.fired_at) == nullptr) {
      out.uncorrelated_alerts.push_back(
          a.rule + " @" + common::format_time(a.fired_at));
    }
  }
  out.manifest_json = out.manifest.to_json();
  return out;
}

}  // namespace esg::explore
