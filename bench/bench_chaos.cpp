// Chaos bench: a Figure-8-style mixed-fault run through the whole stack.
//
// The paper's Figure 8 shows transfers surviving a power failure, DNS
// problems and backbone trouble thanks to GridFTP restart.  This bench
// generalizes that story: a seeded FaultInjector drives link brownouts, a
// loss spike, GridFTP server and HRM crashes (with restarts), a tape-library
// stall and in-flight payload corruption against a request-manager workload
// of disk- and tape-resident files.  The self-healing path — RetryPolicy
// backoff, circuit breakers, checksum re-fetch, HRM stage retries — must
// complete every file.  The run executes twice with the same seed and the
// outcomes must match exactly (determinism is what makes chaos testing
// debuggable).
#include <cinttypes>
#include <vector>

#include "bench_util.hpp"
#include "obs/flame.hpp"
#include "obs/manifest.hpp"
#include "obs/postmortem.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "rm/request_manager.hpp"
#include "scenario/star.hpp"

using namespace esg;
using common::Bytes;
using common::kMinute;
using common::kSecond;
using common::SimTime;

namespace {

constexpr std::uint64_t kSeed = 2001;
constexpr Bytes kFileSize = 50'000'000;
constexpr int kDiskFiles = 20;
constexpr int kTapeFiles = 4;

// The scripted part of the fault plan (generate() adds extras on top).
constexpr SimTime kServerCrashStart = 40 * kSecond;
constexpr common::SimDuration kServerCrashLength = 45 * kSecond;

struct ChaosOutcome {
  std::uint64_t timeline_hash = 0;
  int completed = 0;
  int failed = 0;
  int burn_alerts = 0;     // burn-rate firings during the run
  int anomaly_alerts = 0;  // anomaly firings during the run
  int correlated_alerts = 0;  // firings attribute_fault ties to a fault
  std::string alert_story;    // "rule <- fault" lines for the table
  Bytes total_bytes = 0;
  SimTime finished_at = 0;
  double recovery_seconds = -1.0;  // server-crash begin -> next completion
  double goodput_mbps = 0.0;
  double checksum_failures = 0.0;
  double corruption_refetches = 0.0;
  double breaker_opens = 0.0;
  double faults_injected = 0.0;
  double gridftp_retries = 0.0;
  double stage_retries = 0.0;
  obs::MetricsSnapshot snapshot;
  obs::RunManifest manifest;
  obs::TimeWhereProfile profile;
  std::string manifest_json;
};

ChaosOutcome run_world(std::uint64_t seed, bool verbose) {
  storage::TapeConfig tape;
  tape.drives = 2;
  tape.mount_time = 10 * kSecond;
  tape.avg_seek = 5 * kSecond;
  tape.read_rate = common::mbps(400);
  scenario::EsgStar grid(seed, tape);
  sim::Simulation& sim = grid.sim;
  const scenario::Publication publication = scenario::esg_star_publication(
      "chaos-2001", kDiskFiles, kTapeFiles, kFileSize);
  grid.publish(publication);
  sim.run();  // drain the seeding RPCs before faults/workload start

  bench::require_seeded(grid.seeding_status());

  // ---- fault plan: scripted core + seeded extras ----
  sim::FaultInjector injector(seed);
  injector
      .add({sim::FaultKind::brownout, "lbnl-uplink", 15 * kSecond,
            60 * kSecond, 0.3, "lbnl uplink brownout"})
      .add({sim::FaultKind::stage_stall, "tape", 20 * kSecond, 50 * kSecond,
            0.0, "tape robot arm jam"})
      .add({sim::FaultKind::service_crash, "lbnl.host", kServerCrashStart,
            kServerCrashLength, 0.0, "lbnl GridFTP crash"})
      .add({sim::FaultKind::service_crash, "hpss.lbl.gov", 70 * kSecond,
            25 * kSecond, 0.0, "HRM crash"})
      .add({sim::FaultKind::loss_spike, "client-uplink", 90 * kSecond,
            40 * kSecond, 0.005, "client uplink loss spike"})
      .add({sim::FaultKind::corruption, "client", 10 * kSecond, 0, 0.0,
            "bit flip"})
      .add({sim::FaultKind::corruption, "client", 120 * kSecond, 0, 0.0,
            "bit flip"});
  sim::ChaosProfile extras;
  extras.brownout.targets = {"isi-uplink"};
  extras.brownout.mean_interval = 4 * kMinute;
  extras.brownout.min_duration = 20 * kSecond;
  extras.brownout.max_duration = kMinute;
  extras.brownout.min_magnitude = 0.4;
  extras.brownout.max_magnitude = 0.7;
  injector.generate(extras, 10 * kMinute);

  injector.arm(sim, grid.fault_hooks());
  if (verbose) {
    for (const auto& e : injector.plan()) {
      std::printf("  [%8s] %-13s %-13s for %s\n",
                  common::format_time(e.start).c_str(),
                  sim::fault_kind_name(e.kind), e.target.c_str(),
                  common::format_time(e.duration).c_str());
    }
  }

  // ---- streaming telemetry: 1 s sampling, online alerting ----
  // Burn-rate page: the transfer path promises 99% of attempts succeed;
  // the crash/brownout bursts of failed attempts burn that budget far
  // faster than 2x on both the 60 s and 15 s windows.
  sim.alerts().add(scenario::gridftp_failure_burn());
  // Anomaly page: aggregate goodput (bytes/s over a 10 s window) shifting
  // several sigmas off its EWMA baseline — the cliff a brownout or server
  // crash carves into the transfer rate.
  obs::AnomalyRule cliff;
  cliff.name = "goodput-cliff";
  cliff.metric = "gridftp_channel_bytes_total";
  cliff.rate_window = 10 * kSecond;
  sim.alerts().add(cliff);
  auto telemetry = sim.start_telemetry(kSecond);

  // ---- workload ----
  rm::BreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 30 * kSecond;
  rm::RequestManager manager(grid.orb, grid.client().local_host(),
                             grid.make_catalog(), grid.make_mds_client(),
                             grid.client(), nullptr, breaker);

  rm::RequestOptions opts;
  opts.transfer.buffer_size = 4 * common::kMiB;
  opts.transfer.parallelism = 2;
  opts.transfer.stall_timeout = 10 * kSecond;
  opts.reliability.max_attempts = 40;
  opts.reliability.retry_backoff = 2 * kSecond;
  opts.reliability.max_backoff = 30 * kSecond;
  opts.reliability.jitter = 0.25;
  opts.stage_retry.max_attempts = 8;
  opts.stage_retry.retry_backoff = 10 * kSecond;
  opts.max_concurrent = 8;

  std::vector<rm::FileRequest> wanted;
  for (const auto& f : publication.files) {
    wanted.push_back({publication.collection, f.name});
  }
  ChaosOutcome out;
  out.timeline_hash = injector.timeline_hash();
  bool done = false;
  rm::RequestResult result;
  manager.submit(wanted, opts, [&](rm::RequestResult r) {
    result = std::move(r);
    done = true;
    // Stop the watchdog with the workload: the goodput falling to zero
    // after the last file lands is the run ending, not an anomaly.
    telemetry.cancel();
  });
  sim.run();
  if (!done) return out;  // wedged — the zero counts will fail the checks

  out.finished_at = sim.now();
  out.total_bytes = result.total_bytes;
  for (const auto& f : result.files) {
    if (f.status.ok()) {
      ++out.completed;
      const SimTime t = f.finished;
      if (t >= kServerCrashStart &&
          (out.recovery_seconds < 0 ||
           common::to_seconds(t - kServerCrashStart) < out.recovery_seconds)) {
        out.recovery_seconds = common::to_seconds(t - kServerCrashStart);
      }
    } else {
      ++out.failed;
      if (verbose) {
        std::printf("  FAILED %s: %s\n", f.request.filename.c_str(),
                    f.status.error().to_string().c_str());
      }
    }
  }
  out.goodput_mbps = common::to_mbps(
      static_cast<double>(out.total_bytes) /
      common::to_seconds(result.finished - result.started));
  out.snapshot = sim.metrics().snapshot(sim.now());
  out.checksum_failures =
      out.snapshot.value_or("gridftp_checksum_failures_total", {});
  out.corruption_refetches =
      out.snapshot.value_or("gridftp_corruption_refetches_total", {});
  out.breaker_opens = out.snapshot.family_total("rm_breaker_open_total");
  out.faults_injected =
      out.snapshot.family_total("chaos_faults_injected_total");
  out.gridftp_retries = out.snapshot.value_or("gridftp_retries_total", {});
  out.stage_retries = out.snapshot.value_or("rm_stage_retries_total", {});

  // The run's full identity in one artifact: same seed => identical bytes.
  out.manifest = obs::capture_manifest(
      "chaos", seed, scenario::kEsgStarTopology, out.timeline_hash,
      sim.flight_recorder(), out.snapshot);
  out.manifest.set_bench("files_completed", out.completed);
  out.manifest.set_bench("files_failed", out.failed);
  out.manifest.set_bench("total_bytes", static_cast<double>(out.total_bytes));
  out.manifest.set_bench("goodput_mbps", out.goodput_mbps);
  out.manifest.set_bench("recovery_seconds", out.recovery_seconds);
  out.manifest.set_bench("finished_at_s", common::to_seconds(out.finished_at));

  // Streaming-telemetry payload: the full alert timeline plus condensed
  // history for the headline families — baked into the manifest so the
  // bench gate fails on any drift in alert firing.
  obs::attach_telemetry(out.manifest, sim.telemetry(), sim.alerts(),
                        {"gridftp_channel_bytes_total",
                         "gridftp_transfers_failed_total",
                         "rm_file_duration_seconds:p"});

  // Time-where profile: decompose every rm.file span into exclusive
  // categories.  Goes into the manifest (drift-gated) and the bench JSON;
  // the per-category shares become gated bench values.
  out.profile = obs::build_profile(sim.tracer(), sim.flight_recorder());
  obs::attach_profile(out.manifest, out.profile);
  for (std::size_t i = 0; i < obs::kProfileCategories; ++i) {
    const auto c = static_cast<obs::ProfileCategory>(i);
    out.manifest.set_bench(
        std::string("profile_share_") + obs::profile_category_name(c),
        out.profile.share(c));
  }
  for (const auto& a : out.manifest.alerts) {
    if (a.fired_at > out.finished_at) continue;
    (a.kind == obs::AlertKind::burn_rate ? out.burn_alerts
                                         : out.anomaly_alerts)++;
    const auto* fault = obs::attribute_fault(out.manifest.events, a.fired_at);
    if (fault != nullptr) {
      ++out.correlated_alerts;
      out.alert_story += "  " + a.rule + " @" +
                         common::format_time(a.fired_at) + " <- " +
                         fault->name + " " + fault->target + " (" +
                         std::string(fault->attr("description")) + ")\n";
    } else {
      out.alert_story += "  " + a.rule + " @" +
                         common::format_time(a.fired_at) +
                         " <- (uncorrelated)\n";
    }
  }
  out.manifest_json = out.manifest.to_json();
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Chaos run — mixed faults vs the self-healing transfer path");
  std::printf(
      "%d disk + %d tape files of %lld MB through the request manager while\n"
      "a seeded FaultInjector delivers brownouts, a loss spike, GridFTP and\n"
      "HRM crashes, a tape stall and two corrupted payloads.  Fault plan:\n",
      kDiskFiles, kTapeFiles,
      static_cast<long long>(kFileSize / 1'000'000));

  ChaosOutcome a = run_world(kSeed, /*verbose=*/true);
  ChaosOutcome b = run_world(kSeed, /*verbose=*/false);
  // A perturbed third run: different seed, so the watchdog must flag it.
  ChaosOutcome perturbed = run_world(kSeed + 1, /*verbose=*/false);

  const bool deterministic = a.timeline_hash == b.timeline_hash &&
                             a.completed == b.completed &&
                             a.failed == b.failed &&
                             a.total_bytes == b.total_bytes &&
                             a.finished_at == b.finished_at &&
                             a.manifest_json == b.manifest_json;

  obs::write_file("MANIFEST_chaos.json", a.manifest_json);
  obs::write_file("MANIFEST_chaos_b.json", b.manifest_json);
  obs::write_file("MANIFEST_chaos_perturbed.json",
                  perturbed.manifest_json);

  // Run-diff watchdog: a vs b must be clean, a vs perturbed must drift.
  const obs::DriftTolerance tolerance;
  const auto self_diff = obs::diff_manifests(a.manifest, b.manifest,
                                             tolerance);
  const auto perturbed_diff =
      obs::diff_manifests(a.manifest, perturbed.manifest, tolerance);
  const bool watchdog_ok = self_diff.clean() && !perturbed_diff.clean();
  const int total_files = kDiskFiles + kTapeFiles;
  const bool all_complete = a.completed == total_files && a.failed == 0;
  // The during-run alerting contract: at least one burn-rate page and one
  // anomaly page fired while the workload ran, every firing correlates to
  // an injected fault, and the timelines of both same-seed runs agree to
  // the byte (already pinned by the manifest comparison above).
  const bool alerts_ok =
      a.burn_alerts >= 1 && a.anomaly_alerts >= 1 &&
      a.correlated_alerts == a.burn_alerts + a.anomaly_alerts &&
      a.burn_alerts == b.burn_alerts && a.anomaly_alerts == b.anomaly_alerts;

  // Time-where contract: the per-category self-times of every profiled
  // file must tile its rm.file span exactly (integer nanoseconds — no
  // epsilon), the profile must cover every requested file, and at least
  // one tape-resident file must be dominated by the staging category.
  bool tiling_ok = a.profile.files.size() ==
                   static_cast<std::size_t>(total_files);
  for (const auto& fp : a.profile.files) {
    if (fp.category_sum() != fp.total()) {
      tiling_ok = false;
      std::printf("  TILING BROKEN %s: categories sum %lld ns, span %lld ns\n",
                  fp.file.c_str(),
                  static_cast<long long>(fp.category_sum()),
                  static_cast<long long>(fp.total()));
    }
  }
  bool tape_dominated_by_stage = false;
  std::string tape_example;
  for (const auto& fp : a.profile.files) {
    if (fp.staged && fp.dominant() == obs::ProfileCategory::stage) {
      tape_dominated_by_stage = true;
      if (tape_example.empty()) tape_example = fp.file;
    }
  }
  // Flame export must conserve time: the collapsed stacks sum to exactly
  // the profile total (tiling survives serialization).
  long long flame_ns = 0;
  for (const auto& sw : a.profile.stacks) flame_ns += sw.self;
  const bool flame_ok =
      flame_ns == static_cast<long long>(a.profile.total) &&
      obs::to_collapsed_stacks(a.profile) ==
          obs::to_collapsed_stacks(b.profile);
  const bool profile_ok = tiling_ok && tape_dominated_by_stage && flame_ok;

  char hash_buf[32];
  std::snprintf(hash_buf, sizeof hash_buf, "%016" PRIx64, a.timeline_hash);
  std::vector<bench::Row> rows = {
      {"files completed", std::to_string(total_files) + " (all)",
       std::to_string(a.completed) + " of " + std::to_string(total_files)},
      {"files permanently failed", "0", std::to_string(a.failed)},
      {"faults injected", ">= 7 scripted",
       std::to_string(static_cast<int>(a.faults_injected))},
      {"goodput under chaos", "(degraded vs clean)",
       common::format_rate(common::mbps(a.goodput_mbps))},
      {"recovery after server crash", "transfers resume",
       std::to_string(a.recovery_seconds) + " s to next completion"},
      {"checksum failures caught", "2 (both injected)",
       std::to_string(static_cast<int>(a.checksum_failures))},
      {"corruption re-fetches", "2",
       std::to_string(static_cast<int>(a.corruption_refetches))},
      {"breaker trips", ">= 1",
       std::to_string(static_cast<int>(a.breaker_opens))},
      {"gridftp retries", "(several)",
       std::to_string(static_cast<int>(a.gridftp_retries))},
      {"stage retries", "(>= 0)",
       std::to_string(static_cast<int>(a.stage_retries))},
      {"same-seed runs identical", "yes", deterministic ? "yes" : "NO"},
      {"fault timeline hash", "(seeded)", hash_buf},
      {"same-seed manifests byte-identical", "yes",
       a.manifest_json == b.manifest_json ? "yes" : "NO"},
      {"run-diff a vs b", "no drift",
       std::to_string(self_diff.drifts.size()) + " drifts over " +
           std::to_string(self_diff.series_compared) + " series"},
      {"run-diff a vs perturbed seed", "flagged",
       perturbed_diff.clean() ? "NOT FLAGGED" : "flagged"},
      {"flight events recorded", "(hundreds)",
       std::to_string(a.manifest.events_recorded)},
      {"burn-rate alerts during run", ">= 1",
       std::to_string(a.burn_alerts)},
      {"anomaly alerts during run", ">= 1",
       std::to_string(a.anomaly_alerts)},
      {"alerts correlated to a fault", "all",
       std::to_string(a.correlated_alerts) + " of " +
           std::to_string(a.burn_alerts + a.anomaly_alerts)},
      {"telemetry samples", "(one per sim-second)",
       std::to_string(a.manifest.series.size()) + " series in manifest"},
      {"profile tiles every rm.file span", "exactly",
       tiling_ok ? "yes" : "NO"},
      {"tape files dominated by staging", ">= 1",
       tape_dominated_by_stage ? "yes (" + tape_example + ")" : "NO"},
      {"flame stacks conserve time", "sum == total",
       flame_ok ? "yes" : "NO"},
  };
  bench::print_table(rows);
  std::printf("\nalert root-cause correlation:\n%s", a.alert_story.c_str());

  std::fputs("\n", stdout);
  std::fputs(a.profile.render().c_str(), stdout);
  if (const obs::FileProfile* fp = a.profile.find(tape_example)) {
    std::fputs("\n", stdout);
    std::fputs(obs::render_critical_path(*fp).c_str(), stdout);
  }

  bench::write_bench_json("chaos", rows, a.snapshot, "",
                          obs::profile_to_json(a.profile));

  if (!all_complete || !deterministic || !watchdog_ok || !alerts_ok ||
      !profile_ok) {
    std::printf("\nCHAOS RUN FAILED: %s%s%s%s%s\n",
                all_complete ? "" : "not every file completed; ",
                deterministic ? "" : "same-seed runs diverged; ",
                watchdog_ok ? "" : "run-diff watchdog misbehaved; ",
                alerts_ok ? "" : "during-run alerting contract broken; ",
                profile_ok ? "" : "time-where profile contract broken");
    if (!self_diff.clean()) std::fputs(self_diff.render().c_str(), stdout);
    return 1;
  }
  std::printf(
      "\nevery transfer completed with verified checksums despite %d faults;\n"
      "both same-seed runs produced identical outcomes.\n",
      static_cast<int>(a.faults_injected));
  return 0;
}
