// Campaign bench: fleet-scale replication under chaos.
//
// The paper's challenge problem is moving the CO2 collection between ESG
// sites; this bench scales that story to a fleet: ~100k logical files
// (2000 with --small) replicated from two source sites to four destination
// sites by the campaign driver — per-site queues, dataset round-robin,
// breaker-guided replica selection — while a seeded FaultInjector delivers
// link brownouts, a source-server crash, a loss spike and payload
// corruption.  Checks:
//
//   * zero permanent failures despite the chaos;
//   * two same-seed runs serialize byte-identical campaign manifests
//     (and byte-identical run manifests);
//   * a campaign killed mid-run and resumed from its manifest (to_json,
//     then from_json) in a FRESH simulation transfers nothing twice and
//     converges to the same integrity fingerprint as the uninterrupted run.
//
// Writes BENCH_campaign.json, MANIFEST_campaign.json (run manifest, gated
// against bench/baselines/) and CAMPAIGN_manifest.json (campaign manifest).
#include <cinttypes>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "campaign/driver.hpp"
#include "obs/flame.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "scenario/grid.hpp"

using namespace esg;
using common::Bytes;
using common::kMinute;
using common::kSecond;
using common::SimTime;

namespace {

constexpr std::uint64_t kSeed = 42;
const char* const kDestSites[] = {"anl", "isi", "lanl", "npaci"};

struct Scale {
  int files = 100'000;
  int datasets = 20;
  Bytes min_size = common::kMiB;
  Bytes max_size = 4 * common::kMiB;
  int per_site_concurrency = 8;

  // Per-task tracing (campaign.file root spans feeding the time-where
  // profiler) is on for --small runs; at 100k files the span buffer would
  // need gigabytes, so the full-scale run keeps the flight recorder and
  // metrics only.
  bool trace_tasks() const { return files <= 20'000; }
};

struct Outcome {
  std::uint64_t timeline_hash = 0;
  campaign::IntegrityReport report;
  std::string campaign_json;
  SimTime finished_at = 0;
  double goodput_mbps = 0.0;
  bool completed = false;
  obs::MetricsSnapshot snapshot;
  obs::RunManifest manifest;
  obs::TimeWhereProfile profile;
  std::string manifest_json;
  std::string series_json;  // campaign_* telemetry for BENCH_campaign.json
};

campaign::CampaignCatalog make_catalog(const Scale& scale) {
  campaign::SyntheticCatalogSpec spec;
  spec.name = "co2-fleet";
  spec.seed = kSeed;
  spec.datasets = scale.datasets;
  spec.files = scale.files;
  spec.min_file_size = scale.min_size;
  spec.max_file_size = scale.max_size;
  spec.sources = {{"src-lbnl.host", "camp"}, {"src-ornl.host", "camp"}};
  for (const char* s : kDestSites) spec.destination_sites.push_back(s);
  return campaign::synthetic_catalog(spec);
}

// The whole world lives in one struct so run_world() and the kill/resume
// variant share construction.
struct World {
  scenario::Grid grid;
  sim::FaultInjector injector;

  World(std::uint64_t seed, const campaign::CampaignCatalog& catalog)
      : grid(seed, {.nic = common::gbps(4), .cpu = common::gbps(4),
                    .disk = common::gbps(4)}),
        injector{seed} {
    auto& net = grid.net;
    net.add_site("hub");
    for (const char* site : {"src-lbnl", "src-ornl"}) {
      net.add_site(site);
      net.add_link({.name = std::string(site) + "-uplink", .site_a = site,
                    .site_b = "hub", .capacity = common::gbps(4),
                    .latency = 5 * common::kMillisecond});
    }
    for (const char* site : kDestSites) {
      net.add_site(site);
      net.add_link({.name = std::string(site) + "-uplink", .site_a = site,
                    .site_b = "hub", .capacity = common::gbps(2),
                    .latency = 10 * common::kMillisecond});
    }
    for (const char* site : {"src-lbnl", "src-ornl"}) {
      grid.add_server(std::string(site) + ".host", site);
    }
    for (const char* site : kDestSites) {
      grid.add_client(std::string(site) + ".client", site);
    }
    grid.publish(catalog);

    // Fault plan: a source crash (with restart), brownouts and a loss
    // spike on destination uplinks, corruption at two destinations.
    // Early fault times so even the --small campaign (finishes in ~10 sim
    // seconds) runs its whole life under fire; the full 100k-file run gets
    // the generated extras on top.
    injector
        .add({sim::FaultKind::service_crash, "src-lbnl.host", 4 * kSecond,
              8 * kSecond, 0.0, "source server crash"})
        .add({sim::FaultKind::brownout, "anl-uplink", 2 * kSecond,
              30 * kSecond, 0.4, "anl uplink brownout"})
        .add({sim::FaultKind::loss_spike, "isi-uplink", 6 * kSecond,
              20 * kSecond, 0.004, "isi uplink loss spike"})
        .add({sim::FaultKind::corruption, "lanl.client", 1 * kSecond, 0,
              0.0, "bit flip at lanl"})
        .add({sim::FaultKind::corruption, "npaci.client", 9 * kSecond, 0,
              0.0, "bit flip at npaci"});
    sim::ChaosProfile extras;
    extras.brownout.targets = {"lanl-uplink", "npaci-uplink"};
    extras.brownout.mean_interval = 5 * kMinute;
    extras.brownout.min_duration = 20 * kSecond;
    extras.brownout.max_duration = kMinute;
    extras.brownout.min_magnitude = 0.4;
    extras.brownout.max_magnitude = 0.7;
    injector.generate(extras, 30 * kMinute);
    injector.arm(grid.sim, grid.fault_hooks());
  }

  campaign::CampaignOptions options(const Scale& scale) const {
    campaign::CampaignOptions opts;
    opts.per_site_concurrency = scale.per_site_concurrency;
    opts.transfer.parallelism = 2;
    opts.transfer.buffer_size = common::kMiB;
    opts.transfer.stall_timeout = 10 * kSecond;
    opts.retry.max_attempts = 30;
    opts.retry.retry_backoff = 2 * kSecond;
    opts.retry.max_backoff = 20 * kSecond;
    opts.retry.jitter = 0.25;
    opts.breaker.failure_threshold = 3;
    opts.breaker.cooldown = 15 * kSecond;
    opts.trace_tasks = scale.trace_tasks();
    return opts;
  }
};

Outcome run_world(const Scale& scale, std::uint64_t seed,
                  const campaign::CampaignManifest* resume_from,
                  SimTime kill_at, std::string* killed_manifest_json) {
  const campaign::CampaignCatalog catalog = make_catalog(scale);
  World world(seed, catalog);
  bench::require_seeded(world.grid.seeding_status());
  if (scale.trace_tasks()) {
    // Room for every task's root span plus its transfer/net children and
    // retry attempts — dropping spans would hole the profile.
    world.grid.sim.tracer().set_capacity(
        static_cast<std::size_t>(scale.files) * 256);
  }
  campaign::CampaignDriver driver(
      world.grid.sim, catalog, world.grid.endpoints(), world.options(scale),
      resume_from != nullptr ? *resume_from : campaign::CampaignManifest{});

  Outcome out;
  out.timeline_hash = world.injector.timeline_hash();
  // Stream telemetry while the fleet moves: the per-file latency histogram
  // emits campaign_file_seconds:p50/:p99 series over time, queue depths
  // chart the drain.
  world.grid.sim.start_telemetry(kSecond);
  driver.run([&](const campaign::IntegrityReport& r) {
    out.report = r;
    out.completed = true;
    out.finished_at = world.grid.sim.now();
  });
  if (kill_at > 0) {
    world.grid.sim.schedule_at(kill_at, [&] { driver.abort(); });
  }
  world.grid.sim.run();

  if (kill_at > 0) {
    // The killed run reports nothing; hand back its manifest for resume.
    if (killed_manifest_json != nullptr) {
      *killed_manifest_json = driver.manifest().to_json();
    }
    return out;
  }
  if (!out.completed) return out;  // wedged — zero counts fail the checks

  out.campaign_json = driver.manifest().to_json();
  out.goodput_mbps = common::to_mbps(
      static_cast<double>(out.report.bytes_moved) /
      common::to_seconds(out.finished_at > 0 ? out.finished_at : 1));
  out.snapshot = world.grid.sim.metrics().snapshot(world.grid.sim.now());
  out.manifest = obs::capture_manifest(
      "campaign", seed, "star: 2 source + 4 destination sites around a hub",
      out.timeline_hash, world.grid.sim.flight_recorder(), out.snapshot);
  // Keep the checked-in baseline small: the flight digest + counts pin the
  // event stream; the retained ring (32k events) need not be embedded.
  out.manifest.events.clear();
  out.manifest.set_bench("files_planned", out.report.files_planned);
  out.manifest.set_bench("files_moved", out.report.files_moved);
  out.manifest.set_bench("files_resumed", out.report.files_resumed);
  out.manifest.set_bench("files_failed", out.report.files_failed);
  out.manifest.set_bench("bytes_moved",
                         static_cast<double>(out.report.bytes_moved));
  out.manifest.set_bench("retries", out.report.retries);
  out.manifest.set_bench("goodput_mbps", out.goodput_mbps);
  out.manifest.set_bench("finished_at_s",
                         common::to_seconds(out.finished_at));
  // Gate campaign telemetry drift too: latency quantiles and queue depth
  // histories land in the manifest (small — coarse rollups, capped).
  obs::attach_telemetry(out.manifest, world.grid.sim.telemetry(),
                        world.grid.sim.alerts(),
                        {"campaign_file_seconds:p", "campaign_queue_depth"},
                        12);
  if (scale.trace_tasks()) {
    // Time-where decomposition of every campaign.file span.  The manifest
    // copy is condensed to the tail exemplars' rows (thousands of per-file
    // rows would dwarf the baseline); the shares become gated bench values.
    obs::ProfileOptions popts;
    popts.root_span = "campaign.file";
    out.profile = obs::build_profile(world.grid.sim.tracer(),
                                     world.grid.sim.flight_recorder(), popts);
    obs::attach_profile(out.manifest, out.profile);
    for (std::size_t i = 0; i < obs::kProfileCategories; ++i) {
      const auto c = static_cast<obs::ProfileCategory>(i);
      out.manifest.set_bench(
          std::string("profile_share_") + obs::profile_category_name(c),
          out.profile.share(c));
    }
  }
  out.series_json = bench::telemetry_series_json(
      world.grid.sim.telemetry(),
      {"campaign_file_seconds:p", "campaign_queue_depth",
       "campaign_active_transfers"});
  out.manifest_json = out.manifest.to_json();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Scale scale;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      scale.files = 2000;
      scale.datasets = 10;
    }
  }
  bench::print_header(
      "Replication campaign — fleet-scale transfer under chaos");
  std::printf(
      "%d logical files in %d datasets, 2 source sites -> 4 destination\n"
      "sites via the campaign driver (per-site queues, dataset round-robin,\n"
      "breakers) while a seeded FaultInjector delivers a source crash,\n"
      "brownouts, a loss spike and two corrupted payloads.\n",
      scale.files, scale.datasets);

  Outcome a = run_world(scale, kSeed, nullptr, 0, nullptr);
  Outcome b = run_world(scale, kSeed, nullptr, 0, nullptr);

  // Kill the campaign mid-run, then resume from the saved manifest in a
  // fresh simulation: nothing is transferred twice and the integrity
  // fingerprint converges to the uninterrupted run's.
  const SimTime kill_at = a.finished_at / 3;
  std::string killed_json;
  (void)run_world(scale, kSeed, nullptr, kill_at, &killed_json);
  auto killed = campaign::CampaignManifest::from_json(killed_json);
  Outcome resumed;
  std::size_t killed_completed = 0;
  if (killed.ok()) {
    killed_completed = killed.value().completed_count();
    resumed = run_world(scale, kSeed, &killed.value(), 0, nullptr);
  }

  const bool deterministic = a.completed && b.completed &&
                             a.timeline_hash == b.timeline_hash &&
                             a.finished_at == b.finished_at &&
                             a.campaign_json == b.campaign_json &&
                             a.manifest_json == b.manifest_json;
  const bool all_moved =
      a.completed && a.report.files_failed == 0 &&
      a.report.files_moved == static_cast<std::uint64_t>(scale.files);
  // Transfers the resume run actually performed, from its own metrics: it
  // must be exactly the un-landed remainder — nothing transferred twice.
  const double resumed_transfers =
      resumed.completed
          ? resumed.snapshot.family_total("campaign_files_completed_total")
          : -1.0;
  const double retransferred =
      resumed_transfers -
      static_cast<double>(scale.files - killed_completed);
  const bool resume_ok =
      resumed.completed && resumed.report.files_failed == 0 &&
      resumed.report.files_resumed == killed_completed &&
      resumed.report.files_moved ==
          static_cast<std::uint64_t>(scale.files) &&
      retransferred == 0.0 &&
      resumed.report.fingerprint == a.report.fingerprint &&
      resumed.report.dataset_checksums == a.report.dataset_checksums &&
      resumed.report.bytes_moved == a.report.bytes_moved;

  obs::write_file("MANIFEST_campaign.json", a.manifest_json);
  obs::write_file("CAMPAIGN_manifest.json", a.campaign_json);

  const obs::DriftTolerance tolerance;
  const auto self_diff = obs::diff_manifests(a.manifest, b.manifest,
                                             tolerance);

  // Time-where contract (only when task tracing is on): every campaign.file
  // span tiles exactly into the category self-times, and the flame export
  // conserves the total.
  bool profile_ok = true;
  if (scale.trace_tasks()) {
    profile_ok = a.profile.files.size() ==
                 static_cast<std::size_t>(scale.files);
    for (const auto& fp : a.profile.files) {
      if (fp.category_sum() != fp.total()) {
        profile_ok = false;
        std::printf(
            "  TILING BROKEN %s: categories sum %lld ns, span %lld ns\n",
            fp.file.c_str(), static_cast<long long>(fp.category_sum()),
            static_cast<long long>(fp.total()));
        break;
      }
    }
    long long flame_ns = 0;
    for (const auto& sw : a.profile.stacks) flame_ns += sw.self;
    if (flame_ns != static_cast<long long>(a.profile.total)) {
      profile_ok = false;
    }
  }

  char hash_buf[32];
  std::snprintf(hash_buf, sizeof hash_buf, "%016" PRIx64,
                a.report.fingerprint);
  std::vector<bench::Row> rows = {
      {"files moved", std::to_string(scale.files) + " (all)",
       std::to_string(a.report.files_moved) + " of " +
           std::to_string(scale.files)},
      {"permanent failures", "0", std::to_string(a.report.files_failed)},
      {"bytes moved", "(catalog total)",
       common::format_bytes(a.report.bytes_moved)},
      {"goodput under chaos", "(degraded vs clean)",
       common::format_rate(common::mbps(a.goodput_mbps))},
      {"retries absorbed", "(several)", std::to_string(a.report.retries)},
      {"campaign wall time", "(sim)",
       common::format_time(a.finished_at)},
      {"same-seed campaign manifests identical", "yes",
       a.campaign_json == b.campaign_json ? "yes" : "NO"},
      {"same-seed run manifests identical", "yes",
       a.manifest_json == b.manifest_json ? "yes" : "NO"},
      {"killed run completions", "(partial)",
       std::to_string(killed_completed)},
      {"resume: files re-transferred", "0",
       std::to_string(static_cast<long long>(retransferred))},
      {"resume: integrity fingerprint matches", "yes",
       resume_ok ? "yes" : "NO"},
      {"integrity fingerprint", "(content only)", hash_buf},
      {"run-diff a vs b", "no drift",
       std::to_string(self_diff.drifts.size()) + " drifts over " +
           std::to_string(self_diff.series_compared) + " series"},
  };
  if (scale.trace_tasks()) {
    rows.push_back({"profile tiles every campaign.file span", "exactly",
                    profile_ok ? "yes" : "NO"});
  }
  bench::print_table(rows);
  if (scale.trace_tasks()) {
    std::fputs("\n", stdout);
    std::fputs(a.profile.render().c_str(), stdout);
  } else {
    std::printf("\n(time-where profile skipped at full scale — "
                "run with --small for per-task tracing)\n");
  }
  bench::write_bench_json(
      "campaign", rows, a.snapshot, a.series_json,
      a.manifest.has_profile ? obs::profile_to_json(a.manifest.profile)
                             : "");

  if (!all_moved || !deterministic || !resume_ok || !self_diff.clean() ||
      !profile_ok) {
    std::printf("\nCAMPAIGN RUN FAILED: %s%s%s%s%s\n",
                all_moved ? "" : "not every file moved; ",
                deterministic ? "" : "same-seed runs diverged; ",
                resume_ok ? "" : "kill+resume did not converge; ",
                self_diff.clean() ? "" : "run-diff flagged drift; ",
                profile_ok ? "" : "time-where profile contract broken");
    return 1;
  }
  std::printf(
      "\n%d files landed with verified checksums, %" PRIu64
      " retries absorbed;\nkill+resume converged to the same integrity "
      "fingerprint.\n",
      scale.files, a.report.retries);
  return 0;
}
