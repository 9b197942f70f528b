// fleet / fleet-traced: the bench_campaign world and fault plan, copied as
// data.  A closed loop of 32 transfer slots (8 per destination site) moves
// a synthetic collection from two source sites to four destination sites
// through a hub while a source crashes, links brown out, a loss spike hits
// and two payloads are corrupted.  The event kernel, the fluid solver,
// GridFTP and the campaign driver do nearly all the host work; rm, hrm and
// the catalogs do none.  fleet-traced runs the same path at a fifth of the
// size with per-task spans on, so obs holds most of the memory and does
// most of the post-run work.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/driver.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "sim/chaos.hpp"
#include "storage/storage.hpp"
#include "workloads.hpp"

namespace esg::bench {

namespace {

using common::kMinute;
using common::kSecond;

const char* const kSourceSites[] = {"src-lbnl", "src-ornl"};
const char* const kDestSites[] = {"anl", "isi", "lanl", "npaci"};

// Content fingerprint (campaign::IntegrityReport::fingerprint) of the full
// 100k-file fleet at kDefaultSeed; bench_campaign reports the same value.
// It covers what landed where, not how, so protocol changes keep it while
// any lost or altered file moves it.
constexpr std::uint64_t kPinnedFingerprint = 0xc4de594b4d8f8d58ULL;

struct FleetShape {
  int files;
  int datasets;
  bool trace_tasks;
};

struct FleetWorld {
  sim::Simulation sim;
  net::Network net{sim};
  rpc::Orb orb{net};
  security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  gridftp::ServerRegistry registry;
  std::vector<std::unique_ptr<gridftp::GridFtpServer>> servers;
  std::vector<std::unique_ptr<gridftp::GridFtpClient>> clients;
  std::vector<campaign::SiteEndpoint> endpoints;
  sim::FaultInjector injector;
  std::unique_ptr<campaign::CampaignDriver> driver;

  explicit FleetWorld(std::uint64_t seed) : sim{seed}, injector{seed} {}
};

campaign::CampaignCatalog make_catalog(const FleetShape& shape,
                                       std::uint64_t seed) {
  campaign::SyntheticCatalogSpec spec;
  spec.name = "co2-fleet";
  spec.seed = seed;
  spec.datasets = shape.datasets;
  spec.files = shape.files;
  spec.min_file_size = common::kMiB;
  spec.max_file_size = 4 * common::kMiB;
  spec.sources = {{"src-lbnl.host", "camp"}, {"src-ornl.host", "camp"}};
  for (const char* s : kDestSites) spec.destination_sites.push_back(s);
  return campaign::synthetic_catalog(spec);
}

void build_topology(FleetWorld& w) {
  auto& net = w.net;
  net.add_site("hub");
  for (const char* site : kSourceSites) {
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
  auto add_host = [&](const std::string& name, const std::string& site) {
    return net.add_host({.name = name, .site = site,
                         .nic_rate = common::gbps(4),
                         .cpu_rate = common::gbps(4),
                         .disk_rate = common::gbps(4)});
  };
  for (const char* site : kSourceSites) {
    auto* host = add_host(std::string(site) + ".host", site);
    security::GridMapFile gm;
    gm.add("/O=Grid/CN=esg-user", "esg");
    auto server = std::make_unique<gridftp::GridFtpServer>(
        w.orb, *host, std::make_shared<storage::HostStorage>(), w.ca, gm);
    w.registry.add(server.get());
    w.servers.push_back(std::move(server));
  }
  for (const char* site : kDestSites) {
    auto* host = add_host(std::string(site) + ".client", site);
    security::CredentialWallet wallet;
    wallet.set_identity(
        w.ca.issue("/O=Grid/CN=esg-user", 0, 1000 * common::kHour));
    w.clients.push_back(std::make_unique<gridftp::GridFtpClient>(
        w.orb, *host, std::make_shared<storage::HostStorage>(),
        std::move(wallet), w.registry));
    w.endpoints.push_back({site, w.clients.back().get(), "replica"});
  }
}

void populate_sources(FleetWorld& w,
                      const campaign::CampaignCatalog& catalog) {
  for (auto& server : w.servers) {
    for (const auto& f : catalog.files) {
      (void)server->storage().put(
          storage::FileObject::synthetic("camp/" + f.name, f.size));
    }
  }
}

// bench_campaign's fault plan: a source crash with restart, brownouts and a
// loss spike on destination uplinks, corruption at two destinations, plus
// seeded brownouts over the first half hour.
void arm_faults(FleetWorld& w) {
  w.injector
      .add({sim::FaultKind::service_crash, "src-lbnl.host", 4 * kSecond,
            8 * kSecond, 0.0, "source server crash"})
      .add({sim::FaultKind::brownout, "anl-uplink", 2 * kSecond,
            30 * kSecond, 0.4, "anl uplink brownout"})
      .add({sim::FaultKind::loss_spike, "isi-uplink", 6 * kSecond,
            20 * kSecond, 0.004, "isi uplink loss spike"})
      .add({sim::FaultKind::corruption, "lanl.client", 1 * kSecond, 0, 0.0,
            "bit flip at lanl"})
      .add({sim::FaultKind::corruption, "npaci.client", 9 * kSecond, 0, 0.0,
            "bit flip at npaci"});
  sim::ChaosProfile extras;
  extras.brownout.targets = {"lanl-uplink", "npaci-uplink"};
  extras.brownout.mean_interval = 5 * kMinute;
  extras.brownout.min_duration = 20 * kSecond;
  extras.brownout.max_duration = kMinute;
  extras.brownout.min_magnitude = 0.4;
  extras.brownout.max_magnitude = 0.7;
  w.injector.generate(extras, 30 * kMinute);

  sim::FaultHooks hooks;
  hooks.brownout = [&w](const sim::FaultEvent& e, bool begin) {
    if (auto* link = w.net.find_link(e.target)) {
      w.net.set_link_brownout(*link, begin ? e.magnitude : 1.0);
    }
  };
  hooks.loss_spike = [&w](const sim::FaultEvent& e, bool begin) {
    if (auto* link = w.net.find_link(e.target)) {
      w.net.set_link_loss(*link, begin ? e.magnitude : link->nominal_loss());
    }
  };
  hooks.service_crash = [&w](const sim::FaultEvent& e, bool begin) {
    for (auto& server : w.servers) {
      if (server->host().name() == e.target) {
        begin ? server->crash() : server->restart();
      }
    }
  };
  hooks.corruption = [&w](const sim::FaultEvent& e) {
    for (auto& client : w.clients) {
      if (client->local_host().name() == e.target) {
        client->inject_corruption(1);
      }
    }
  };
  w.injector.arm(w.sim, std::move(hooks));
}

campaign::CampaignOptions campaign_options(bool trace_tasks) {
  campaign::CampaignOptions opts;
  opts.per_site_concurrency = 8;
  opts.transfer.parallelism = 2;
  opts.transfer.buffer_size = common::kMiB;
  opts.transfer.stall_timeout = 10 * kSecond;
  opts.retry.max_attempts = 30;
  opts.retry.retry_backoff = 2 * kSecond;
  opts.retry.max_backoff = 20 * kSecond;
  opts.retry.jitter = 0.25;
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown = 15 * kSecond;
  opts.trace_tasks = trace_tasks;
  return opts;
}

std::unique_ptr<FleetWorld> build_world(const FleetShape& shape,
                                        std::uint64_t seed,
                                        WallTrace& trace) {
  campaign::CampaignCatalog catalog;
  {
    auto sp = trace.span("setup.catalog");
    catalog = make_catalog(shape, seed);
  }
  std::unique_ptr<FleetWorld> w;
  {
    auto sp = trace.span("setup.world");
    w = std::make_unique<FleetWorld>(seed);
    build_topology(*w);
  }
  {
    auto sp = trace.span("setup.storage");
    populate_sources(*w, catalog);
  }
  {
    auto sp = trace.span("setup.faults");
    arm_faults(*w);
  }
  {
    auto sp = trace.span("setup.driver");
    if (shape.trace_tasks) {
      // Room for every task's root span plus its transfer/net children
      // and retry attempts: a dropped span would hole the profile.
      w->sim.tracer().set_capacity(static_cast<std::size_t>(shape.files) *
                                   256);
    }
    w->driver = std::make_unique<campaign::CampaignDriver>(
        w->sim, std::move(catalog), w->endpoints,
        campaign_options(shape.trace_tasks));
  }
  return w;
}

}  // namespace

RunResult run_fleet(const Options& options, bool traced_fleet,
                    WallTrace& trace) {
  const FleetShape shape =
      traced_fleet
          ? FleetShape{scaled(20'000, options.scale), 10, options.task_tracing}
          : FleetShape{scaled(100'000, options.scale), 20, false};
  const auto files = static_cast<std::uint64_t>(shape.files);
  RunResult out;
  EndToEnd e2e;
  WorldLayers world_layers;
  LayerCounters layers;
  PhaseAllocs allocs;
  double manifest_kb = 0.0;

  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    const std::string where = "round " + std::to_string(round) + ": ";
    const std::uint64_t a_setup = allocations();
    const auto t_setup = WallTrace::Clock::now();
    std::unique_ptr<FleetWorld> w;
    {
      auto sp = trace.span("setup");
      w = build_world(shape, seed, trace);
    }
    const double setup_s = seconds_since(t_setup);
    campaign::CampaignDriver& driver = *w->driver;

    // ---- run: the first workload event through the report ----
    const std::uint64_t a_run = allocations();
    const auto t_run = WallTrace::Clock::now();
    campaign::IntegrityReport report;
    bool completed = false;
    common::SimTime finished_at = 0;
    double sim_wall_s = 0.0;
    {
      auto sp = trace.span("run.sim");
      // Stream telemetry while the fleet moves (queue depths, per-file
      // latency histograms), as bench_campaign does.
      w->sim.start_telemetry(kSecond);
      driver.run([&](const campaign::IntegrityReport& r) {
        report = r;
        completed = true;
        finished_at = w->sim.now();
      });
      w->sim.run();
      sim_wall_s = seconds_since(t_run);
    }
    const std::uint64_t a_report = allocations();
    obs::RunManifest manifest;
    obs::MetricsSnapshot snapshot;
    std::string json;
    {
      auto report_span = trace.span("report");
      {
        auto sp = trace.span("report.manifest");
        snapshot = w->sim.metrics().snapshot(w->sim.now());
        manifest = obs::capture_manifest(
            "fleet", seed, "star: 2 source + 4 destination sites around a hub",
            w->injector.timeline_hash(), w->sim.flight_recorder(), snapshot);
      }
      if (shape.trace_tasks) {
        auto sp = trace.span("report.profile");
        obs::ProfileOptions popts;
        popts.root_span = "campaign.file";
        const obs::TimeWhereProfile profile = obs::build_profile(
            w->sim.tracer(), w->sim.flight_recorder(), popts);
        obs::attach_profile(manifest, profile);
        add_profile(profile, out);
      }
      auto sp = trace.span("report.json");
      json = manifest.to_json();
    }
    const double run_s = seconds_since(t_run);
    allocs.setup += a_run - a_setup;
    allocs.run += a_report - a_run;
    allocs.report += allocations() - a_report;

    // ---- correctness: every landed copy matches its source object ----
    const auto& catalog = driver.catalog();
    std::uint64_t mismatched = 0;
    for (const auto& f : catalog.files) {
      gridftp::GridFtpClient* client = nullptr;
      for (const auto& e : w->endpoints) {
        if (e.site == f.destination_site) client = e.client;
      }
      if (client == nullptr) {
        ++mismatched;
        continue;
      }
      auto landed = client->local_storage().get("replica/" + f.name);
      auto source = w->servers.front()->storage().get("camp/" + f.name);
      if (!landed.ok() || !source.ok() ||
          storage::file_checksum(landed.value()) !=
              storage::file_checksum(source.value())) {
        ++mismatched;
      }
    }
    out.check(completed, where + "campaign did not complete");
    out.check(report.files_failed == 0,
              where + std::to_string(report.files_failed) + " files failed");
    out.check(report.files_moved == files,
              where + std::to_string(report.files_moved) + " of " +
                  std::to_string(files) + " files moved");
    out.check(mismatched == 0, where + std::to_string(mismatched) +
                                   " landed files differ from their source");
    // Without per-task spans the tracer's default buffer overflows at fleet
    // size, as in bench_campaign; only a profiled run needs every span.
    out.check(!shape.trace_tasks || w->sim.tracer().dropped() == 0,
              where + "tracer dropped spans under the profile");
    if (!traced_fleet && seed == kDefaultSeed && options.scale == 1.0) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "content fingerprint %016" PRIx64 " != pinned %016" PRIx64,
                    report.fingerprint, kPinnedFingerprint);
      out.check(report.fingerprint == kPinnedFingerprint, where + buf);
    }
    out.attempted += files;
    out.failed += completed ? std::max<std::uint64_t>(report.files_failed,
                                                      mismatched)
                            : files;

    // Every file of the campaign is due at t = 0, so a file's latency is
    // the time its copy landed.
    std::vector<double> landed_at;
    landed_at.reserve(driver.manifest().completed.size());
    for (const auto& t : driver.manifest().completed) {
      landed_at.push_back(common::to_seconds(t.finished_at));
    }
    e2e.add_round(setup_s, run_s, common::to_seconds(finished_at),
                  static_cast<double>(report.bytes_moved), landed_at);
    world_layers.add(w->sim, w->net, sim_wall_s);
    layers.add(snapshot);
    manifest_kb += static_cast<double>(json.size()) / 1024.0;
  }

  const double all_files = static_cast<double>(out.attempted);
  e2e.emit(out);
  world_layers.emit(all_files, out);
  layers.emit(out);
  out.set("obs.manifest_kb", manifest_kb);
  emit_host(allocs, e2e.run_s, all_files, out);
  emit_span_timings(trace, out);
  if (trace.enabled()) {
    out.set("campaign.catalog_s", median(trace.durations("setup.catalog")));
    out.set("campaign.plan_s", median(trace.durations("setup.driver")));
  }
  return out;
}

}  // namespace esg::bench
