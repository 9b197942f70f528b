// archive: analysis reads against the ESG archive.  An open loop of
// independent users sends requests on a Poisson schedule through the
// request manager (paper §4): each request names four distinct files, drawn
// Zipf(1.0) so popular months are read again and again, and three in ten
// requests include one tape-only file that HRM must stage from HPSS.  The
// world is bench_chaos's: client, hub, lbnl and isi around a star, HPSS at
// lbnl with two drives, the replica catalog and MDS served over directory
// RPC, and bench_chaos's scripted faults plus seeded brownouts, GridFTP and
// HRM crashes, tape stalls and corruption across the whole arrival window.
// rm, hrm/tape, replica/directory/mds/rpc and the breakers do most of the
// work; the network does little.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "directory/service.hpp"
#include "hrm/hrm.hpp"
#include "mds/mds.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "replica/catalog.hpp"
#include "rm/request_manager.hpp"
#include "sim/chaos.hpp"
#include "storage/storage.hpp"
#include "workloads.hpp"

namespace esg::bench {

namespace {

using common::kMinute;
using common::kSecond;

constexpr const char* kCollection = "archive";
constexpr common::Bytes kFileSize = 50'000'000;
constexpr int kFilesPerRequest = 4;
constexpr double kTapeShare = 0.3;
constexpr double kMeanInterarrivalS = 20.0;

std::string disk_name(int i) { return "month." + std::to_string(i) + ".ncx"; }
std::string tape_name(int i) { return "deep." + std::to_string(i) + ".ncx"; }

struct Request {
  common::SimDuration due = 0;  // after the workload starts
  std::vector<int> disk;        // disk file indexes
  int tape = -1;                // tape file index, -1 = none
};

/// Everything the workload is made of, generated from the seed alone.
struct ArchiveInputs {
  int disk_files = 0;
  int tape_files = 0;
  common::SimDuration horizon = 0;
  std::vector<Request> requests;
};

/// Zipf(1.0) over ranks 0..n-1 by inverse CDF; rank 0 is the most popular.
class Zipf {
 public:
  explicit Zipf(int n) : cdf_(static_cast<std::size_t>(n)) {
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
      sum += 1.0 / (k + 1);
      cdf_[static_cast<std::size_t>(k)] = sum;
    }
  }
  int draw(common::Rng& rng) const {
    const double u = rng.uniform() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

ArchiveInputs make_inputs(const Options& options, std::uint64_t seed) {
  ArchiveInputs in;
  in.disk_files = scaled(4000, options.scale, 8);
  in.tape_files = scaled(400, options.scale, 4);
  const int n = scaled(1200, options.scale, 4);
  // A Poisson process conditioned on n arrivals in a fixed window: the
  // arrival times are n sorted uniform draws, so the mean gap is 20 s and
  // the window (and with it the makespan) does not wander with the seed.
  in.horizon = static_cast<common::SimDuration>(n * kMeanInterarrivalS *
                                                static_cast<double>(kSecond));
  common::Rng rng(seed);
  std::vector<common::SimDuration> due(static_cast<std::size_t>(n));
  for (auto& d : due) {
    d = static_cast<common::SimDuration>(rng.uniform() *
                                         static_cast<double>(in.horizon));
  }
  std::sort(due.begin(), due.end());
  const Zipf disk_pop(in.disk_files);
  const Zipf tape_pop(in.tape_files);
  for (int i = 0; i < n; ++i) {
    Request r;
    r.due = due[static_cast<std::size_t>(i)];
    if (rng.uniform() < kTapeShare) r.tape = tape_pop.draw(rng);
    const int want = kFilesPerRequest - (r.tape >= 0 ? 1 : 0);
    while (static_cast<int>(r.disk.size()) < want) {
      const int f = disk_pop.draw(rng);
      if (std::find(r.disk.begin(), r.disk.end(), f) == r.disk.end()) {
        r.disk.push_back(f);
      }
    }
    in.requests.push_back(std::move(r));
  }
  return in;
}

struct Outcome {
  bool done = false;
  common::SimTime due = 0;
  rm::RequestResult result;
};

struct ArchiveWorld {
  sim::Simulation sim;
  net::Network net{sim};
  rpc::Orb orb{net};
  security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  gridftp::ServerRegistry registry;
  net::Host* client_host = nullptr;
  net::Host* catalog_host = nullptr;
  net::Host* mds_host = nullptr;
  std::unique_ptr<gridftp::GridFtpServer> lbnl;
  std::unique_ptr<gridftp::GridFtpServer> isi;
  std::unique_ptr<gridftp::GridFtpServer> mss;
  std::unique_ptr<hrm::HrmService> hrm;
  std::unique_ptr<gridftp::GridFtpClient> client;
  std::unique_ptr<directory::DirectoryService> directory;
  std::unique_ptr<mds::MdsService> mds;
  std::unique_ptr<replica::ReplicaCatalog> catalog;
  sim::FaultInjector injector;
  std::unique_ptr<rm::RequestManager> manager;
  common::SimTime start = 0;  // sim time the arrival window opens
  std::vector<Outcome> outcomes;

  explicit ArchiveWorld(std::uint64_t seed) : sim{seed}, injector{seed} {}
};

void build_topology(ArchiveWorld& w, const ArchiveInputs& in) {
  auto& net = w.net;
  for (const char* site : {"client-site", "hub", "lbnl", "isi"}) {
    net.add_site(site);
  }
  net.add_link({.name = "client-uplink", .site_a = "client-site",
                .site_b = "hub", .capacity = common::mbps(200),
                .latency = 5 * common::kMillisecond});
  net.add_link({.name = "lbnl-uplink", .site_a = "lbnl", .site_b = "hub",
                .capacity = common::mbps(150),
                .latency = 5 * common::kMillisecond});
  net.add_link({.name = "isi-uplink", .site_a = "isi", .site_b = "hub",
                .capacity = common::mbps(150),
                .latency = 5 * common::kMillisecond});
  auto add_host = [&](const char* name, const char* site) {
    return net.add_host({.name = name, .site = site,
                         .nic_rate = common::gbps(1),
                         .cpu_rate = common::gbps(1),
                         .disk_rate = common::gbps(1)});
  };
  w.client_host = add_host("client", "client-site");
  w.catalog_host = add_host("catalog.host", "lbnl");
  w.mds_host = add_host("mds.host", "lbnl");
  auto make_server = [&](const char* name, const char* site) {
    auto* host = add_host(name, site);
    security::GridMapFile gm;
    gm.add("/O=Grid/CN=esg-user", "esg");
    auto server = std::make_unique<gridftp::GridFtpServer>(
        w.orb, *host, std::make_shared<storage::HostStorage>(), w.ca,
        std::move(gm));
    w.registry.add(server.get());
    return server;
  };
  w.lbnl = make_server("lbnl.host", "lbnl");
  w.isi = make_server("isi.host", "isi");
  w.mss = make_server("hpss.lbl.gov", "lbnl");

  hrm::HrmConfig hcfg;
  // A quarter of the tape set fits in the HRM's disk cache.
  hcfg.cache_capacity = static_cast<common::Bytes>(in.tape_files) * kFileSize / 4;
  hcfg.tape.drives = 2;
  hcfg.tape.mount_time = 10 * kSecond;
  hcfg.tape.avg_seek = 5 * kSecond;
  hcfg.tape.read_rate = common::mbps(400);
  w.hrm = std::make_unique<hrm::HrmService>(w.orb, w.mss->host(),
                                            w.mss->storage_ptr(), hcfg);

  security::CredentialWallet wallet;
  wallet.set_identity(
      w.ca.issue("/O=Grid/CN=esg-user", 0, 1000 * common::kHour));
  w.client = std::make_unique<gridftp::GridFtpClient>(
      w.orb, *w.client_host, std::make_shared<storage::HostStorage>(),
      std::move(wallet), w.registry);
  w.directory = std::make_unique<directory::DirectoryService>(
      w.orb, *w.catalog_host, std::make_shared<directory::DirectoryServer>());
  w.mds = std::make_unique<mds::MdsService>(w.orb, *w.mds_host);
}

void populate_storage(ArchiveWorld& w, const ArchiveInputs& in) {
  for (int i = 0; i < in.disk_files; ++i) {
    for (auto* server : {w.lbnl.get(), w.isi.get()}) {
      (void)server->storage().put(
          storage::FileObject::synthetic("co2/" + disk_name(i), kFileSize));
    }
  }
  for (int i = 0; i < in.tape_files; ++i) {
    w.hrm->archive(
        storage::FileObject::synthetic("archive/" + tape_name(i), kFileSize));
  }
}

// Register every file and its locations in the replica catalog and publish
// the MDS forecasts, then drain those RPCs before the workload starts.
void seed_catalog(ArchiveWorld& w, const ArchiveInputs& in) {
  w.catalog = std::make_unique<replica::ReplicaCatalog>(
      directory::DirectoryClient(w.orb, *w.client_host, *w.catalog_host),
      "esg");
  auto& catalog = *w.catalog;
  catalog.create_catalog([](common::Status) {});
  catalog.create_collection(kCollection, [](common::Status) {});
  replica::LocationInfo lbnl{};
  lbnl.name = "lbnl-disk";
  lbnl.hostname = "lbnl.host";
  lbnl.path = "co2";
  replica::LocationInfo isi = lbnl;
  isi.name = "isi-disk";
  isi.hostname = "isi.host";
  replica::LocationInfo mss{};
  mss.name = "lbnl-hpss";
  mss.hostname = "hpss.lbl.gov";
  mss.path = "archive";
  mss.storage_type = "mss";
  for (int i = 0; i < in.disk_files; ++i) {
    const std::string name = disk_name(i);
    catalog.register_logical_file(kCollection, {name, kFileSize},
                                  [](common::Status) {});
    lbnl.files.push_back(name);
    isi.files.push_back(name);
  }
  for (int i = 0; i < in.tape_files; ++i) {
    const std::string name = tape_name(i);
    catalog.register_logical_file(kCollection, {name, kFileSize},
                                  [](common::Status) {});
    mss.files.push_back(name);
  }
  catalog.register_location(kCollection, lbnl, [](common::Status) {});
  catalog.register_location(kCollection, isi, [](common::Status) {});
  catalog.register_location(kCollection, mss, [](common::Status) {});

  auto mds = mds::MdsClient(w.orb, *w.client_host, *w.mds_host);
  for (const auto& [src, bw] :
       std::vector<std::pair<std::string, common::Rate>>{
           {"lbnl.host", common::mbps(120)},
           {"isi.host", common::mbps(80)},
           {"hpss.lbl.gov", common::mbps(100)}}) {
    mds::NetworkRecord rec;
    rec.src_host = src;
    rec.dst_host = "client";
    rec.bandwidth = bw;
    rec.latency = 10 * common::kMillisecond;
    mds.publish_network(rec, [](common::Status) {});
  }
  w.sim.run();
  w.start = w.sim.now();
}

// bench_chaos's scripted faults, then seeded extras across the whole
// arrival window.
void arm_faults(ArchiveWorld& w, const ArchiveInputs& in) {
  w.injector
      .add({sim::FaultKind::brownout, "lbnl-uplink", 15 * kSecond,
            60 * kSecond, 0.3, "lbnl uplink brownout"})
      .add({sim::FaultKind::stage_stall, "tape", 20 * kSecond, 50 * kSecond,
            0.0, "tape robot arm jam"})
      .add({sim::FaultKind::service_crash, "lbnl.host", 40 * kSecond,
            45 * kSecond, 0.0, "lbnl GridFTP crash"})
      .add({sim::FaultKind::service_crash, "hpss.lbl.gov", 70 * kSecond,
            25 * kSecond, 0.0, "HRM crash"})
      .add({sim::FaultKind::loss_spike, "client-uplink", 90 * kSecond,
            40 * kSecond, 0.005, "client uplink loss spike"})
      .add({sim::FaultKind::corruption, "client", 10 * kSecond, 0, 0.0,
            "bit flip"})
      .add({sim::FaultKind::corruption, "client", 120 * kSecond, 0, 0.0,
            "bit flip"});
  sim::ChaosProfile extras;
  extras.brownout.targets = {"isi-uplink", "lbnl-uplink"};
  extras.brownout.mean_interval = 4 * kMinute;
  extras.brownout.min_duration = 20 * kSecond;
  extras.brownout.max_duration = kMinute;
  extras.brownout.min_magnitude = 0.4;
  extras.brownout.max_magnitude = 0.7;
  // Generated GridFTP crashes spare isi.host: a GridFTP client keeps its
  // cached session across a server restart it did not see fail, so once
  // both replica servers have restarted behind its back every GET fails
  // with "530 not logged in" and files run out of attempts.
  extras.service_crash.targets = {"lbnl.host"};
  extras.service_crash.mean_interval = 20 * kMinute;
  extras.service_crash.min_duration = 10 * kSecond;
  extras.service_crash.max_duration = 40 * kSecond;
  extras.stage_stall.targets = {"tape"};
  extras.stage_stall.mean_interval = 30 * kMinute;
  extras.stage_stall.min_duration = 20 * kSecond;
  extras.stage_stall.max_duration = kMinute;
  extras.corruption.targets = {"client"};
  extras.corruption.mean_interval = 10 * kMinute;
  w.injector.generate(extras, w.start + in.horizon);
  // A stage request sent to a crashed HRM waits out the RM's default
  // 30-minute stage timeout, and the default 3 stage attempts survive that
  // only once.  The scripted crash already leaves early tape requests one
  // timeout in, all retrying at the same instant half an hour later, so
  // generated HRM outages are rare and brief enough that a retry almost
  // never lands in one.
  sim::ChaosProfile hrm_crashes;
  hrm_crashes.service_crash.targets = {"hpss.lbl.gov"};
  hrm_crashes.service_crash.mean_interval = 2 * common::kHour;
  hrm_crashes.service_crash.min_duration = kSecond;
  hrm_crashes.service_crash.max_duration = 3 * kSecond;
  w.injector.generate(hrm_crashes, w.start + in.horizon);

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
    if (e.target == "hpss.lbl.gov") {
      begin ? w.hrm->crash() : w.hrm->restart();
      return;
    }
    for (auto* server : {w.lbnl.get(), w.isi.get()}) {
      if (server->host().name() == e.target) {
        begin ? server->crash() : server->restart();
      }
    }
  };
  hooks.stage_stall = [&w](const sim::FaultEvent&, bool begin) {
    w.hrm->tape().set_stalled(begin);
  };
  hooks.corruption = [&w](const sim::FaultEvent&) {
    w.client->inject_corruption(1);
  };
  w.injector.arm(w.sim, std::move(hooks));
}

// bench_chaos's transfer and reliability options; stage timeout and stage
// retry stay at the request manager's defaults.
rm::RequestOptions request_options(std::size_t index) {
  rm::RequestOptions opts;
  opts.local_path_prefix = "req" + std::to_string(index);
  opts.transfer.buffer_size = 4 * common::kMiB;
  opts.transfer.parallelism = 2;
  opts.transfer.stall_timeout = 10 * kSecond;
  opts.reliability.max_attempts = 40;
  opts.reliability.retry_backoff = 2 * kSecond;
  opts.reliability.max_backoff = 30 * kSecond;
  opts.reliability.jitter = 0.25;
  opts.max_concurrent = 8;
  return opts;
}

void schedule_requests(ArchiveWorld& w, const ArchiveInputs& in) {
  rm::BreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 30 * kSecond;
  w.manager = std::make_unique<rm::RequestManager>(
      w.orb, *w.client_host, *w.catalog,
      mds::MdsClient(w.orb, *w.client_host, *w.mds_host), *w.client, nullptr,
      breaker);
  const std::size_t files = in.requests.size() * kFilesPerRequest;
  // Every file worker records its rm.file span tree; a dropped span would
  // hole the profile.
  w.sim.tracer().set_capacity(files * 256);
  w.outcomes.assign(in.requests.size(), {});
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const Request& r = in.requests[i];
    std::vector<rm::FileRequest> wanted;
    for (int f : r.disk) wanted.push_back({kCollection, disk_name(f)});
    if (r.tape >= 0) wanted.push_back({kCollection, tape_name(r.tape)});
    const common::SimTime due = w.start + r.due;
    w.outcomes[i].due = due;
    w.sim.schedule_at(due, [&w, i, wanted = std::move(wanted)]() mutable {
      w.manager->submit(std::move(wanted), request_options(i),
                        [&w, i](rm::RequestResult result) {
                          w.outcomes[i].result = std::move(result);
                          w.outcomes[i].done = true;
                        });
    });
  }
}

std::unique_ptr<ArchiveWorld> build_world(const ArchiveInputs& in,
                                          std::uint64_t seed,
                                          WallTrace& trace) {
  std::unique_ptr<ArchiveWorld> w;
  {
    auto sp = trace.span("setup.world");
    w = std::make_unique<ArchiveWorld>(seed);
    build_topology(*w, in);
  }
  {
    auto sp = trace.span("setup.storage");
    populate_storage(*w, in);
  }
  {
    auto sp = trace.span("setup.catalog_seed");
    seed_catalog(*w, in);
  }
  {
    auto sp = trace.span("setup.faults");
    arm_faults(*w, in);
  }
  {
    auto sp = trace.span("setup.driver");
    schedule_requests(*w, in);
  }
  return w;
}

}  // namespace

RunResult run_archive(const Options& options, WallTrace& trace) {
  RunResult out;
  EndToEnd e2e;
  WorldLayers world_layers;
  LayerCounters layers;
  PhaseAllocs allocs;
  double manifest_kb = 0.0;
  double tape_mounts = 0.0;
  double stages_completed = 0.0;

  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    const std::string where = "round " + std::to_string(round) + ": ";
    const std::uint64_t a_setup = allocations();
    const auto t_setup = WallTrace::Clock::now();
    ArchiveInputs in;
    std::unique_ptr<ArchiveWorld> w;
    {
      auto setup_span = trace.span("setup");
      {
        auto sp = trace.span("setup.catalog");
        in = make_inputs(options, seed);
      }
      w = build_world(in, seed, trace);
    }
    const double setup_s = seconds_since(t_setup);

    // ---- run ----
    const std::uint64_t a_run = allocations();
    const auto t_run = WallTrace::Clock::now();
    double sim_wall_s = 0.0;
    {
      auto sp = trace.span("run.sim");
      w->sim.start_telemetry(kSecond);
      w->sim.run();
      sim_wall_s = seconds_since(t_run);
    }
    const std::uint64_t a_report = allocations();
    obs::MetricsSnapshot snapshot;
    obs::RunManifest manifest;
    std::string json;
    {
      auto report_span = trace.span("report");
      {
        auto sp = trace.span("report.manifest");
        snapshot = w->sim.metrics().snapshot(w->sim.now());
        manifest = obs::capture_manifest(
            "archive", seed, "star: client-site/hub/lbnl/isi, 3 uplinks",
            w->injector.timeline_hash(), w->sim.flight_recorder(), snapshot);
      }
      {
        auto sp = trace.span("report.profile");
        const obs::TimeWhereProfile profile =
            obs::build_profile(w->sim.tracer(), w->sim.flight_recorder());
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

    // ---- correctness: every file landed intact, through the storage ----
    // Tape files have no server copy to read back until staged, so their
    // source is the object populate_storage() archived; synthetic checksums
    // cover size and damage only, so one stands for all of them.
    const std::uint64_t tape_checksum = storage::file_checksum(
        storage::FileObject::synthetic("archive/" + tape_name(0), kFileSize));
    std::uint64_t files = 0;
    std::uint64_t failed_files = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t unfinished = 0;
    std::string first_failure;
    common::Bytes bytes = 0;
    common::SimTime last_done = w->start;
    std::vector<double> latency;
    for (const Outcome& o : w->outcomes) {
      files += kFilesPerRequest;
      if (!o.done) {
        ++unfinished;
        failed_files += kFilesPerRequest;
        continue;
      }
      latency.push_back(common::to_seconds(o.result.finished - o.due));
      last_done = std::max(last_done, o.result.finished);
      bytes += o.result.total_bytes;
      for (const auto& f : o.result.files) {
        if (!f.status.ok()) {
          if (failed_files == 0) {
            first_failure = f.request.filename + ": " +
                            f.status.error().to_string();
          }
          ++failed_files;
          continue;
        }
        auto landed = w->client->local_storage().get(f.local_name);
        std::uint64_t expected = tape_checksum;
        if (f.request.filename.rfind("deep.", 0) != 0) {
          auto source = w->lbnl->storage().get("co2/" + f.request.filename);
          expected = source.ok() ? storage::file_checksum(source.value()) : 0;
        }
        if (!landed.ok() ||
            storage::file_checksum(landed.value()) != expected) {
          ++mismatched;
        }
      }
    }
    out.check(unfinished == 0,
              where + std::to_string(unfinished) + " requests never completed");
    out.check(failed_files == 0, where + std::to_string(failed_files) +
                                     " files failed, first " + first_failure);
    out.check(mismatched == 0, where + std::to_string(mismatched) +
                                   " landed files differ from their source");
    out.check(w->sim.tracer().dropped() == 0, where + "tracer dropped spans");
    out.attempted += files;
    out.failed += failed_files + mismatched;

    // Each request is timed from when it was due; the makespan runs from
    // the first arrival slot to the last completion.
    e2e.add_round(setup_s, run_s, common::to_seconds(last_done - w->start),
                  static_cast<double>(bytes), latency);
    world_layers.add(w->sim, w->net, sim_wall_s);
    layers.add(snapshot);
    tape_mounts += static_cast<double>(w->hrm->tape().mounts());
    stages_completed += static_cast<double>(w->hrm->tape().stages_completed());
    manifest_kb += static_cast<double>(json.size()) / 1024.0;
  }

  const double all_files = static_cast<double>(out.attempted);
  e2e.emit(out);
  world_layers.emit(all_files, out);
  layers.emit(out);
  out.set("hrm.tape_mounts", tape_mounts);
  out.set("hrm.stages_completed", stages_completed);
  out.set("obs.manifest_kb", manifest_kb);
  emit_host(allocs, e2e.run_s, all_files, out);
  emit_span_timings(trace, out);
  return out;
}

}  // namespace esg::bench
