#include "esg/testbed.hpp"

#include "climate/subset.hpp"

namespace esg::esg {

using common::Errc;
using common::Error;
using common::Status;
using common::kMillisecond;
using common::kSecond;

namespace {

// Fig 7's hosts: interrupt-limited data servers with RAID-backed disks
// (the grid-wide rates), the scientist's desktop, and the directory hosts.
constexpr scenario::HostRates kDataServerRates{
    .nic = common::gbps(1), .cpu = common::mbps(750),
    .disk = common::mbps(500)};
constexpr scenario::HostRates kDesktopRates{
    .nic = common::gbps(1), .cpu = common::gbps(1),
    .disk = common::mbps(800)};
constexpr scenario::HostRates kDirectoryRates{
    .nic = common::gbps(1), .cpu = common::mbps(700),
    .disk = common::mbps(400)};

}  // namespace

EsgTestbed::EsgTestbed(TestbedConfig config)
    : Grid(config.seed, kDataServerRates),
      config_(config),
      model_(climate::ModelConfig{config.grid, config.seed, 1995}) {
  for (const char* site :
       {"dcc", "la", "berkeley", "llnl", "isi", "sdsc", "anl", "ncar"}) {
    net.add_site(site);
  }
  // SC'2000-era connectivity (Fig 7): HSCC Dallas->LA, NTON LA->Berkeley,
  // OC-12 spurs, Abilene to the midwest with light loss.
  net.add_link({.name = "hscc", .site_a = "dcc", .site_b = "la",
                .capacity = common::gbps(2.5), .latency = 10 * kMillisecond});
  net.add_link({.name = "nton", .site_a = "la", .site_b = "berkeley",
                .capacity = common::gbps(2.5), .latency = 8 * kMillisecond});
  net.add_link({.name = "isi-uplink", .site_a = "isi", .site_b = "la",
                .capacity = common::gbps(1), .latency = kMillisecond});
  net.add_link({.name = "sdsc-uplink", .site_a = "sdsc", .site_b = "la",
                .capacity = common::mbps(622), .latency = 3 * kMillisecond});
  net.add_link({.name = "llnl-uplink", .site_a = "llnl", .site_b = "berkeley",
                .capacity = common::mbps(622), .latency = 2 * kMillisecond});
  // Loss on the Abilene path drives the parallel-stream benefit there.
  net.add_link({.name = "abilene", .site_a = "dcc", .site_b = "anl",
                .capacity = common::mbps(622), .latency = 25 * kMillisecond,
                .loss = 5e-5});
  net.add_link({.name = "anl-ncar", .site_a = "anl", .site_b = "ncar",
                .capacity = common::mbps(622), .latency = 15 * kMillisecond});

  // Hosts in this order: it fixes their fluid resource ids.
  add_client("vcdat.dcc.org", "dcc", kDesktopRates);
  add_catalog("ldap.mcs.anl.gov", "anl", kDirectoryRates);
  metadata_host_ = net.add_host({.name = "cdms.llnl.gov", .site = "llnl",
                                 .nic_rate = kDirectoryRates.nic,
                                 .cpu_rate = kDirectoryRates.cpu,
                                 .disk_rate = kDirectoryRates.disk});
  metadata_service_ = std::make_unique<directory::DirectoryService>(
      orb, *metadata_host_, std::make_shared<directory::DirectoryServer>());
  add_mds("mds.isi.edu", "isi", kDirectoryRates);
  for (const auto& [host, site] :
       {std::pair{"pdsf.lbl.gov", "berkeley"},
        std::pair{"clipper.lbl.gov", "berkeley"},
        std::pair{"sprite.llnl.gov", "llnl"},
        std::pair{"jupiter.isi.edu", "isi"}, std::pair{"srb.sdsc.edu", "sdsc"},
        std::pair{"pitcairn.mcs.anl.gov", "anl"},
        std::pair{"dataportal.ncar.edu", "ncar"}}) {
    // ESG-II server-side processing: extraction/subsetting local to the
    // data (paper §9, future work — implemented here).
    add_server(host, site).register_eret_module(
        climate::kNcxSubsetModule,
        [](const storage::FileObject& f, const std::string& p) {
          return climate::ncx_subset_module(f, p);
        });
    data_hosts_.push_back(host);
  }
  add_hrm(server("clipper.lbl.gov"), config_.hrm);

  monitor_.bind_registry(&sim.metrics());
  rm_ = std::make_unique<rm::RequestManager>(
      orb, client().local_host(), make_catalog(), make_mds_client(), client(),
      &monitor_);
}

metadata::MetadataCatalog EsgTestbed::make_metadata_catalog() {
  return metadata::MetadataCatalog(directory::DirectoryClient(
      orb, client().local_host(), *metadata_host_));
}

bool EsgTestbed::run_until_flag(const bool& flag,
                                common::SimDuration limit) {
  const auto deadline = sim.now() + limit;
  while (!flag && sim.now() < deadline && sim.pending_events() > 0) {
    sim.run_while_pending([&] { return flag || sim.now() >= deadline; });
    if (flag) break;
    if (sim.pending_events() == 0) break;
  }
  return flag;
}

Status EsgTestbed::publish_dataset(const DatasetSpec& spec) {
  if (spec.replica_hosts.empty()) {
    return Error{Errc::invalid_argument, "dataset needs a primary replica"};
  }
  const std::string collection =
      spec.collection.empty() ? spec.name : spec.collection;

  metadata::DatasetInfo info;
  info.name = spec.name;
  info.model = "esg-synthetic-v1";
  info.institution = "LLNL/PCMDI";
  info.collection = collection;
  info.start_month = spec.start_month;
  info.n_months = spec.n_months;
  info.months_per_file = spec.months_per_file;
  for (const auto& v : climate::ClimateModel::variables()) {
    info.variables.push_back(metadata::VariableDesc{
        v, climate::ClimateModel::units_of(v), "synthetic " + v});
  }

  // Generate chunk files and place content bytes per the replica layout.
  std::vector<std::pair<std::string, common::Bytes>> files;
  std::map<std::string, std::vector<std::string>> files_at_host;
  const auto n_hosts = spec.replica_hosts.size();
  for (int c = 0; c < info.chunk_count(); ++c) {
    const int m0 = spec.start_month + c * spec.months_per_file;
    const int count = std::min(spec.months_per_file,
                               spec.start_month + spec.n_months - m0);
    auto bytes = model_.write_chunk(m0, count);
    const std::string filename = info.file_name(c);
    files.emplace_back(filename, static_cast<common::Bytes>(bytes->size()));

    std::vector<std::string> holders;
    if (spec.layout == ReplicaLayout::full_copies || n_hosts <= 1) {
      holders = spec.replica_hosts;
    } else {
      // Two holders per chunk so every file still has a replica choice.
      const auto uc = static_cast<std::size_t>(c);
      holders.push_back(spec.replica_hosts[uc % n_hosts]);
      holders.push_back(spec.replica_hosts[(uc + 1) % n_hosts]);
    }
    for (const auto& host : holders) {
      const auto srv = servers().find(host);
      if (srv == servers().end()) {
        return Error{Errc::not_found, "unknown replica host " + host};
      }
      auto st = srv->second->storage().put(storage::FileObject::with_content(
          collection + "/" + filename, bytes));
      if (!st.ok()) return st;
      files_at_host[host].push_back(filename);
    }
    if (spec.archive_on_tape) {
      hrm().archive(storage::FileObject::with_content(
          "archive/" + collection + "/" + filename, bytes));
    }
  }

  // Register in both catalogs.
  auto rc = make_catalog();
  auto mc = make_metadata_catalog();
  bool failed = false;
  Status failure = common::ok_status();
  int remaining = 0;
  auto step = [&](Status st) {
    if (!st.ok() && !failed) {
      failed = true;
      failure = st;
    }
    --remaining;
  };

  ++remaining;
  rc.create_catalog(step);
  ++remaining;
  rc.create_collection(collection, step);
  for (const auto& [filename, size] : files) {
    ++remaining;
    rc.register_logical_file(collection, {filename, size}, step);
  }
  for (std::size_t i = 0; i < spec.replica_hosts.size(); ++i) {
    replica::LocationInfo loc;
    loc.name = spec.replica_hosts[i];
    loc.hostname = spec.replica_hosts[i];
    loc.path = collection;
    loc.files = files_at_host[spec.replica_hosts[i]];  // partial if scattered
    ++remaining;
    rc.register_location(collection, loc, step);
  }
  if (spec.archive_on_tape) {
    replica::LocationInfo tape_loc;
    tape_loc.name = "lbnl-hpss";
    tape_loc.hostname = "clipper.lbl.gov";
    tape_loc.path = "archive/" + collection;
    tape_loc.storage_type = "mss";
    for (const auto& [filename, size] : files) {
      tape_loc.files.push_back(filename);
    }
    ++remaining;
    rc.register_location(collection, tape_loc, step);
  }
  ++remaining;
  mc.publish_dataset(info, step);

  // Drive the simulation until all registrations acknowledge.
  sim.run_while_pending([&] { return remaining == 0 || failed; });
  if (failed) return failure;
  if (remaining != 0) {
    return Error{Errc::internal, "catalog registration stalled"};
  }
  return common::ok_status();
}

void EsgTestbed::start_sensors(int rounds) {
  if (sensors_.empty()) {
    std::uint64_t seed = config_.seed;
    for (const auto& host_name : data_hosts_) {
      const net::Host& src = server(host_name).host();
      auto publisher = std::make_shared<mds::MdsClient>(orb, src, mds_host());
      sensor_publishers_.push_back(publisher);
      nws::SensorConfig cfg;
      cfg.period = config_.sensor_period;
      cfg.seed = ++seed;
      sensors_.push_back(std::make_unique<nws::NwsSensor>(
          net, src, client().local_host(), cfg,
          [this, publisher](const std::string& s, const std::string& d,
                            common::Rate bw, common::SimDuration lat,
                            const nws::Measurement& m) {
            mds::NetworkRecord rec;
            rec.src_host = s;
            rec.dst_host = d;
            rec.bandwidth = bw;
            rec.latency = lat;
            rec.updated = sim.now();
            rec.probe_failed = m.probe_failed;
            publisher->publish_network(rec, [](Status) {});
          }));
    }
  }
  if (rounds > 0) {
    sim.run_until(sim.now() + rounds * config_.sensor_period + kSecond);
  }
}

void EsgTestbed::stop_sensors() {
  for (auto& s : sensors_) s->stop();
}

}  // namespace esg::esg
