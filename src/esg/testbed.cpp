#include "esg/testbed.hpp"

#include "climate/subset.hpp"

namespace esg::esg {

using common::Errc;
using common::Error;
using common::Status;
using common::kMillisecond;
using common::kSecond;

EsgTestbed::EsgTestbed(TestbedConfig config) : config_(config) {
  build_topology();
  build_services();
}

void EsgTestbed::build_topology() {
  for (const char* site :
       {"dcc", "la", "berkeley", "llnl", "isi", "sdsc", "anl", "ncar"}) {
    net_.add_site(site);
  }
  // SC'2000-era connectivity (Fig 7): HSCC Dallas->LA, NTON LA->Berkeley,
  // OC-12 spurs, Abilene to the midwest with light loss.
  net_.add_link({.name = "hscc", .site_a = "dcc", .site_b = "la",
                 .capacity = common::gbps(2.5),
                 .latency = 10 * kMillisecond});
  net_.add_link({.name = "nton", .site_a = "la", .site_b = "berkeley",
                 .capacity = common::gbps(2.5), .latency = 8 * kMillisecond});
  net_.add_link({.name = "isi-uplink", .site_a = "isi", .site_b = "la",
                 .capacity = common::gbps(1), .latency = kMillisecond});
  net_.add_link({.name = "sdsc-uplink", .site_a = "sdsc", .site_b = "la",
                 .capacity = common::mbps(622), .latency = 3 * kMillisecond});
  net_.add_link({.name = "llnl-uplink", .site_a = "llnl",
                 .site_b = "berkeley", .capacity = common::mbps(622),
                 .latency = 2 * kMillisecond});
  // Loss on the Abilene path drives the parallel-stream benefit there.
  net_.add_link({.name = "abilene", .site_a = "dcc", .site_b = "anl",
                 .capacity = common::mbps(622), .latency = 25 * kMillisecond,
                 .loss = 5e-5});
  net_.add_link({.name = "anl-ncar", .site_a = "anl", .site_b = "ncar",
                 .capacity = common::mbps(622), .latency = 15 * kMillisecond});

  client_host_ = net_.add_host({.name = "vcdat.dcc.org", .site = "dcc",
                                .nic_rate = common::gbps(1),
                                .cpu_rate = common::gbps(1),
                                .disk_rate = common::mbps(800)});
  catalog_host_ = net_.add_host({.name = "ldap.mcs.anl.gov", .site = "anl"});
  metadata_host_ = net_.add_host({.name = "cdms.llnl.gov", .site = "llnl"});
  mds_host_ = net_.add_host({.name = "mds.isi.edu", .site = "isi"});
}

gridftp::GridFtpServer* EsgTestbed::add_data_server(
    const std::string& host_name, const std::string& site) {
  auto* host = net_.add_host({.name = host_name, .site = site,
                              .nic_rate = common::gbps(1),
                              .cpu_rate = common::mbps(750),
                              .disk_rate = common::mbps(500)});
  security::GridMapFile gridmap;
  gridmap.add("/O=Grid/CN=esg-user", "esg");
  auto server = std::make_unique<gridftp::GridFtpServer>(
      orb_, *host, std::make_shared<storage::HostStorage>(), ca_,
      std::move(gridmap));
  // ESG-II server-side processing: extraction/subsetting local to the data
  // (paper §9, future work — implemented here).
  server->register_eret_module(
      climate::kNcxSubsetModule,
      [](const storage::FileObject& f, const std::string& p) {
        return climate::ncx_subset_module(f, p);
      });
  auto* ptr = server.get();
  registry_.add(ptr);
  servers_[host_name] = std::move(server);
  data_hosts_.push_back(host_name);
  return ptr;
}

void EsgTestbed::build_services() {
  add_data_server("pdsf.lbl.gov", "berkeley");
  auto* clipper = add_data_server("clipper.lbl.gov", "berkeley");
  add_data_server("sprite.llnl.gov", "llnl");
  add_data_server("jupiter.isi.edu", "isi");
  add_data_server("srb.sdsc.edu", "sdsc");
  add_data_server("pitcairn.mcs.anl.gov", "anl");
  add_data_server("dataportal.ncar.edu", "ncar");

  catalog_backing_ = std::make_shared<directory::DirectoryServer>();
  catalog_service_ = std::make_unique<directory::DirectoryService>(
      orb_, *catalog_host_, catalog_backing_);
  metadata_backing_ = std::make_shared<directory::DirectoryServer>();
  metadata_service_ = std::make_unique<directory::DirectoryService>(
      orb_, *metadata_host_, metadata_backing_);
  mds_service_ = std::make_unique<mds::MdsService>(orb_, *mds_host_);

  hrm_ = std::make_unique<hrm::HrmService>(
      orb_, clipper->host(), clipper->storage_ptr(), config_.hrm);

  security::CredentialWallet wallet;
  wallet.set_identity(
      ca_.issue("/O=Grid/CN=esg-user", 0, 100000 * common::kHour));
  ftp_client_ = std::make_unique<gridftp::GridFtpClient>(
      orb_, *client_host_, std::make_shared<storage::HostStorage>(),
      std::move(wallet), registry_);

  monitor_.bind_registry(&sim_.metrics());
  rm_ = std::make_unique<rm::RequestManager>(
      orb_, *client_host_, make_replica_catalog(), make_mds_client(),
      *ftp_client_, &monitor_);

  model_ = std::make_unique<climate::ClimateModel>(
      climate::ModelConfig{config_.grid, config_.seed, 1995});
}

gridftp::GridFtpServer* EsgTestbed::server(const std::string& host_name) {
  auto it = servers_.find(host_name);
  return it == servers_.end() ? nullptr : it->second.get();
}

replica::ReplicaCatalog EsgTestbed::make_replica_catalog() {
  return replica::ReplicaCatalog(
      directory::DirectoryClient(orb_, *client_host_, *catalog_host_), "esg");
}

metadata::MetadataCatalog EsgTestbed::make_metadata_catalog() {
  return metadata::MetadataCatalog(
      directory::DirectoryClient(orb_, *client_host_, *metadata_host_));
}

mds::MdsClient EsgTestbed::make_mds_client() {
  return mds::MdsClient(orb_, *client_host_, *mds_host_);
}

bool EsgTestbed::run_until_flag(const bool& flag,
                                common::SimDuration limit) {
  const auto deadline = sim_.now() + limit;
  while (!flag && sim_.now() < deadline && sim_.pending_events() > 0) {
    sim_.run_while_pending([&] { return flag || sim_.now() >= deadline; });
    if (flag) break;
    if (sim_.pending_events() == 0) break;
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
    auto bytes = model_->write_chunk(m0, count);
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
      auto* srv = server(host);
      if (srv == nullptr) {
        return Error{Errc::not_found, "unknown replica host " + host};
      }
      auto st = srv->storage().put(storage::FileObject::with_content(
          collection + "/" + filename, bytes));
      if (!st.ok()) return st;
      files_at_host[host].push_back(filename);
    }
    if (spec.archive_on_tape) {
      hrm_->archive(storage::FileObject::with_content(
          "archive/" + collection + "/" + filename, bytes));
    }
  }

  // Register in both catalogs.
  auto rc = make_replica_catalog();
  auto mc = make_metadata_catalog();
  bool failed = false;
  Status failure = common::ok_status();
  int remaining = 0;
  bool all_issued = false;
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
  all_issued = true;
  (void)all_issued;

  // Drive the simulation until all registrations acknowledge.
  sim_.run_while_pending([&] { return remaining == 0 || failed; });
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
      auto* src = net_.find_host(host_name);
      auto publisher = std::make_shared<mds::MdsClient>(orb_, *src, *mds_host_);
      sensor_publishers_.push_back(publisher);
      nws::SensorConfig cfg;
      cfg.period = config_.sensor_period;
      cfg.seed = ++seed;
      sensors_.push_back(std::make_unique<nws::NwsSensor>(
          net_, *src, *client_host_, cfg,
          [this, publisher](const std::string& s, const std::string& d,
                            common::Rate bw, common::SimDuration lat,
                            const nws::Measurement& m) {
            mds::NetworkRecord rec;
            rec.src_host = s;
            rec.dst_host = d;
            rec.bandwidth = bw;
            rec.latency = lat;
            rec.updated = sim_.now();
            rec.probe_failed = m.probe_failed;
            publisher->publish_network(rec, [](Status) {});
          }));
    }
  }
  if (rounds > 0) {
    sim_.run_until(sim_.now() + rounds * config_.sensor_period + kSecond);
  }
}

void EsgTestbed::stop_sensors() {
  for (auto& s : sensors_) s->stop();
}

}  // namespace esg::esg
