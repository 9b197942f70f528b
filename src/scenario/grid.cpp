#include "scenario/grid.hpp"

#include <cassert>
#include <utility>

namespace esg::scenario {

namespace {

constexpr const char* kUserDn = "/O=Grid/CN=esg-user";

}  // namespace

Grid::Grid(std::uint64_t seed, HostRates rates)
    : sim{seed}, rates_(rates), ca_("/O=Grid/CN=ESG CA") {}

net::Host& Grid::add_host(const std::string& name, const std::string& site,
                          const std::optional<HostRates>& rates) {
  const HostRates r = rates.value_or(rates_);
  return *net.add_host({.name = name, .site = site, .nic_rate = r.nic,
                        .cpu_rate = r.cpu, .disk_rate = r.disk});
}

gridftp::GridFtpServer& Grid::add_server(const std::string& host,
                                         const std::string& site,
                                         std::optional<HostRates> rates) {
  security::GridMapFile gridmap;
  gridmap.add(kUserDn, "esg");
  auto server = std::make_unique<gridftp::GridFtpServer>(
      orb, add_host(host, site, rates),
      std::make_shared<storage::HostStorage>(), ca_, std::move(gridmap));
  registry_.add(server.get());
  return *(servers_[host] = std::move(server));
}

gridftp::GridFtpClient& Grid::add_client(const std::string& host,
                                         const std::string& site,
                                         std::optional<HostRates> rates) {
  net::Host& local = add_host(host, site, rates);
  security::CredentialWallet wallet;
  wallet.set_identity(ca_.issue(kUserDn, 0, 1000 * common::kHour));
  clients_.push_back(std::make_unique<gridftp::GridFtpClient>(
      orb, local, std::make_shared<storage::HostStorage>(), std::move(wallet),
      registry_));
  return *clients_.back();
}

hrm::HrmService& Grid::add_hrm(gridftp::GridFtpServer& server,
                               const hrm::HrmConfig& config) {
  assert(!hrm_ && "a grid has at most one HRM");
  hrm_ = std::make_unique<hrm::HrmService>(orb, server.host(),
                                           server.storage_ptr(), config);
  return *hrm_;
}

void Grid::add_catalog(const std::string& host, const std::string& site,
                       std::optional<HostRates> rates) {
  assert(!catalog_service_ && "a grid has at most one replica catalog");
  catalog_host_ = &add_host(host, site, rates);
  catalog_service_ = std::make_unique<directory::DirectoryService>(
      orb, *catalog_host_, std::make_shared<directory::DirectoryServer>());
}

void Grid::add_mds(const std::string& host, const std::string& site,
                   std::optional<HostRates> rates) {
  assert(!mds_service_ && "a grid has at most one MDS");
  mds_host_ = &add_host(host, site, rates);
  mds_service_ = std::make_unique<mds::MdsService>(orb, *mds_host_);
}

void Grid::record(common::Status status) {
  if (seeding_.ok() && !status.ok()) seeding_ = std::move(status);
}

void Grid::publish(const Publication& publication) {
  auto on_done = [this](common::Status st) { record(std::move(st)); };
  if (!seeding_catalog_) {
    seeding_catalog_.emplace(make_catalog());
    seeding_catalog_->create_catalog(on_done);
  }
  auto& catalog = *seeding_catalog_;
  const std::string& collection = publication.collection;
  catalog.create_collection(collection, on_done);
  std::map<std::string, common::Bytes> sizes;
  for (const auto& file : publication.files) {
    catalog.register_logical_file(collection, file, on_done);
    sizes[file.name] = file.size;
  }
  for (const auto& location : publication.locations) {
    const bool tape = location.storage_type == "mss";
    const auto server = servers_.find(location.hostname);
    if (tape ? !hrm_ || hrm_->host().name() != location.hostname
             : server == servers_.end()) {
      record(common::make_error(
          common::Errc::not_found,
          std::string(tape ? "no HRM" : "no GridFTP server") + " at " +
              location.hostname));
    } else {
      for (const auto& name : location.files) {
        auto object = storage::FileObject::synthetic(
            location.path + "/" + name, sizes.at(name));
        if (tape) {
          hrm_->archive(std::move(object));
        } else {
          record(server->second->storage().put(std::move(object)));
        }
      }
    }
    catalog.register_location(collection, location, on_done);
  }
  auto mds = make_mds_client();
  for (const auto& rec : publication.network) {
    mds.publish_network(rec, on_done);
  }
}

void Grid::publish(const campaign::CampaignCatalog& catalog) {
  for (const auto& file : catalog.files) {
    for (const auto& source : file.sources) {
      record(server(source.host).storage().put(
          storage::FileObject::synthetic(source.path, file.size)));
    }
  }
}

sim::FaultHooks Grid::fault_hooks() {
  sim::FaultHooks hooks;
  hooks.brownout = [this](const sim::FaultEvent& e, bool begin) {
    if (auto* link = net.find_link(e.target)) {
      net.set_link_brownout(*link, begin ? e.magnitude : 1.0);
    }
  };
  hooks.loss_spike = [this](const sim::FaultEvent& e, bool begin) {
    if (auto* link = net.find_link(e.target)) {
      net.set_link_loss(*link, begin ? e.magnitude : link->nominal_loss());
    }
  };
  hooks.service_crash = [this](const sim::FaultEvent& e, bool begin) {
    if (hrm_ && hrm_->host().name() == e.target) {
      begin ? hrm_->crash() : hrm_->restart();
    } else if (auto it = servers_.find(e.target); it != servers_.end()) {
      begin ? it->second->crash() : it->second->restart();
    }
  };
  hooks.stage_stall = [this](const sim::FaultEvent&, bool begin) {
    if (hrm_) hrm_->tape().set_stalled(begin);
  };
  hooks.corruption = [this](const sim::FaultEvent& e) {
    for (auto& client : clients_) {
      if (client->local_host().name() == e.target) client->inject_corruption(1);
    }
  };
  return hooks;
}

gridftp::GridFtpServer& Grid::server(const std::string& host) {
  return *servers_.at(host);
}

std::vector<campaign::SiteEndpoint> Grid::endpoints() const {
  std::vector<campaign::SiteEndpoint> out;
  for (const auto& client : clients_) {
    out.push_back({client->local_host().site(), client.get(), "replica"});
  }
  return out;
}

replica::ReplicaCatalog Grid::make_catalog(const std::string& name) {
  return replica::ReplicaCatalog(
      directory::DirectoryClient(orb, client().local_host(), *catalog_host_),
      name);
}

mds::MdsClient Grid::make_mds_client() {
  return mds::MdsClient(orb, client().local_host(), *mds_host_);
}

}  // namespace esg::scenario
