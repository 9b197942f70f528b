// The scenario builder: one way to assemble the ESG data-grid stack.
//
// A Grid owns the simulation substrate (Simulation, Network, Orb), the GSI
// certificate authority and the GridFTP server registry, and grows the
// paper's services on it one imperative call at a time: GridFTP servers
// with a gridmap and host storage (§3), clients holding a proxy wallet, an
// HRM fronting a tape library (§4), and the replica catalog and MDS served
// over directory RPC (§5-§6).  publish() seeds a collection into those
// services and fault_hooks() routes every FaultInjector event by its target
// name, so a world is its topology, its publications and its workload.
//
// Callers decide the order of sites, links, hosts and services — it is part
// of a run's identity (fluid resource ids, RPC issue order) — and the
// builder never reorders them.  Shared topologies live in scenario/star.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/driver.hpp"
#include "directory/service.hpp"
#include "gridftp/client.hpp"
#include "gridftp/server.hpp"
#include "hrm/hrm.hpp"
#include "mds/mds.hpp"
#include "net/topology.hpp"
#include "replica/catalog.hpp"
#include "rpc/orb.hpp"
#include "security/gsi.hpp"
#include "sim/chaos.hpp"
#include "sim/simulation.hpp"

namespace esg::scenario {

/// One collection to seed: its logical files, the locations holding them
/// and the MDS network forecasts the request manager ranks replicas by.
struct Publication {
  std::string collection;
  std::vector<replica::LogicalFileInfo> files;
  /// A "disk" location puts `<path>/<file>` into the storage of the GridFTP
  /// server at `hostname`; an "mss" location archives it on the tape of
  /// the HRM at that host.
  std::vector<replica::LocationInfo> locations;
  std::vector<mds::NetworkRecord> network;
};

/// The NIC, CPU and disk rates of a host: the grid-wide ones every host
/// gets unless its host-adding call overrides them.
struct HostRates {
  common::Rate nic = common::gbps(1);
  common::Rate cpu = common::gbps(1);
  common::Rate disk = common::gbps(1);
};

class Grid {
 public:
  explicit Grid(std::uint64_t seed = 1, HostRates rates = {});
  // The fault hooks and the services capture the grid's address.
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  sim::Simulation sim;
  net::Network net{sim};
  rpc::Orb orb{net};

  /// A host running a GridFTP server that maps the grid user to "esg".
  gridftp::GridFtpServer& add_server(const std::string& host,
                                     const std::string& site,
                                     std::optional<HostRates> rates = {});
  /// A host running a GridFTP client whose wallet holds the grid user's
  /// certificate.  The first client added is the one client() returns.
  gridftp::GridFtpClient& add_client(const std::string& host,
                                     const std::string& site,
                                     std::optional<HostRates> rates = {});
  /// An HRM fronting a tape library, serving staged files through
  /// `server`'s storage.  A grid has at most one.
  hrm::HrmService& add_hrm(gridftp::GridFtpServer& server,
                           const hrm::HrmConfig& config);
  /// A host serving the replica catalog.  A grid has at most one.
  void add_catalog(const std::string& host, const std::string& site,
                   std::optional<HostRates> rates = {});
  /// A host serving the MDS.  A grid has at most one.
  void add_mds(const std::string& host, const std::string& site,
               std::optional<HostRates> rates = {});

  /// Seed `publication`: create the catalog (first call only) and the
  /// collection, register the logical files, put or archive each
  /// location's objects and register the locations, then publish the MDS
  /// records — RPCs in exactly that order.  Does not run the simulation;
  /// seeding_status() has the outcome once it has run.
  void publish(const Publication& publication);
  /// Put every campaign file at each of its source URLs.  No RPCs.
  void publish(const campaign::CampaignCatalog& catalog);
  /// The first failure among everything publish() did, or ok.
  const common::Status& seeding_status() const { return seeding_; }

  /// Hooks for FaultInjector::arm, routed by target name: brownout and
  /// loss_spike to the named link; service_crash to the HRM when the
  /// target is its host, else to the GridFTP server there; stage_stall to
  /// the HRM's tape; corruption to the client on the named host.  Targets
  /// naming nothing in the grid are no-ops.
  sim::FaultHooks fault_hooks();

  /// For clients the caller builds itself, e.g. with other credentials.
  const security::CertificateAuthority& ca() const { return ca_; }
  const gridftp::ServerRegistry& registry() const { return registry_; }

  gridftp::GridFtpServer& server(const std::string& host);
  const std::map<std::string, std::unique_ptr<gridftp::GridFtpServer>>&
  servers() const {
    return servers_;
  }
  gridftp::GridFtpClient& client() { return *clients_.front(); }
  /// One campaign endpoint per client: its host's site, landing under
  /// "replica".
  std::vector<campaign::SiteEndpoint> endpoints() const;
  hrm::HrmService& hrm() { return *hrm_; }
  const net::Host& catalog_host() const { return *catalog_host_; }
  const net::Host& mds_host() const { return *mds_host_; }

  /// Catalog and MDS clients at the first client's host.
  replica::ReplicaCatalog make_catalog(const std::string& name = "esg");
  mds::MdsClient make_mds_client();

 private:
  net::Host& add_host(const std::string& name, const std::string& site,
                      const std::optional<HostRates>& rates);
  void record(common::Status status);

  HostRates rates_;
  security::CertificateAuthority ca_;
  gridftp::ServerRegistry registry_;
  std::map<std::string, std::unique_ptr<gridftp::GridFtpServer>> servers_;
  std::vector<std::unique_ptr<gridftp::GridFtpClient>> clients_;
  std::unique_ptr<hrm::HrmService> hrm_;
  const net::Host* catalog_host_ = nullptr;
  const net::Host* mds_host_ = nullptr;
  std::unique_ptr<directory::DirectoryService> catalog_service_;
  std::unique_ptr<mds::MdsService> mds_service_;
  // Outlives the seeding RPCs, whose callbacks capture it.
  std::optional<replica::ReplicaCatalog> seeding_catalog_;
  common::Status seeding_;
};

}  // namespace esg::scenario
