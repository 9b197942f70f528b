// The Earth System Grid testbed — the emulator's rendition of Fig 1/Fig 7.
//
// Sites and hosts:
//   dcc       vcdat.dcc.org          the scientist's desktop (VCDAT + RM)
//   berkeley  pdsf.lbl.gov           disk replica server
//             clipper.lbl.gov        HPSS + HRM-fronted mass storage
//   llnl      sprite.llnl.gov        PCMDI data server (primary copies)
//             cdms.llnl.gov          CDMS metadata catalog (LDAP)
//   isi       jupiter.isi.edu        disk replica server
//             mds.isi.edu            MDS information service
//   sdsc      srb.sdsc.edu           disk replica server
//   anl       pitcairn.mcs.anl.gov   disk replica server
//             ldap.mcs.anl.gov       Globus replica catalog (LDAP)
//   ncar      dataportal.ncar.edu    disk replica server
//
// WAN links mirror the SC'2000 connectivity: HSCC from Dallas to the LA
// area, NTON up the coast at OC-48, OC-12 spurs, and an Abilene path to
// ANL/NCAR with light loss (the Fig 8 "commodity internet" flavor).
//
// The testbed is a scenario::Grid, which owns the simulation, network, orb
// and CA and builds the GridFTP servers and client (GSI), the replica
// catalog, MDS and the HRM in front of a tape library.  What the testbed
// adds is its own: Fig 7's sites, links and host rates, the ncx.subset ERET
// module on every data server, the CDMS metadata catalog, NWS sensors
// publishing into MDS, the request manager with its Fig 4 monitor on the
// client host, and the climate model that generates the datasets.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "climate/model.hpp"
#include "directory/service.hpp"
#include "metadata/catalog.hpp"
#include "nws/sensor.hpp"
#include "rm/request_manager.hpp"
#include "scenario/grid.hpp"

namespace esg::esg {

struct TestbedConfig {
  /// Seeds the simulation, the climate model and the NWS sensors.
  std::uint64_t seed = 2001;
  climate::GridSpec grid{36, 72};
  common::SimDuration sensor_period = 60 * common::kSecond;
  hrm::HrmConfig hrm;
};

/// How a dataset's chunk files are placed across the replica hosts.
enum class ReplicaLayout {
  /// Every host holds every chunk (complete copies).
  full_copies,
  /// Chunk c lives at hosts c % N and (c+1) % N — every location is a
  /// *partial* collection (Fig 6's jupiter.isi.edu case) and a multi-chunk
  /// request draws from several sites concurrently (paper §4: "maximize
  /// the number of different sites from which files are obtained").
  scattered,
};

/// Which sites replicate a dataset and whether it is archived on tape.
struct DatasetSpec {
  std::string name = "pcmdi-ocean-r1";
  std::string collection;  // defaults to the dataset name
  int start_month = 36;    // January 1998 for base_year 1995
  int n_months = 24;
  int months_per_file = 6;
  /// Hosts holding disk replicas; the first is the primary (complete) copy
  /// under full_copies.
  std::vector<std::string> replica_hosts = {"sprite.llnl.gov",
                                            "pdsf.lbl.gov"};
  ReplicaLayout layout = ReplicaLayout::full_copies;
  /// Also archive every chunk on the clipper.lbl.gov tape system and
  /// register an "mss" location for it.
  bool archive_on_tape = false;
};

class EsgTestbed : public scenario::Grid {
 public:
  explicit EsgTestbed(TestbedConfig config = {});

  rm::RequestManager& request_manager() { return *rm_; }
  rm::TransferMonitor& monitor() { return monitor_; }
  climate::ClimateModel& model() { return model_; }
  const std::vector<std::string>& data_hosts() const { return data_hosts_; }

  metadata::MetadataCatalog make_metadata_catalog();

  /// Generate the dataset with the synthetic model, place content at the
  /// replica hosts, and register everything in both catalogs.  Drives the
  /// simulation until registration completes.
  common::Status publish_dataset(const DatasetSpec& spec);

  /// Start NWS sensors (every data host -> client) and run the simulation
  /// for `rounds` periods so forecasts are warm.
  void start_sensors(int rounds = 3);
  void stop_sensors();

  /// Drive the simulation until `flag` turns true or `limit` elapses.
  bool run_until_flag(const bool& flag,
                      common::SimDuration limit = 4 * common::kHour);

 private:
  TestbedConfig config_;
  const net::Host* metadata_host_ = nullptr;
  std::unique_ptr<directory::DirectoryService> metadata_service_;
  std::vector<std::string> data_hosts_;
  rm::TransferMonitor monitor_;
  std::unique_ptr<rm::RequestManager> rm_;
  climate::ClimateModel model_;
  std::vector<std::unique_ptr<nws::NwsSensor>> sensors_;
  std::vector<std::shared_ptr<mds::MdsClient>> sensor_publishers_;
};

}  // namespace esg::esg
