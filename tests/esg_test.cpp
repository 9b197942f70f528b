// End-to-end tests of the ESG prototype: the full §7 demonstration path —
// attribute query -> metadata translation -> NWS-informed replica selection
// -> GridFTP transfer (disk and tape replicas) -> client-side analysis and
// rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>

#include "climate/render.hpp"
#include "esg/client.hpp"
#include "esg/testbed.hpp"

namespace ee = esg::esg;
namespace ec = esg::common;
namespace cl = esg::climate;

using ec::kSecond;

namespace {

ee::TestbedConfig small_config() {
  ee::TestbedConfig cfg;
  cfg.grid = cl::GridSpec{18, 36};
  cfg.sensor_period = 30 * kSecond;
  return cfg;
}

ee::DatasetSpec small_dataset() {
  ee::DatasetSpec spec;
  spec.name = "pcmdi-ocean-r1";
  spec.start_month = 36;
  spec.n_months = 12;
  spec.months_per_file = 6;
  spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov",
                        "pitcairn.mcs.anl.gov"};
  return spec;
}

}  // namespace

TEST(EsgTestbed, TopologyIsConnected) {
  ee::EsgTestbed testbed(small_config());
  const auto& client = testbed.client().local_host();
  for (const auto& host_name : testbed.data_hosts()) {
    auto* host = testbed.net.find_host(host_name);
    ASSERT_NE(host, nullptr) << host_name;
    EXPECT_TRUE(testbed.net.path(*host, client).up) << host_name;
  }
}

TEST(EsgTestbed, HostsCarryFig7RatesInCreationOrder) {
  ee::EsgTestbed testbed(small_config());
  struct Expected {
    const char* host;
    double nic_mbps, cpu_mbps, disk_mbps;
  };
  // Creation order fixes the fluid resource ids: the desktop, the replica
  // catalog, CDMS and MDS hosts, then the seven data servers.
  const Expected expected[] = {
      {"vcdat.dcc.org", 1000, 1000, 800},
      {"ldap.mcs.anl.gov", 1000, 700, 400},
      {"cdms.llnl.gov", 1000, 700, 400},
      {"mds.isi.edu", 1000, 700, 400},
      {"pdsf.lbl.gov", 1000, 750, 500},
      {"clipper.lbl.gov", 1000, 750, 500},
      {"sprite.llnl.gov", 1000, 750, 500},
      {"jupiter.isi.edu", 1000, 750, 500},
      {"srb.sdsc.edu", 1000, 750, 500},
      {"pitcairn.mcs.anl.gov", 1000, 750, 500},
      {"dataportal.ncar.edu", 1000, 750, 500},
  };
  EXPECT_EQ(testbed.net.host_names().size(), std::size(expected));
  std::int64_t previous_nic = -1;
  for (const auto& e : expected) {
    const auto* host = testbed.net.find_host(e.host);
    ASSERT_NE(host, nullptr) << e.host;
    EXPECT_EQ(host->nic()->nominal_capacity(), ec::mbps(e.nic_mbps)) << e.host;
    EXPECT_EQ(host->cpu()->nominal_capacity(), ec::mbps(e.cpu_mbps)) << e.host;
    EXPECT_EQ(host->disk()->nominal_capacity(), ec::mbps(e.disk_mbps))
        << e.host;
    EXPECT_GT(host->nic()->id(), previous_nic) << e.host;
    previous_nic = host->nic()->id();
  }
}

TEST(EsgTestbed, PublishRegistersBothCatalogs) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());

  auto rc = testbed.make_catalog();
  bool locations_ok = false;
  rc.list_locations("pcmdi-ocean-r1",
                    [&](ec::Result<std::vector<esg::replica::LocationInfo>> r) {
                      ASSERT_TRUE(r.ok());
                      EXPECT_EQ(r->size(), 3u);
                      locations_ok = true;
                    });
  testbed.run_until_flag(locations_ok);
  ASSERT_TRUE(locations_ok);

  auto mc = testbed.make_metadata_catalog();
  bool dataset_ok = false;
  mc.lookup_dataset("pcmdi-ocean-r1",
                    [&](ec::Result<esg::metadata::DatasetInfo> r) {
                      ASSERT_TRUE(r.ok());
                      EXPECT_EQ(r->n_months, 12);
                      EXPECT_EQ(r->variables.size(), 3u);
                      dataset_ok = true;
                    });
  testbed.run_until_flag(dataset_ok);
  EXPECT_TRUE(dataset_ok);
}

TEST(EsgTestbed, PublishRejectsAReplicaHostWithoutAServer) {
  // The catalog host is on the network but runs no GridFTP server.
  for (const char* host : {"ldap.mcs.anl.gov", "nowhere.example.org"}) {
    ee::EsgTestbed testbed(small_config());
    ee::DatasetSpec spec = small_dataset();
    spec.replica_hosts = {"sprite.llnl.gov", host};
    const auto st = testbed.publish_dataset(spec);
    ASSERT_FALSE(st.ok()) << host;
    EXPECT_EQ(st.error().code, ec::Errc::not_found) << host;
  }
}

TEST(EsgEndToEnd, AnalyzeFetchesAndAveragesTemperature) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  testbed.start_sensors(2);

  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "pcmdi-ocean-r1";
  req.variable = "temperature";
  req.month_start = 36;
  req.month_end = 48;
  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  EXPECT_EQ(result.field.ntime(), 12);
  EXPECT_EQ(result.field.grid().nlat, 18);
  EXPECT_EQ(result.mean.ntime(), 1);
  EXPECT_EQ(result.transfer.files.size(), 2u);  // two 6-month chunks
  EXPECT_GT(result.transfer.total_bytes, 0);

  // Fidelity: the fetched-and-assembled field equals direct generation,
  // within f32 storage rounding.
  auto direct = testbed.model().generate("temperature", 36, 12);
  ASSERT_EQ(result.field.data().size(), direct.data().size());
  for (std::size_t k = 0; k < direct.data().size(); k += 101) {
    EXPECT_NEAR(result.field.data()[k], direct.data()[k], 1e-3);
  }
}

TEST(EsgEndToEnd, PartialWindowClipsChunks) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  testbed.start_sensors(1);

  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "pcmdi-ocean-r1";
  req.variable = "precipitation";
  req.month_start = 40;  // straddles both chunks
  req.month_end = 44;
  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  EXPECT_EQ(result.field.ntime(), 4);
  auto direct = testbed.model().generate("precipitation", 40, 4);
  for (std::size_t k = 0; k < direct.data().size(); k += 37) {
    EXPECT_NEAR(result.field.data()[k], direct.data()[k], 1e-3);
  }
}

TEST(EsgEndToEnd, ReplicaSelectionPrefersFastSite) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  // Congest the Abilene path so ANL forecasts poorly.
  auto* abilene = testbed.net.find_link("abilene");
  testbed.net.fluid().set_background(abilene->backward(), ec::mbps(550));
  testbed.start_sensors(4);

  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "pcmdi-ocean-r1";
  req.variable = "temperature";
  req.month_start = 36;
  req.month_end = 42;
  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  for (const auto& f : result.transfer.files) {
    EXPECT_NE(f.chosen_host, "pitcairn.mcs.anl.gov") << "picked slow replica";
    EXPECT_GT(f.forecast_bandwidth, 0.0);
  }
}

TEST(EsgEndToEnd, TapeOnlyDatasetStagesThroughHrm) {
  ee::EsgTestbed testbed(small_config());
  ee::DatasetSpec spec = small_dataset();
  spec.name = "deep-archive-r1";
  spec.n_months = 6;
  spec.replica_hosts = {"clipper.lbl.gov"};  // data host exists...
  spec.archive_on_tape = true;
  // Make the only *disk* copy disappear: publish with tape location only by
  // removing clipper's disk files after publication.
  ASSERT_TRUE(testbed.publish_dataset(spec).ok());
  auto& clipper = testbed.server("clipper.lbl.gov");
  for (const auto& name : clipper.storage().list()) {
    if (name.rfind("deep-archive-r1/", 0) == 0) {
      ASSERT_TRUE(clipper.storage().remove(name).ok());
    }
  }
  // Also remove the disk location from the catalog so only "mss" remains.
  auto rc = testbed.make_catalog();
  bool removed = false;
  esg::directory::DirectoryClient dc(testbed.orb, testbed.client().local_host(),
                                     testbed.catalog_host());
  dc.remove(rc.collection_dn("deep-archive-r1").child("loc",
                                                      "clipper.lbl.gov"),
            false, [&](ec::Status st) {
              ASSERT_TRUE(st.ok()) << st.error().to_string();
              removed = true;
            });
  testbed.run_until_flag(removed);
  ASSERT_TRUE(removed);
  testbed.start_sensors(2);

  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "deep-archive-r1";
  req.variable = "cloud_fraction";
  req.month_start = 36;
  req.month_end = 42;
  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  ASSERT_EQ(result.transfer.files.size(), 1u);
  EXPECT_TRUE(result.transfer.files[0].staged_from_tape);
  EXPECT_EQ(result.field.ntime(), 6);
  EXPECT_GE(testbed.hrm().tape().stages_completed(), 1u);
}

TEST(EsgEndToEnd, ScatteredLayoutDrawsFromMultipleSites) {
  ee::EsgTestbed testbed(small_config());
  ee::DatasetSpec spec = small_dataset();
  spec.name = "scattered-ds";
  spec.n_months = 24;  // four 6-month chunks
  spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov",
                        "jupiter.isi.edu", "dataportal.ncar.edu"};
  spec.layout = ee::ReplicaLayout::scattered;
  ASSERT_TRUE(testbed.publish_dataset(spec).ok());

  // Every location is partial: two chunks per host.
  auto rc = testbed.make_catalog();
  bool checked = false;
  rc.list_locations("scattered-ds",
                    [&](ec::Result<std::vector<esg::replica::LocationInfo>> r) {
                      ASSERT_TRUE(r.ok());
                      ASSERT_EQ(r->size(), 4u);
                      for (const auto& loc : *r) {
                        EXPECT_EQ(loc.files.size(), 2u) << loc.name;
                      }
                      checked = true;
                    });
  testbed.run_until_flag(checked);
  ASSERT_TRUE(checked);

  testbed.start_sensors(2);
  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "scattered-ds";
  req.variable = "temperature";
  req.month_start = 36;
  req.month_end = 60;
  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  ASSERT_EQ(result.transfer.files.size(), 4u);
  std::set<std::string> sites;
  for (const auto& f : result.transfer.files) sites.insert(f.chosen_host);
  // Each chunk has only two candidate holders, so a 4-chunk request must
  // draw from at least two distinct sites.
  EXPECT_GE(sites.size(), 2u);
  // And the science still assembles correctly.
  auto direct = testbed.model().generate("temperature", 36, 24);
  for (std::size_t k = 0; k < direct.data().size(); k += 131) {
    EXPECT_NEAR(result.field.data()[k], direct.data()[k], 1e-3);
  }
}

TEST(EsgEndToEnd, MonitorTellsTheFig4Story) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  testbed.start_sensors(1);

  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "pcmdi-ocean-r1";
  req.variable = "temperature";
  req.month_start = 36;
  req.month_end = 48;
  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(testbed.monitor().all_terminal());
  EXPECT_EQ(testbed.monitor().files_complete(), 2u);
  const std::string frame =
      testbed.monitor().render(testbed.sim.now());
  EXPECT_NE(frame.find("pcmdi-ocean-r1.36-42.ncx"), std::string::npos);
  EXPECT_NE(frame.find("(done)"), std::string::npos);
}

TEST(EsgEndToEnd, RenderedMeanFieldIsPlausible) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  testbed.start_sensors(1);
  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "pcmdi-ocean-r1";
  req.variable = "temperature";
  req.month_start = 36;
  req.month_end = 42;
  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.max, result.stats.min);
  EXPECT_GT(result.stats.mean, -30.0);
  EXPECT_LT(result.stats.mean, 40.0);
  const std::string art = cl::render_ascii(result.mean);
  EXPECT_NE(art.find("temperature"), std::string::npos);
  auto ppm = cl::render_ppm(result.mean);
  EXPECT_GT(ppm.size(), 1000u);
}

TEST(EsgEndToEnd, SecondAnalysisReusesWarmChannels) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  testbed.start_sensors(1);
  ee::EsgClient client(testbed);
  ee::AnalysisRequest req;
  req.dataset = "pcmdi-ocean-r1";
  req.variable = "temperature";
  req.month_start = 36;
  req.month_end = 42;
  auto first = client.analyze_blocking(req);
  ASSERT_TRUE(first.status.ok());
  const auto auths_after_first = testbed.client().stats().auth_handshakes;
  req.variable = "precipitation";  // same files? same chunk files, yes
  auto second = client.analyze_blocking(req);
  ASSERT_TRUE(second.status.ok());
  // The second round may re-fetch the file but must not re-authenticate if
  // it talks to the same server within the idle window.
  EXPECT_EQ(testbed.client().stats().auth_handshakes, auths_after_first);
}
