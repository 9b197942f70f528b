// Tests for the request manager's remote (CORBA-shaped) interface: a CDAT
// host submits a multi-file request to the RM over RPC and receives the
// per-file outcomes.
#include <gtest/gtest.h>

#include "esg/testbed.hpp"
#include "climate/subset.hpp"
#include "rm/service.hpp"

namespace erm = esg::rm;
namespace ec = esg::common;
namespace ee = esg::esg;
using ec::kSecond;

namespace {

struct ServiceWorld {
  ee::EsgTestbed testbed;
  std::unique_ptr<erm::RequestManagerService> service;
  esg::net::Host* cdat_host = nullptr;

  ServiceWorld() : testbed(make_config()) {
    // Expose the RM (which runs on the client/desktop host) over RPC, and
    // add a separate "CDAT" host at LLNL that calls it remotely.
    service = std::make_unique<erm::RequestManagerService>(
        testbed.orb, testbed.request_manager());
    cdat_host = testbed.net.add_host(
        {.name = "cdat.llnl.gov", .site = "llnl"});
    ee::DatasetSpec spec;
    spec.name = "remote-ds";
    spec.start_month = 0;
    spec.n_months = 12;
    spec.months_per_file = 6;
    spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov"};
    EXPECT_TRUE(testbed.publish_dataset(spec).ok());
    testbed.start_sensors(1);
  }

  static ee::TestbedConfig make_config() {
    ee::TestbedConfig cfg;
    cfg.grid = esg::climate::GridSpec{18, 36};
    cfg.sensor_period = 30 * kSecond;
    return cfg;
  }
};

}  // namespace

TEST(RmService, RemoteSubmitRoundTrips) {
  ServiceWorld w;
  erm::RequestManagerClient client(w.testbed.orb, *w.cdat_host,
                                   w.testbed.client().local_host());
  erm::RequestOptions options;
  options.transfer.parallelism = 2;
  bool done = false;
  client.submit(
      {{"remote-ds", "remote-ds.0-6.ncx"}, {"remote-ds", "remote-ds.6-12.ncx"}},
      options, [&](ec::Result<erm::RequestResult> r) {
        done = true;
        ASSERT_TRUE(r.ok()) << r.error().to_string();
        ASSERT_TRUE(r->status.ok());
        ASSERT_EQ(r->files.size(), 2u);
        for (const auto& f : r->files) {
          EXPECT_TRUE(f.status.ok());
          EXPECT_GT(f.bytes, 0);
          EXPECT_FALSE(f.chosen_host.empty());
          EXPECT_EQ(f.local_name.rfind("cache/", 0), 0u);
        }
        EXPECT_GT(r->total_bytes, 0);
      });
  w.testbed.run_until_flag(done);
  EXPECT_TRUE(done);
  // The data landed at the RM's host (the visualization system's cache).
  EXPECT_TRUE(w.testbed.client().local_storage().exists(
      "cache/remote-ds.0-6.ncx"));
}

TEST(RmService, RemoteSubmitReportsPerFileFailures) {
  ServiceWorld w;
  erm::RequestManagerClient client(w.testbed.orb, *w.cdat_host,
                                   w.testbed.client().local_host());
  bool done = false;
  client.submit({{"remote-ds", "remote-ds.0-6.ncx"},
                 {"remote-ds", "no-such-file.ncx"}},
                {}, [&](ec::Result<erm::RequestResult> r) {
                  done = true;
                  ASSERT_TRUE(r.ok());
                  EXPECT_FALSE(r->status.ok());  // one file failed
                  ASSERT_EQ(r->files.size(), 2u);
                  EXPECT_TRUE(r->files[0].status.ok());
                  EXPECT_FALSE(r->files[1].status.ok());
                });
  w.testbed.run_until_flag(done);
  EXPECT_TRUE(done);
}

TEST(RmService, UnknownMethodRejected) {
  ServiceWorld w;
  bool done = false;
  w.testbed.orb.call(*w.cdat_host, w.testbed.client().local_host(), "rm",
                     "BOGUS", {}, [&](ec::Result<esg::rpc::Payload> r) {
                       done = true;
                       ASSERT_FALSE(r.ok());
                       EXPECT_EQ(r.error().code, ec::Errc::protocol_error);
                     });
  w.testbed.run_until_flag(done);
  EXPECT_TRUE(done);
}

TEST(RmService, SubsettingTravelsOverTheWire) {
  ServiceWorld w;
  erm::RequestManagerClient client(w.testbed.orb, *w.cdat_host,
                                   w.testbed.client().local_host());
  erm::FileRequest fr{"remote-ds", "remote-ds.0-6.ncx",
                      esg::climate::kNcxSubsetModule,
                      "var=temperature;months=0:3"};
  bool done = false;
  client.submit({fr}, {}, [&](ec::Result<erm::RequestResult> r) {
    done = true;
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->status.ok()) << r->status.error().message;
    // The subset is far smaller than the whole chunk.
    EXPECT_LT(r->files[0].bytes, r->files[0].size / 2);
    EXPECT_GT(r->files[0].bytes, 0);
  });
  w.testbed.run_until_flag(done);
  EXPECT_TRUE(done);
}
