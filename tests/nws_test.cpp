// Tests for NWS forecasting (the Wolski-style adaptive battery) and the
// probe sensors, plus MDS publication.
#include <gtest/gtest.h>

#include <cmath>

#include "scenario/star.hpp"
#include "nws/forecast.hpp"
#include "nws/sensor.hpp"

namespace enws = esg::nws;
namespace ec = esg::common;
using ec::kMillisecond;
using ec::kSecond;
using ec::mbps;
using esg::scenario::UniformStar;

// ---------- forecasters ----------

TEST(Forecast, LastValueTracksInput) {
  auto f = enws::make_last_value();
  f->observe(3.0);
  f->observe(7.0);
  EXPECT_DOUBLE_EQ(f->predict(), 7.0);
}

TEST(Forecast, RunningMeanAveragesAll) {
  auto f = enws::make_running_mean();
  for (double v : {2.0, 4.0, 6.0}) f->observe(v);
  EXPECT_DOUBLE_EQ(f->predict(), 4.0);
}

TEST(Forecast, SlidingMeanForgetsOld) {
  auto f = enws::make_sliding_mean(2);
  for (double v : {100.0, 1.0, 3.0}) f->observe(v);
  EXPECT_DOUBLE_EQ(f->predict(), 2.0);
}

TEST(Forecast, SlidingMedianRobustToOutliers) {
  auto f = enws::make_sliding_median(5);
  for (double v : {10.0, 10.0, 10.0, 10.0, 1000.0}) f->observe(v);
  EXPECT_DOUBLE_EQ(f->predict(), 10.0);
}

TEST(Forecast, ExpSmoothingBlends) {
  auto f = enws::make_exp_smoothing(0.5);
  f->observe(0.0);
  f->observe(10.0);
  EXPECT_DOUBLE_EQ(f->predict(), 5.0);
}

TEST(Forecast, AdaptivePicksLastValueForTrend) {
  // On a steadily rising series, last-value beats long averages.
  enws::AdaptiveForecaster adaptive;
  for (int i = 0; i < 200; ++i) adaptive.observe(static_cast<double>(i));
  EXPECT_EQ(adaptive.best_member(), "last");
  EXPECT_NEAR(adaptive.predict(), 199.0, 1.0);
}

TEST(Forecast, AdaptivePrefersSmoothingForNoise) {
  // On stationary noise around a mean, an averaging member must beat
  // last-value; the winner's MSE must be at most the last-value MSE.
  enws::AdaptiveForecaster adaptive;
  ec::Rng rng(42);
  for (int i = 0; i < 500; ++i) adaptive.observe(rng.normal(50.0, 5.0));
  EXPECT_NE(adaptive.best_member(), "last");
  EXPECT_NEAR(adaptive.predict(), 50.0, 2.0);
}

TEST(Forecast, AdaptiveErrorsTrackMembers) {
  enws::AdaptiveForecaster adaptive;
  for (int i = 0; i < 50; ++i) adaptive.observe(10.0);
  // Constant series: every member converges; errors all near zero.
  for (double e : adaptive.member_errors()) EXPECT_LT(e, 1e-9);
  EXPECT_EQ(adaptive.observations(), 50u);
}

TEST(Forecast, AdaptiveCustomBattery) {
  std::vector<std::unique_ptr<enws::Forecaster>> battery;
  battery.push_back(enws::make_last_value());
  battery.push_back(enws::make_running_mean());
  enws::AdaptiveForecaster adaptive(std::move(battery));
  for (double v : {1.0, 2.0, 3.0}) adaptive.observe(v);
  EXPECT_GT(adaptive.predict(), 0.0);
}

// ---------- sensor ----------

TEST(Sensor, MeasuresPathBandwidthAndLatency) {
  UniformStar grid({"lbnl"});
  auto* src = grid.net.find_host("lbnl.host");
  enws::SensorConfig cfg;
  cfg.period = 30 * kSecond;
  cfg.probe_size = ec::kMB;
  enws::NwsSensor sensor(grid.net, *src, grid.client().local_host(), cfg,
                         nullptr);
  grid.sim.run_until(10 * 30 * kSecond + kSecond);
  EXPECT_GE(sensor.rounds(), 9u);
  // Link is 100 Mb/s = 12.5 MB/s; a short probe with slow start lands below
  // that but within a sane band.
  EXPECT_GT(sensor.bandwidth_forecast(), mbps(20));
  EXPECT_LE(sensor.bandwidth_forecast(), mbps(100) * 1.05);
  // Real RTT across the star topology is ~20.4 ms; jitter only adds.
  EXPECT_GT(sensor.latency_forecast(), 20 * kMillisecond);
  EXPECT_LT(sensor.latency_forecast(), 25 * kMillisecond);
}

TEST(Sensor, SeesBackgroundCongestion) {
  UniformStar grid({"lbnl"});
  auto* src = grid.net.find_host("lbnl.host");
  enws::SensorConfig cfg;
  cfg.period = 30 * kSecond;
  enws::NwsSensor sensor(grid.net, *src, grid.client().local_host(), cfg,
                         nullptr);
  grid.sim.run_until(5 * 30 * kSecond);
  const double clean = sensor.bandwidth_forecast();
  // Congest the client uplink in the server->client direction.
  auto* link = grid.net.find_link("client-uplink");
  grid.net.fluid().set_background(link->backward(), mbps(90));
  grid.sim.run_until(grid.sim.now() + 20 * 30 * kSecond);
  const double congested = sensor.bandwidth_forecast();
  EXPECT_LT(congested, 0.5 * clean);
}

TEST(Sensor, FailedProbeForecastsTowardZero) {
  UniformStar grid({"lbnl"});
  auto* src = grid.net.find_host("lbnl.host");
  enws::SensorConfig cfg;
  cfg.period = 20 * kSecond;
  enws::NwsSensor sensor(grid.net, *src, grid.client().local_host(), cfg,
                         nullptr);
  grid.sim.run_until(3 * 20 * kSecond);
  grid.net.apply_outage("client-uplink", true);
  grid.sim.run_until(grid.sim.now() + 10 * 20 * kSecond);
  EXPECT_TRUE(sensor.last_measurement().probe_failed);
  EXPECT_LT(sensor.bandwidth_forecast(), mbps(1));
}

TEST(Sensor, PublishesMeasurements) {
  UniformStar grid({"lbnl"});
  auto* src = grid.net.find_host("lbnl.host");
  enws::SensorConfig cfg;
  cfg.period = 10 * kSecond;
  int publishes = 0;
  std::string last_src;
  enws::NwsSensor sensor(
      grid.net, *src, grid.client().local_host(), cfg,
      [&](const std::string& s, const std::string& d, ec::Rate bw,
          ec::SimDuration lat, const enws::Measurement&) {
        ++publishes;
        last_src = s;
        EXPECT_EQ(d, "client");
        EXPECT_GT(bw, 0.0);
        EXPECT_GT(lat, 0);
      });
  grid.sim.run_until(5 * 10 * kSecond + kSecond);
  EXPECT_GE(publishes, 4);
  EXPECT_EQ(last_src, "lbnl.host");
}

// ---------- sensor clique ----------

TEST(SensorClique, MembersMeasureSequentially) {
  // Three sensors on the same bottleneck: with the clique, probes never
  // overlap, so each measures the full link.
  UniformStar grid({"lbnl"}, ec::mbps(100));
  std::vector<esg::gridftp::GridFtpServer*> extra;
  for (int i = 0; i < 2; ++i) {
    extra.push_back(&grid.add_server("extra" + std::to_string(i), "lbnl"));
  }
  enws::SensorClique clique(grid.net, 30 * kSecond);
  enws::SensorConfig cfg;
  cfg.probe_size = ec::kMB;
  clique.add_member(*grid.net.find_host("lbnl.host"),
                    grid.client().local_host(), cfg, nullptr);
  clique.add_member(*grid.net.find_host("extra0"),
                    grid.client().local_host(), cfg, nullptr);
  clique.add_member(*grid.net.find_host("extra1"),
                    grid.client().local_host(), cfg, nullptr);
  grid.sim.run_until(8 * 30 * kSecond);
  EXPECT_GE(clique.rounds(), 7u);
  // Each member's forecast is near the FULL link rate (12.5 MB/s), not a
  // third of it.
  for (std::size_t i = 0; i < clique.members(); ++i) {
    EXPECT_GT(clique.member(i).bandwidth_forecast(), ec::mbps(45))
        << "member " << i;
  }
}

TEST(SensorClique, UncoordinatedSensorsInterfere) {
  // The artifact the clique removes: three free-running sensors probing the
  // same bottleneck at the same instant split it three ways.
  UniformStar grid({"lbnl"}, ec::mbps(100));
  std::vector<esg::gridftp::GridFtpServer*> extra;
  for (int i = 0; i < 2; ++i) {
    extra.push_back(&grid.add_server("x" + std::to_string(i), "lbnl"));
  }
  enws::SensorConfig cfg;
  cfg.period = 30 * kSecond;  // identical periods: probes collide
  cfg.probe_size = ec::kMB;
  enws::NwsSensor a(grid.net, *grid.net.find_host("lbnl.host"),
                    grid.client().local_host(), cfg, nullptr);
  enws::NwsSensor b(grid.net, *grid.net.find_host("x0"),
                    grid.client().local_host(), cfg, nullptr);
  enws::NwsSensor c(grid.net, *grid.net.find_host("x1"),
                    grid.client().local_host(), cfg, nullptr);
  grid.sim.run_until(8 * 30 * kSecond);
  a.stop();
  b.stop();
  c.stop();
  // Colliding probes each see well under half the link.
  EXPECT_LT(a.bandwidth_forecast(), ec::mbps(50));
  EXPECT_LT(b.bandwidth_forecast(), ec::mbps(50));
}

// ---------- host (CPU) sensor ----------

TEST(HostSensor, TracksCpuAvailability) {
  UniformStar grid({"lbnl"});
  auto* host = grid.net.find_host("lbnl.host");
  enws::HostSensor sensor(grid.net, *host, 10 * kSecond, nullptr, 5, 0.0);
  grid.sim.run_until(5 * 10 * kSecond);
  EXPECT_GE(sensor.rounds(), 4u);
  EXPECT_NEAR(sensor.cpu_forecast(), 1.0, 0.01);  // idle host
  // Load the CPU to 75%: availability forecast tends toward 0.25.
  grid.net.fluid().set_background(host->cpu(),
                                  host->cpu()->nominal_capacity() * 0.75);
  grid.sim.run_until(grid.sim.now() + 20 * 10 * kSecond);
  EXPECT_NEAR(sensor.cpu_forecast(), 0.25, 0.05);
}

TEST(HostSensor, DownHostForecastsZero) {
  UniformStar grid({"lbnl"});
  auto* host = grid.net.find_host("lbnl.host");
  enws::HostSensor sensor(grid.net, *host, 10 * kSecond, nullptr, 5, 0.0);
  grid.net.set_host_down(*host, true);
  grid.sim.run_until(5 * 10 * kSecond);
  EXPECT_NEAR(sensor.cpu_forecast(), 0.0, 0.01);
}

TEST(HostSensor, PublishesIntoMds) {
  UniformStar grid({"lbnl"});
  auto* host = grid.net.find_host("lbnl.host");
  auto mds_client = std::make_shared<esg::mds::MdsClient>(
      grid.orb, *host, grid.mds_host());
  enws::HostSensor sensor(
      grid.net, *host, 10 * kSecond,
      [&grid, mds_client, host](const std::string& name, double cpu) {
        esg::mds::HostRecord rec;
        rec.name = name;
        rec.site = host->site();
        rec.cpu_available = cpu;
        rec.updated = grid.sim.now();
        mds_client->publish_host(rec, [](ec::Status) {});
      },
      5, 0.0);
  grid.sim.run_until(3 * 10 * kSecond + kSecond);
  sensor.stop();
  auto query = grid.make_mds_client();
  bool checked = false;
  query.query_host("lbnl.host", [&](ec::Result<esg::mds::HostRecord> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r->cpu_available, 1.0, 0.01);
    EXPECT_GT(r->updated, 0);
    checked = true;
  });
  grid.sim.run();
  EXPECT_TRUE(checked);
}

// ---------- MDS ----------

TEST(Mds, PublishAndQueryNetworkRecord) {
  UniformStar grid({"lbnl"});
  auto mds_client = grid.make_mds_client();
  esg::mds::NetworkRecord rec;
  rec.src_host = "lbnl.host";
  rec.dst_host = "client";
  rec.bandwidth = mbps(89);
  rec.latency = 12 * kMillisecond;
  rec.updated = 42;
  bool published = false;
  mds_client.publish_network(rec, [&](ec::Status st) {
    ASSERT_TRUE(st.ok()) << st.error().to_string();
    published = true;
  });
  grid.sim.run();
  ASSERT_TRUE(published);

  bool queried = false;
  mds_client.query_network("lbnl.host", "client",
                           [&](ec::Result<esg::mds::NetworkRecord> r) {
                             ASSERT_TRUE(r.ok());
                             EXPECT_NEAR(r->bandwidth, mbps(89), 1.0);
                             EXPECT_EQ(r->latency, 12 * kMillisecond);
                             EXPECT_FALSE(r->probe_failed);
                             queried = true;
                           });
  grid.sim.run();
  EXPECT_TRUE(queried);
}

TEST(Mds, QueryPathsToCollectsAllSources) {
  UniformStar grid({"lbnl", "isi"});
  auto mds_client = grid.make_mds_client();
  for (const char* src : {"lbnl.host", "isi.host"}) {
    esg::mds::NetworkRecord rec;
    rec.src_host = src;
    rec.dst_host = "client";
    rec.bandwidth = mbps(50);
    mds_client.publish_network(rec, [](ec::Status) {});
  }
  // A record toward a different destination must not appear.
  esg::mds::NetworkRecord other;
  other.src_host = "lbnl.host";
  other.dst_host = "elsewhere";
  other.bandwidth = mbps(10);
  mds_client.publish_network(other, [](ec::Status) {});
  grid.sim.run();

  bool queried = false;
  mds_client.query_paths_to(
      "client", [&](ec::Result<std::vector<esg::mds::NetworkRecord>> r) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->size(), 2u);
        queried = true;
      });
  grid.sim.run();
  EXPECT_TRUE(queried);

  // The host name is a literal: wildcards in it match no record.
  for (const char* pattern : {"*", "cli*"}) {
    bool matched = false;
    mds_client.query_paths_to(
        pattern, [&](ec::Result<std::vector<esg::mds::NetworkRecord>> r) {
          ASSERT_TRUE(r.ok());
          EXPECT_TRUE(r->empty()) << pattern;
          matched = true;
        });
    grid.sim.run();
    EXPECT_TRUE(matched) << pattern;
  }
}

TEST(Mds, RepublishOverwritesRecord) {
  UniformStar grid({"lbnl"});
  auto mds_client = grid.make_mds_client();
  esg::mds::NetworkRecord rec;
  rec.src_host = "a";
  rec.dst_host = "b";
  rec.bandwidth = 100.0;
  mds_client.publish_network(rec, [](ec::Status) {});
  grid.sim.run();
  rec.bandwidth = 200.0;
  mds_client.publish_network(rec, [](ec::Status) {});
  grid.sim.run();
  bool queried = false;
  mds_client.query_network("a", "b", [&](ec::Result<esg::mds::NetworkRecord> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->bandwidth, 200.0);
    queried = true;
  });
  grid.sim.run();
  EXPECT_TRUE(queried);
}

TEST(Mds, HostRecords) {
  UniformStar grid({"lbnl"});
  auto mds_client = grid.make_mds_client();
  esg::mds::HostRecord host;
  host.name = "pdsf.lbl.gov";
  host.site = "lbnl";
  host.nic_rate = ec::gbps(1);
  host.disk_rate = mbps(400);
  mds_client.publish_host(host, [](ec::Status) {});
  grid.sim.run();
  bool queried = false;
  mds_client.query_host("pdsf.lbl.gov", [&](ec::Result<esg::mds::HostRecord> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->site, "lbnl");
    EXPECT_NEAR(r->nic_rate, ec::gbps(1), 1.0);
    queried = true;
  });
  grid.sim.run();
  EXPECT_TRUE(queried);
}

// End-to-end: a sensor publishing into MDS, queried back.
TEST(NwsMdsIntegration, SensorForecastVisibleInMds) {
  UniformStar grid({"lbnl"});
  auto mds_client = std::make_shared<esg::mds::MdsClient>(
      grid.orb, *grid.net.find_host("lbnl.host"), grid.mds_host());
  auto* src = grid.net.find_host("lbnl.host");
  enws::SensorConfig cfg;
  cfg.period = 15 * kSecond;
  enws::NwsSensor sensor(
      grid.net, *src, grid.client().local_host(), cfg,
      [&grid, mds_client](const std::string& s, const std::string& d,
                          ec::Rate bw, ec::SimDuration lat,
                          const enws::Measurement& m) {
        esg::mds::NetworkRecord rec;
        rec.src_host = s;
        rec.dst_host = d;
        rec.bandwidth = bw;
        rec.latency = lat;
        rec.updated = grid.sim.now();
        rec.probe_failed = m.probe_failed;
        mds_client->publish_network(rec, [](ec::Status) {});
      });
  grid.sim.run_until(6 * 15 * kSecond);
  sensor.stop();  // otherwise the periodic probe keeps the queue alive
  auto query_client = grid.make_mds_client();
  bool queried = false;
  query_client.query_network("lbnl.host", "client",
                             [&](ec::Result<esg::mds::NetworkRecord> r) {
                               ASSERT_TRUE(r.ok());
                               EXPECT_GT(r->bandwidth, mbps(1));
                               EXPECT_GT(r->updated, 0);
                               queried = true;
                             });
  grid.sim.run();
  EXPECT_TRUE(queried);
}
