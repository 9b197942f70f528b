// The scenario builder: fault routing by target name, seeding through the
// live catalog services, and same-seed determinism of a built world.
#include <gtest/gtest.h>

#include <type_traits>

#include "rm/request_manager.hpp"
#include "scenario/star.hpp"

namespace ec = esg::common;
namespace es = esg::sim;
namespace eg = esg::gridftp;
namespace erm = esg::rm;
namespace esc = esg::scenario;
using ec::kSecond;

// The fault hooks capture the grid's address.
static_assert(!std::is_copy_constructible_v<esc::Grid>);
static_assert(!std::is_move_constructible_v<esc::Grid>);
static_assert(!std::is_copy_assignable_v<esc::Grid>);
static_assert(!std::is_move_assignable_v<esc::Grid>);

namespace {

esg::storage::TapeConfig quick_tape() {
  esg::storage::TapeConfig tape;
  tape.drives = 1;
  tape.mount_time = 5 * kSecond;
  tape.avg_seek = 2 * kSecond;
  return tape;
}

es::FaultEvent fault(es::FaultKind kind, const std::string& target) {
  return {kind, target, 0, 0, 0.5, ""};
}

// One plain GET from `host` through the grid's client; its status.
ec::Status get(esc::Grid& grid, const std::string& host,
               const std::string& path) {
  bool done = false;
  ec::Status status;
  grid.client().get({host, path}, "in/" + path, {}, nullptr,
                    [&](eg::TransferResult r) {
                      status = r.status;
                      done = true;
                    });
  grid.sim.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
  return status;
}

}  // namespace

TEST(ScenarioFaultHooks, HpssCrashHitsTheHrmAndSparesItsGridFtpServer) {
  esc::EsgStar grid(1, quick_tape());
  (void)grid.server("hpss.lbl.gov").storage().put(
      esg::storage::FileObject::synthetic("plain.ncx", 1'000'000));
  const auto hooks = grid.fault_hooks();
  const auto crash = fault(es::FaultKind::service_crash, "hpss.lbl.gov");

  hooks.service_crash(crash, true);
  EXPECT_TRUE(grid.hrm().crashed());
  EXPECT_FALSE(grid.server("hpss.lbl.gov").crashed());
  // The co-located GridFTP server still serves.
  EXPECT_TRUE(get(grid, "hpss.lbl.gov", "plain.ncx").ok());

  hooks.service_crash(crash, false);
  EXPECT_FALSE(grid.hrm().crashed());
}

TEST(ScenarioFaultHooks, ServerCrashHitsOnlyTheNamedServer) {
  esc::EsgStar grid(1, quick_tape());
  const auto hooks = grid.fault_hooks();
  hooks.service_crash(fault(es::FaultKind::service_crash, "isi.host"), true);
  EXPECT_TRUE(grid.server("isi.host").crashed());
  EXPECT_FALSE(grid.server("lbnl.host").crashed());
  EXPECT_FALSE(grid.server("hpss.lbl.gov").crashed());
  hooks.service_crash(fault(es::FaultKind::service_crash, "isi.host"), false);
  EXPECT_FALSE(grid.server("isi.host").crashed());
}

TEST(ScenarioFaultHooks, CorruptionReachesOnlyTheNamedClient) {
  esc::Grid grid;
  grid.net.add_site("a");
  grid.net.add_site("b");
  grid.net.add_link({.name = "ab", .site_a = "a", .site_b = "b"});
  grid.add_server("src.host", "a");
  auto& first = grid.add_client("first.client", "b");
  auto& second = grid.add_client("second.client", "b");
  (void)grid.server("src.host").storage().put(
      esg::storage::FileObject::synthetic("f", 1'000'000));

  grid.fault_hooks().corruption(
      fault(es::FaultKind::corruption, "second.client"));
  auto fetch = [&](eg::GridFtpClient& client) {
    bool done = false;
    ec::Status status;
    client.get({"src.host", "f"}, "f", {}, nullptr,
               [&](eg::TransferResult r) {
                 status = r.status;
                 done = true;
               });
    grid.sim.run();
    EXPECT_TRUE(done);
    return status;
  };
  EXPECT_TRUE(fetch(first).ok());
  const ec::Status corrupted = fetch(second);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.error().code, ec::Errc::io_error);
}

TEST(ScenarioFaultHooks, UnknownTargetsAreNoOps) {
  esc::EsgStar grid(1, quick_tape());
  const auto hooks = grid.fault_hooks();
  hooks.brownout(fault(es::FaultKind::brownout, "no-such-link"), true);
  hooks.loss_spike(fault(es::FaultKind::loss_spike, "no-such-link"), true);
  hooks.service_crash(fault(es::FaultKind::service_crash, "nobody.host"),
                      true);
  hooks.corruption(fault(es::FaultKind::corruption, "nobody.host"));
  for (const auto& [host, server] : grid.servers()) {
    EXPECT_FALSE(server->crashed()) << host;
  }
  (void)grid.server("lbnl.host").storage().put(
      esg::storage::FileObject::synthetic("f", 1'000'000));
  EXPECT_TRUE(get(grid, "lbnl.host", "f").ok());  // no corruption queued

  // A grid without an HRM has no tape to stall.
  esc::UniformStar plain;
  plain.fault_hooks().stage_stall(fault(es::FaultKind::stage_stall, "tape"),
                                  true);
}

TEST(ScenarioPublish, SeedingFailureSurfaces) {
  esc::EsgStar grid(1, quick_tape());
  // The MDS host is down: the forecast RPCs are lost and time out.
  grid.net.set_host_down(*grid.net.find_host("mds.host"), true);
  grid.publish(esc::esg_star_publication("c", 2, 0, 1'000'000));
  grid.sim.run();
  ASSERT_FALSE(grid.seeding_status().ok());
  // The catalog side, issued first, still landed.
  bool listed = false;
  grid.make_catalog().list_locations(
      "c", [&](ec::Result<std::vector<esg::replica::LocationInfo>> r) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->size(), 2u);
        listed = true;
      });
  grid.sim.run();
  EXPECT_TRUE(listed);
}

TEST(ScenarioPublish, LocationWithoutItsServiceIsASeedingFailure) {
  // UniformStar has no HRM, so the HPSS location has nowhere to archive.
  esc::UniformStar grid;
  grid.publish(esc::esg_star_publication("c", 1, 1, 1'000'000));
  grid.sim.run();
  ASSERT_FALSE(grid.seeding_status().ok());
  EXPECT_EQ(grid.seeding_status().error().code, ec::Errc::not_found);
  EXPECT_TRUE(grid.server("lbnl.host").storage().exists("co2/month.0.ncx"));
}

TEST(ScenarioPublish, SeedsCatalogStorageTapeAndForecasts) {
  esc::EsgStar grid(1, quick_tape());
  const auto publication = esc::esg_star_publication("c", 2, 1, 3'000'000);
  grid.publish(publication);
  grid.sim.run();
  ASSERT_TRUE(grid.seeding_status().ok());
  for (const char* host : {"lbnl.host", "isi.host"}) {
    EXPECT_EQ(
        grid.server(host).storage().size_of("co2/month.1.ncx").value_or(0),
        3'000'000);
  }
  EXPECT_EQ(grid.hrm().status("archive/deep.0.ncx"), "archived");

  erm::RequestManager manager(grid.orb, grid.client().local_host(),
                              grid.make_catalog(), grid.make_mds_client(),
                              grid.client(), nullptr);
  std::vector<erm::FileRequest> wanted;
  for (const auto& f : publication.files) wanted.push_back({"c", f.name});
  bool done = false;
  manager.submit(wanted, {}, [&](erm::RequestResult r) {
    EXPECT_TRUE(r.status.ok()) << r.status.error().to_string();
    ASSERT_EQ(r.files.size(), 3u);
    EXPECT_EQ(r.files[0].chosen_host, "lbnl.host");  // 120 vs 80 Mb/s
    EXPECT_TRUE(r.files[2].staged_from_tape);
    done = true;
  });
  grid.sim.run();
  EXPECT_TRUE(done);
}

TEST(ScenarioHosts, RatesOverrideReachesOnlyItsHost) {
  esc::Grid grid(1, {.nic = ec::mbps(500)});
  grid.net.add_site("a");
  const esc::HostRates slow{.nic = ec::mbps(100), .cpu = ec::mbps(95),
                            .disk = ec::mbps(82)};
  grid.add_server("plain.host", "a");
  grid.add_server("slow.host", "a", slow);
  grid.add_client("client", "a");
  const auto rates_of = [&grid](const std::string& name) {
    const auto* host = grid.net.find_host(name);
    EXPECT_NE(host, nullptr) << name;
    return esc::HostRates{.nic = host->nic()->nominal_capacity(),
                          .cpu = host->cpu()->nominal_capacity(),
                          .disk = host->disk()->nominal_capacity()};
  };
  for (const char* name : {"plain.host", "client"}) {
    const auto r = rates_of(name);
    EXPECT_EQ(r.nic, ec::mbps(500)) << name;
    EXPECT_EQ(r.cpu, ec::gbps(1)) << name;
    EXPECT_EQ(r.disk, ec::gbps(1)) << name;
  }
  const auto r = rates_of("slow.host");
  EXPECT_EQ(r.nic, slow.nic);
  EXPECT_EQ(r.cpu, slow.cpu);
  EXPECT_EQ(r.disk, slow.disk);
}

TEST(ScenarioHosts, CatalogAndMdsServeFromTheNamedHosts) {
  esc::Grid grid;
  for (const char* site : {"dcc", "anl", "isi"}) grid.net.add_site(site);
  grid.net.add_link({.name = "dcc-anl", .site_a = "dcc", .site_b = "anl"});
  grid.net.add_link({.name = "dcc-isi", .site_a = "dcc", .site_b = "isi"});
  grid.add_client("client", "dcc");
  grid.add_catalog("ldap.anl", "anl");
  grid.add_mds("mds.isi", "isi", esc::HostRates{.cpu = ec::mbps(700)});
  EXPECT_EQ(grid.catalog_host().name(), "ldap.anl");
  EXPECT_EQ(grid.catalog_host().site(), "anl");
  EXPECT_EQ(grid.mds_host().name(), "mds.isi");
  EXPECT_EQ(grid.mds_host().site(), "isi");
  EXPECT_EQ(grid.mds_host().cpu()->nominal_capacity(), ec::mbps(700));
  EXPECT_TRUE(grid.orb.service_available(grid.catalog_host(), "ldap"));
  EXPECT_FALSE(grid.orb.service_available(grid.catalog_host(), "mds"));
  EXPECT_TRUE(grid.orb.service_available(grid.mds_host(), "mds"));
  EXPECT_FALSE(grid.orb.service_available(grid.mds_host(), "ldap"));

  // Seeding goes through both services; each answers from its own host.
  esc::Publication publication;
  publication.collection = "c";
  esg::mds::NetworkRecord forecast;
  forecast.src_host = "lbnl.host";
  forecast.dst_host = "client";
  forecast.bandwidth = ec::mbps(120);
  publication.network.push_back(forecast);
  grid.publish(publication);
  grid.sim.run();
  ASSERT_TRUE(grid.seeding_status().ok());
  grid.net.set_host_down(*grid.net.find_host("ldap.anl"), true);
  bool listed = false;
  bool queried = false;
  grid.make_catalog().list_locations(
      "c", [&](ec::Result<std::vector<esg::replica::LocationInfo>> r) {
        EXPECT_FALSE(r.ok());
        listed = true;
      });
  grid.make_mds_client().query_network(
      "lbnl.host", "client", [&](ec::Result<esg::mds::NetworkRecord> r) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->bandwidth, ec::mbps(120));
        queried = true;
      });
  grid.sim.run();
  EXPECT_TRUE(listed);
  EXPECT_TRUE(queried);
}

namespace {

std::uint64_t faulted_world_digest(std::uint64_t seed) {
  esc::EsgStar grid(seed, quick_tape());
  grid.publish(esc::esg_star_publication("c", 3, 1, 2'000'000));
  grid.sim.run();
  es::FaultInjector injector(seed);
  injector
      .add({es::FaultKind::service_crash, "lbnl.host", kSecond, 10 * kSecond,
            0.0, ""})
      .add({es::FaultKind::brownout, "isi-uplink", 0, 20 * kSecond, 0.3, ""})
      .add({es::FaultKind::corruption, "client", kSecond, 0, 0.0, ""});
  injector.arm(grid.sim, grid.fault_hooks());
  erm::RequestManager manager(grid.orb, grid.client().local_host(),
                              grid.make_catalog(), grid.make_mds_client(),
                              grid.client(), nullptr);
  erm::RequestOptions opts;
  opts.reliability.retry_backoff = kSecond;
  opts.transfer.stall_timeout = 5 * kSecond;
  bool ok = false;
  manager.submit({{"c", "month.0.ncx"}, {"c", "month.1.ncx"},
                  {"c", "deep.0.ncx"}},
                 opts, [&](erm::RequestResult r) { ok = r.status.ok(); });
  grid.sim.run();
  EXPECT_TRUE(ok);
  return grid.sim.flight_recorder().digest();
}

}  // namespace

TEST(ScenarioDeterminism, SameSeedBuildsGiveEqualFlightDigests) {
  const std::uint64_t digest = faulted_world_digest(7);
  EXPECT_NE(digest, 0u);
  EXPECT_EQ(faulted_world_digest(7), digest);
}
