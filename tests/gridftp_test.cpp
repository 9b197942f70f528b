// GridFTP integration tests: authentication, GET/PUT/third-party, parallel
// streams, restart markers, channel caching, ERET modules, striping, the
// 32-bit size limitation, and the reliability plugin.
#include <gtest/gtest.h>

#include <memory>

#include "gridftp/client.hpp"
#include "gridftp/reliability.hpp"
#include "gridftp/striped.hpp"
#include "gridftp/url.hpp"
#include "scenario/grid.hpp"

namespace eg = esg::gridftp;
namespace en = esg::net;
namespace es = esg::sim;
namespace ec = esg::common;
namespace sec = esg::security;
namespace est = esg::storage;

using ec::kMillisecond;
using ec::kSecond;
using ec::mbps;

namespace {

// A miniature two-site grid: one GridFTP server at "lbnl", a client host at
// "dcc" (the Dallas convention center), 100 Mb/s WAN at 10 ms.
struct Grid : esg::scenario::Grid {
  en::Link* wan = nullptr;
  eg::GridFtpServer* server = nullptr;
  eg::GridFtpClient* client = nullptr;
  const en::Host* client_host = nullptr;

  explicit Grid(ec::Rate link = mbps(100),
                ec::SimDuration latency = 10 * kMillisecond,
                double loss = 0.0) {
    net.add_site("dcc");
    net.add_site("lbnl");
    wan = net.add_link({.name = "wan", .site_a = "dcc", .site_b = "lbnl",
                        .capacity = link, .latency = latency, .loss = loss});
    server = &add_server("pdsf.lbl.gov", "lbnl");
    client = &add_client("client.dcc", "dcc");
    client_host = &client->local_host();
  }

  void add_file(const std::string& name, ec::Bytes size) {
    ASSERT_TRUE(server->storage().put(est::FileObject::synthetic(name, size)).ok());
  }
};

eg::TransferOptions fast_opts(int parallelism = 1) {
  eg::TransferOptions o;
  o.parallelism = parallelism;
  o.buffer_size = 4 * ec::kMiB;
  return o;
}

}  // namespace

// ---------- URL ----------

TEST(FtpUrl, ParseValid) {
  auto u = eg::FtpUrl::parse("gsiftp://jupiter.isi.edu/data/co2.1998.ncx");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->host, "jupiter.isi.edu");
  EXPECT_EQ(u->path, "data/co2.1998.ncx");
  EXPECT_EQ(u->to_string(), "gsiftp://jupiter.isi.edu/data/co2.1998.ncx");
}

TEST(FtpUrl, ParseErrors) {
  EXPECT_FALSE(eg::FtpUrl::parse("http://host/x").ok());
  EXPECT_FALSE(eg::FtpUrl::parse("gsiftp://hostonly").ok());
  EXPECT_FALSE(eg::FtpUrl::parse("gsiftp:///path").ok());
  EXPECT_FALSE(eg::FtpUrl::parse("gsiftp://host/").ok());
}

// ---------- GET ----------

TEST(GridFtp, SimpleGetDeliversFile) {
  Grid g;
  g.add_file("data/model.ncx", 50'000'000);
  bool done = false;
  g.client->get(
      {"pdsf.lbl.gov", "data/model.ncx"}, "local/model.ncx", fast_opts(),
      nullptr, [&](eg::TransferResult r) {
        ASSERT_TRUE(r.status.ok()) << r.status.error().to_string();
        EXPECT_EQ(r.bytes_transferred, 50'000'000);
        EXPECT_EQ(r.file_size, 50'000'000);
        done = true;
      });
  g.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(g.client->local_storage().size_of("local/model.ncx").value_or(0),
            50'000'000);
  // ~12.5 MB/s -> ~4 s + handshakes.
  EXPECT_GT(ec::to_seconds(g.sim.now()), 4.0);
  EXPECT_LT(ec::to_seconds(g.sim.now()), 6.0);
}

TEST(GridFtp, GetCarriesRealContent) {
  Grid g;
  auto data = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{10, 20, 30, 40});
  ASSERT_TRUE(
      g.server->storage().put(est::FileObject::with_content("f.bin", data)).ok());
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "f.bin"}, "f.bin", fast_opts(), nullptr,
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok());
                  done = true;
                });
  g.sim.run();
  ASSERT_TRUE(done);
  auto f = g.client->local_storage().get("f.bin");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f->content);
  EXPECT_EQ((*f->content)[3], 40);
}

TEST(GridFtp, MissingFileFails) {
  Grid g;
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "nope"}, "nope", fast_opts(), nullptr,
                [&](eg::TransferResult r) {
                  done = true;
                  ASSERT_FALSE(r.status.ok());
                  EXPECT_EQ(r.status.error().code, ec::Errc::not_found);
                });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, UnknownHostFails) {
  Grid g;
  bool done = false;
  g.client->get({"ghost.example", "x"}, "x", fast_opts(), nullptr,
                [&](eg::TransferResult r) {
                  done = true;
                  EXPECT_FALSE(r.status.ok());
                });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, BadCredentialRejected) {
  Grid g;
  g.add_file("f", 1000);
  // A client whose subject is not in the grid-mapfile.
  sec::CredentialWallet wallet;
  wallet.set_identity(g.ca().issue("/O=Grid/CN=intruder", 0, 1000 * ec::kHour));
  eg::GridFtpClient mallory(g.orb, *g.client_host,
                            std::make_shared<est::HostStorage>(),
                            std::move(wallet), g.registry());
  bool done = false;
  mallory.get({"pdsf.lbl.gov", "f"}, "f", fast_opts(), nullptr,
              [&](eg::TransferResult r) {
                done = true;
                ASSERT_FALSE(r.status.ok());
                EXPECT_EQ(r.status.error().code, ec::Errc::permission_denied);
              });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, ExpiredCredentialRejectedAtAuth) {
  Grid g;
  g.add_file("f", 1000);
  // A credential valid for one hour, presented two hours in.
  sec::CredentialWallet wallet;
  wallet.set_identity(g.ca().issue("/O=Grid/CN=esg-user", 0, ec::kHour));
  eg::GridFtpClient late(g.orb, *g.client_host,
                         std::make_shared<est::HostStorage>(),
                         std::move(wallet), g.registry());
  bool done = false;
  g.sim.schedule_at(2 * ec::kHour, [&] {
    late.get({"pdsf.lbl.gov", "f"}, "f", fast_opts(), nullptr,
             [&](eg::TransferResult r) {
               done = true;
               ASSERT_FALSE(r.status.ok());
               EXPECT_EQ(r.status.error().code, ec::Errc::auth_failed);
             });
  });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, DelegatedProxyAuthenticates) {
  Grid g;
  g.add_file("f", 1000);
  sec::CredentialWallet wallet;
  wallet.set_identity(g.ca().issue("/O=Grid/CN=esg-user", 0, 1000 * ec::kHour));
  wallet.push_proxy(0, 12 * ec::kHour);  // authenticate via the proxy chain
  eg::GridFtpClient proxied(g.orb, *g.client_host,
                            std::make_shared<est::HostStorage>(),
                            std::move(wallet), g.registry());
  auto opts = fast_opts();
  opts.delegate_proxy = true;  // costs one extra handshake round
  bool done = false;
  proxied.get({"pdsf.lbl.gov", "f"}, "f", opts, nullptr,
              [&](eg::TransferResult r) {
                done = true;
                EXPECT_TRUE(r.status.ok()) << r.status.error().to_string();
              });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, ProgressGrowsLocalFile) {
  Grid g;
  g.add_file("big", 50'000'000);
  ec::Bytes mid_size = -1;
  g.sim.schedule_at(3 * kSecond, [&] {
    mid_size = g.client->local_storage().size_of("big").value_or(-1);
  });
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "big"}, "big", fast_opts(), nullptr,
                [&](eg::TransferResult) { done = true; });
  g.sim.run();
  ASSERT_TRUE(done);
  // Mid-transfer the local file existed and was partially filled.
  EXPECT_GT(mid_size, 0);
  EXPECT_LT(mid_size, 50'000'000);
}

TEST(GridFtp, LandingFileRemovedMidTransferStillLands) {
  // The GET holds its landing file across the transfer; a removal under it
  // must not strand the handle.  Progress writes nothing while the file is
  // gone, and the content attach lands the whole file again.
  Grid g;
  g.add_file("big", 50'000'000);
  bool removed = false;
  g.sim.schedule_at(3 * kSecond, [&] {
    removed = g.client->local_storage().remove("big").ok();
  });
  eg::TransferResult result;
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "big"}, "big", fast_opts(), nullptr,
                [&](eg::TransferResult r) {
                  result = std::move(r);
                  done = true;
                });
  g.sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(removed);  // the removal really happened mid-transfer
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  EXPECT_TRUE(result.checksum_verified);
  auto& local = g.client->local_storage();
  EXPECT_EQ(local.size_of("big").value_or(-1), 50'000'000);
  EXPECT_EQ(local.used(), 50'000'000);
}

TEST(GridFtp, ParallelStreamsFasterOnLossyPath) {
  auto run = [](int parallelism) {
    Grid g(mbps(622), 20 * kMillisecond, 3e-4);
    g.add_file("f", 100'000'000);
    bool done = false;
    g.client->get({"pdsf.lbl.gov", "f"}, "f", fast_opts(parallelism), nullptr,
                  [&](eg::TransferResult r) {
                    ASSERT_TRUE(r.status.ok());
                    done = true;
                  });
    g.sim.run();
    EXPECT_TRUE(done);
    return ec::to_seconds(g.sim.now());
  };
  const double t1 = run(1);
  const double t8 = run(8);
  EXPECT_GT(t1, 4.0 * t8);  // 8 streams ≈ 8x on a loss-limited path
}

TEST(GridFtp, AutoNegotiatedBufferBeatsDefaultOnLongFatPath) {
  // 622 Mb/s at 80 ms RTT: the BDP is ~6 MB, far beyond a 64 KiB socket.
  auto run = [](ec::Bytes buffer) {
    Grid g(mbps(622), 40 * kMillisecond);
    g.add_file("f", 200'000'000);
    auto opts = fast_opts();
    opts.buffer_size = buffer;          // 0 = negotiate via SBUF
    opts.auto_buffer_target = mbps(600);
    bool done = false;
    g.client->get({"pdsf.lbl.gov", "f"}, "f", opts, nullptr,
                  [&](eg::TransferResult r) { done = r.status.ok(); });
    g.sim.run();
    EXPECT_TRUE(done);
    return ec::to_seconds(g.sim.now());
  };
  const double fixed_small = run(64 * ec::kKiB);
  const double negotiated = run(0);
  // 64 KiB / 80 ms is ~6.5 Mb/s; negotiation should be ~50x faster here.
  EXPECT_GT(fixed_small, 10.0 * negotiated);
}

// ---------- restart markers ----------

TEST(GridFtp, RestartOffsetTransfersRemainder) {
  Grid g;
  g.add_file("f", 40'000'000);
  auto opts = fast_opts();
  opts.restart_offset = 30'000'000;
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "f"}, "f", opts, nullptr,
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok());
                  EXPECT_EQ(r.bytes_transferred, 10'000'000);
                  EXPECT_EQ(r.file_size, 40'000'000);
                  done = true;
                });
  g.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(g.client->local_storage().size_of("f").value_or(0), 40'000'000);
}

TEST(GridFtp, FailedTransferReportsMarkerForRestart) {
  Grid g;
  g.add_file("f", 125'000'000);
  auto opts = fast_opts();
  opts.stall_timeout = 5 * kSecond;
  ec::Bytes marker = 0;
  bool failed = false;
  g.client->get({"pdsf.lbl.gov", "f"}, "f", opts, nullptr,
                [&](eg::TransferResult r) {
                  failed = !r.status.ok();
                  marker = r.bytes_transferred;
                });
  g.sim.schedule_at(3 * kSecond, [&] { g.net.set_link_down(*g.wan, true); });
  g.sim.run_until(40 * kSecond);
  ASSERT_TRUE(failed);
  // ~3 s at ~12.5 MB/s before the outage.
  EXPECT_GT(marker, 10'000'000);
  EXPECT_LT(marker, 50'000'000);
  EXPECT_EQ(g.client->local_storage().size_of("f").value_or(0), marker);
}

// ---------- channel caching ----------

TEST(GridFtp, ChannelCachingSkipsHandshakes) {
  Grid g;
  g.add_file("a", 10'000'000);
  g.add_file("b", 10'000'000);
  int completed = 0;
  auto opts = fast_opts();
  opts.use_channel_cache = true;
  g.client->get({"pdsf.lbl.gov", "a"}, "a", opts, nullptr,
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok());
                  ++completed;
                  g.client->get({"pdsf.lbl.gov", "b"}, "b", opts, nullptr,
                                [&](eg::TransferResult r2) {
                                  ASSERT_TRUE(r2.status.ok());
                                  ++completed;
                                });
                });
  g.sim.run();
  ASSERT_EQ(completed, 2);
  EXPECT_EQ(g.client->stats().auth_handshakes, 1u);
  EXPECT_EQ(g.client->stats().data_channel_setups, 1u);
  EXPECT_EQ(g.client->stats().channels_reused, 1u);
  EXPECT_EQ(g.server->sessions_established(), 1u);
}

TEST(GridFtp, NoCachingReAuthenticatesEveryTransfer) {
  Grid g;
  g.add_file("a", 10'000'000);
  g.add_file("b", 10'000'000);
  auto opts = fast_opts();
  opts.use_channel_cache = false;
  int completed = 0;
  g.client->get({"pdsf.lbl.gov", "a"}, "a", opts, nullptr,
                [&](eg::TransferResult) {
                  ++completed;
                  g.client->get({"pdsf.lbl.gov", "b"}, "b", opts, nullptr,
                                [&](eg::TransferResult) { ++completed; });
                });
  g.sim.run();
  ASSERT_EQ(completed, 2);
  EXPECT_EQ(g.client->stats().auth_handshakes, 2u);
  EXPECT_EQ(g.client->stats().data_channel_setups, 2u);
  EXPECT_EQ(g.client->stats().channels_reused, 0u);
}

TEST(GridFtp, CachedSecondTransferIsFaster) {
  // Back-to-back small transfers: the cached one skips connect, auth, and
  // slow start — the post-SC'2000 improvement.
  auto run = [](bool cache) {
    Grid g(mbps(622), 20 * kMillisecond);
    g.add_file("a", 4'000'000);
    g.add_file("b", 4'000'000);
    ec::SimTime first_done = 0, second_done = 0;
    auto opts = fast_opts();
    opts.use_channel_cache = cache;
    g.client->get({"pdsf.lbl.gov", "a"}, "a", opts, nullptr,
                  [&](eg::TransferResult) {
                    first_done = g.sim.now();
                    g.client->get({"pdsf.lbl.gov", "b"}, "b", opts, nullptr,
                                  [&](eg::TransferResult) {
                                    second_done = g.sim.now();
                                  });
                  });
    g.sim.run();
    return second_done - first_done;
  };
  const auto cached = run(true);
  const auto cold = run(false);
  EXPECT_LT(cached + 100 * kMillisecond, cold);
}

TEST(GridFtp, WarmChannelExpiresAfterIdleTimeout) {
  Grid g;
  g.add_file("a", 4'000'000);
  g.add_file("b", 4'000'000);
  g.client->set_channel_idle_timeout(10 * kSecond);
  auto opts = fast_opts();
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "a"}, "a", opts, nullptr,
                [&](eg::TransferResult) { done = true; });
  g.sim.run_while_pending([&] { return done; });
  // Wait past the idle window: the next transfer must rebuild the data
  // channel (though the control session persists).
  g.sim.run_until(g.sim.now() + 30 * kSecond);
  done = false;
  g.client->get({"pdsf.lbl.gov", "b"}, "b", opts, nullptr,
                [&](eg::TransferResult) { done = true; });
  g.sim.run_while_pending([&] { return done; });
  EXPECT_EQ(g.client->stats().data_channel_setups, 2u);
  EXPECT_EQ(g.client->stats().channels_reused, 0u);
  EXPECT_EQ(g.client->stats().auth_handshakes, 1u);  // session still warm
}

TEST(GridFtp, SizeQuery) {
  Grid g;
  g.add_file("f", 123'456'789);
  bool done = false;
  g.client->size_of({"pdsf.lbl.gov", "f"}, fast_opts(),
                    [&](ec::Result<ec::Bytes> r) {
                      done = true;
                      ASSERT_TRUE(r.ok()) << r.error().to_string();
                      EXPECT_EQ(*r, 123'456'789);
                    });
  g.sim.run();
  EXPECT_TRUE(done);

  done = false;
  g.client->size_of({"pdsf.lbl.gov", "ghost"}, fast_opts(),
                    [&](ec::Result<ec::Bytes> r) {
                      done = true;
                      EXPECT_FALSE(r.ok());
                    });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, ClientWithoutCredentialFailsCleanly) {
  Grid g;
  g.add_file("f", 1000);
  sec::CredentialWallet empty_wallet;
  eg::GridFtpClient anon(g.orb, *g.client_host,
                         std::make_shared<est::HostStorage>(),
                         std::move(empty_wallet), g.registry());
  bool done = false;
  anon.get({"pdsf.lbl.gov", "f"}, "f", fast_opts(), nullptr,
           [&](eg::TransferResult r) {
             done = true;
             ASSERT_FALSE(r.status.ok());
             EXPECT_EQ(r.status.error().code, ec::Errc::auth_failed);
           });
  g.sim.run();
  EXPECT_TRUE(done);
}

// ---------- ERET server-side processing ----------

TEST(GridFtp, PartialFileRetrievalDefaultModule) {
  Grid g;
  auto data = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>(1000, 7));
  ASSERT_TRUE(
      g.server->storage().put(est::FileObject::with_content("f", data)).ok());
  auto opts = fast_opts();
  opts.eret_module = eg::GridFtpServer::kPartialModule;
  opts.eret_params = "100:200";
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "f"}, "part", opts, nullptr,
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok());
                  EXPECT_EQ(r.file_size, 200);
                  done = true;
                });
  g.sim.run();
  ASSERT_TRUE(done);
  auto f = g.client->local_storage().get("part");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size, 200);
  ASSERT_TRUE(f->content);
  EXPECT_EQ(f->content->size(), 200u);
}

TEST(GridFtp, PartialRangeClampedAtEof) {
  Grid g;
  g.add_file("f", 500);
  auto opts = fast_opts();
  opts.eret_module = eg::GridFtpServer::kPartialModule;
  opts.eret_params = "400:1000";
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "f"}, "tail", opts, nullptr,
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok());
                  EXPECT_EQ(r.file_size, 100);
                  done = true;
                });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, CustomEretModule) {
  Grid g;
  g.add_file("f", 1'000'000);
  // A "subsample" module that sends 1/10 of the file.
  g.server->register_eret_module(
      "subsample",
      [](const est::FileObject& f, const std::string&)
          -> ec::Result<est::FileObject> {
        return est::FileObject::synthetic(f.name + "#sub", f.size / 10);
      });
  auto opts = fast_opts();
  opts.eret_module = "subsample";
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "f"}, "sub", opts, nullptr,
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok());
                  EXPECT_EQ(r.file_size, 100'000);
                  done = true;
                });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, UnknownEretModuleFails) {
  Grid g;
  g.add_file("f", 1000);
  auto opts = fast_opts();
  opts.eret_module = "no-such-module";
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "f"}, "x", opts, nullptr,
                [&](eg::TransferResult r) {
                  done = true;
                  EXPECT_FALSE(r.status.ok());
                });
  g.sim.run();
  EXPECT_TRUE(done);
}

// ---------- 64-bit sizes ----------

TEST(GridFtp, LargeFileRejectedWithout64BitSupport) {
  Grid g;
  g.add_file("huge", ec::Bytes{3} * ec::kGiB);
  auto opts = fast_opts();
  opts.large_file_support = false;  // the SC'2000-era limitation
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "huge"}, "huge", opts, nullptr,
                [&](eg::TransferResult r) {
                  done = true;
                  ASSERT_FALSE(r.status.ok());
                  EXPECT_EQ(r.status.error().code, ec::Errc::invalid_argument);
                });
  g.sim.run();
  EXPECT_TRUE(done);
}

TEST(GridFtp, LargeFileAcceptedWith64BitSupport) {
  Grid g(ec::gbps(2));
  g.add_file("huge", ec::Bytes{3} * ec::kGiB);
  bool done = false;
  g.client->get({"pdsf.lbl.gov", "huge"}, "huge", fast_opts(4), nullptr,
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok());
                  EXPECT_EQ(r.file_size, ec::Bytes{3} * ec::kGiB);
                  done = true;
                });
  g.sim.run();
  EXPECT_TRUE(done);
}

// ---------- PUT and third-party ----------

TEST(GridFtp, PutStoresAtServer) {
  Grid g;
  ASSERT_TRUE(g.client->local_storage()
                  .put(est::FileObject::synthetic("out.ncx", 20'000'000))
                  .ok());
  bool done = false;
  g.client->put("out.ncx", {"pdsf.lbl.gov", "incoming/out.ncx"}, fast_opts(),
                [&](eg::TransferResult r) {
                  ASSERT_TRUE(r.status.ok()) << r.status.error().to_string();
                  EXPECT_EQ(r.bytes_transferred, 20'000'000);
                  done = true;
                });
  g.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(g.server->storage().size_of("incoming/out.ncx").value_or(0),
            20'000'000);
}

TEST(GridFtp, ThirdPartyCopyBetweenServers) {
  Grid g;
  // Second server at a third site.
  g.net.add_site("isi");
  g.net.add_link({.name = "wan2", .site_a = "lbnl", .site_b = "isi",
                  .capacity = mbps(155), .latency = 8 * kMillisecond});
  auto& isi_server = g.add_server("jupiter.isi.edu", "isi");

  g.add_file("data/f.ncx", 30'000'000);
  bool done = false;
  g.client->third_party_copy(
      {"pdsf.lbl.gov", "data/f.ncx"}, {"jupiter.isi.edu", "mirror/f.ncx"},
      fast_opts(2), [&](eg::TransferResult r) {
        ASSERT_TRUE(r.status.ok()) << r.status.error().to_string();
        done = true;
      });
  g.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(isi_server.storage().size_of("mirror/f.ncx").value_or(0),
            30'000'000);
  // The original is untouched.
  EXPECT_EQ(g.server->storage().size_of("data/f.ncx").value_or(0), 30'000'000);
}

// ---------- striped transfer ----------

TEST(GridFtp, StripedTransferAggregatesStripes) {
  Grid g(ec::gbps(2.5));
  // Three extra source hosts at lbnl, three sinks at dcc.
  std::vector<eg::StripeEndpoint> stripes;
  for (int i = 0; i < 3; ++i) {
    const std::string n = std::to_string(i);
    auto& src_server = g.add_server("src" + n, "lbnl");
    g.add_server("dst" + n, "dcc");
    ASSERT_TRUE(src_server.storage()
                    .put(est::FileObject::synthetic("part" + n, 20'000'000))
                    .ok());
    stripes.push_back(eg::StripeEndpoint{{"src" + n, "part" + n},
                                         "dst" + n, "part" + n});
  }
  bool done = false;
  eg::StripedTransfer striped(*g.client, stripes, fast_opts(2),
                              [&](eg::StripedResult r) {
                                ASSERT_TRUE(r.status.ok())
                                    << r.status.error().to_string();
                                EXPECT_EQ(r.total_bytes, 60'000'000);
                                EXPECT_EQ(r.stripes.size(), 3u);
                                done = true;
                              });
  g.sim.run();
  EXPECT_TRUE(done);
}

// ---------- reliability plugin ----------

TEST(Reliability, RestartsAfterOutageAndCompletes) {
  Grid g;
  g.add_file("f", 125'000'000);
  auto opts = fast_opts();
  opts.stall_timeout = 5 * kSecond;
  eg::ReliabilityOptions rel;
  rel.retry_backoff = 2 * kSecond;
  bool done = false;
  eg::ReliableResult result;
  eg::ReliableGet::start(*g.client, {{"pdsf.lbl.gov", "f"}}, "f", opts, rel,
                         nullptr, [&](eg::ReliableResult r) {
                           done = true;
                           result = std::move(r);
                         });
  // Outage from 3 s to 20 s; transfer must resume and finish.
  g.sim.schedule_at(3 * kSecond, [&] { g.net.set_link_down(*g.wan, true); });
  g.sim.schedule_at(20 * kSecond, [&] { g.net.set_link_down(*g.wan, false); });
  g.sim.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  EXPECT_EQ(result.total_bytes, 125'000'000);
  EXPECT_GE(result.attempts, 2);
  EXPECT_EQ(g.client->local_storage().size_of("f").value_or(0), 125'000'000);
}

TEST(Reliability, SwitchesToAlternateReplicaWhenSlow) {
  // Two replicas: the first sits behind a congested link, the second is
  // clean.  The rate monitor must abandon the slow replica.
  esg::scenario::Grid g;
  g.net.add_site("client-site");
  g.net.add_site("slow-site");
  g.net.add_site("fast-site");
  auto* slow_link =
      g.net.add_link({.name = "slow", .site_a = "client-site",
                      .site_b = "slow-site", .capacity = mbps(100),
                      .latency = 10 * kMillisecond});
  g.net.add_link({.name = "fast", .site_a = "client-site",
                  .site_b = "fast-site", .capacity = mbps(100),
                  .latency = 10 * kMillisecond});
  auto& client = g.add_client("client", "client-site");
  for (const std::string name : {"slow-server", "fast-server"}) {
    ASSERT_TRUE(g.add_server(name, name.substr(0, 4) + "-site")
                    .storage()
                    .put(est::FileObject::synthetic("f", 60'000'000))
                    .ok());
  }
  // Congest the slow link to a trickle (data flows server -> client, which
  // traverses the link's backward direction as configured above).
  g.net.fluid().set_background(slow_link->backward(), mbps(99.5));

  auto opts = fast_opts();
  eg::ReliabilityOptions rel;
  rel.min_rate = mbps(10);       // demand at least 10 Mb/s
  rel.eval_window = 5 * kSecond;
  rel.retry_backoff = kSecond;
  bool done = false;
  eg::ReliableResult result;
  eg::ReliableGet::start(client,
                         {{"slow-server", "f"}, {"fast-server", "f"}}, "f",
                         opts, rel, nullptr, [&](eg::ReliableResult r) {
                           done = true;
                           result = std::move(r);
                         });
  g.sim.run_until(120 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  EXPECT_GE(result.replica_switches, 1);
  EXPECT_EQ(client.local_storage().size_of("f").value_or(0), 60'000'000);
}

TEST(Reliability, GivesUpAfterMaxAttempts) {
  Grid g;
  g.add_file("f", 125'000'000);
  g.net.set_link_down(*g.wan, true);
  auto opts = fast_opts();
  opts.stall_timeout = 2 * kSecond;
  eg::ReliabilityOptions rel;
  rel.max_attempts = 3;
  rel.retry_backoff = kSecond;
  bool done = false;
  eg::ReliableGet::start(*g.client, {{"pdsf.lbl.gov", "f"}}, "f", opts, rel,
                         nullptr, [&](eg::ReliableResult r) {
                           done = true;
                           EXPECT_FALSE(r.status.ok());
                           EXPECT_EQ(r.attempts, 3);
                         });
  g.sim.run_until(200 * kSecond);
  EXPECT_TRUE(done);
}
