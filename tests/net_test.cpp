// Tests for the fluid-flow network, topology/routing, the TCP model, and
// background traffic.  Includes the max-min fairness property tests that
// pin down the allocator's correctness on randomized topologies.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "net/background.hpp"
#include "net/fluid.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace en = esg::net;
namespace es = esg::sim;
namespace ec = esg::common;

using ec::kMillisecond;
using ec::kSecond;
using ec::mbps;

namespace {

// Bottleneck fixture: two hosts joined by one WAN link.
struct TwoSite {
  es::Simulation sim;
  en::Network net{sim};
  en::Host* src = nullptr;
  en::Host* dst = nullptr;
  en::Link* link = nullptr;

  explicit TwoSite(ec::Rate link_rate = mbps(100),
                   ec::SimDuration latency = 10 * kMillisecond,
                   double loss = 0.0) {
    net.add_site("dallas");
    net.add_site("berkeley");
    link = net.add_link({.name = "wan",
                         .site_a = "dallas",
                         .site_b = "berkeley",
                         .capacity = link_rate,
                         .latency = latency,
                         .loss = loss});
    src = net.add_host({.name = "src",
                        .site = "dallas",
                        .nic_rate = ec::gbps(1),
                        .cpu_rate = ec::gbps(1),
                        .disk_rate = ec::gbps(1)});
    dst = net.add_host({.name = "dst",
                        .site = "berkeley",
                        .nic_rate = ec::gbps(1),
                        .cpu_rate = ec::gbps(1),
                        .disk_rate = ec::gbps(1)});
  }
};

}  // namespace

// ---------- fluid network ----------

TEST(Fluid, SingleFlowBottleneckCompletionTime) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);  // 1 MB/s
  bool done = false;
  fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}}, 10'000'000,
                       {.on_progress = nullptr, .on_complete = [&] { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(ec::to_seconds(sim.now()), 10.0, 0.01);
}

TEST(Fluid, FlowCapLimitsBelowResource) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  bool done = false;
  fluid.start_transfer({en::FlowSpec{{r}, 250'000}}, 1'000'000,
                       {nullptr, [&] { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(ec::to_seconds(sim.now()), 4.0, 0.01);
}

TEST(Fluid, TwoFlowsShareFairly) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  auto t1 = fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}},
                                 en::kUnboundedBytes, {});
  auto t2 = fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}},
                                 en::kUnboundedBytes, {});
  fluid.update();
  EXPECT_NEAR(fluid.current_rate(t1), 500'000, 1.0);
  EXPECT_NEAR(fluid.current_rate(t2), 500'000, 1.0);
}

TEST(Fluid, CappedFlowLeavesCapacityToOthers) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  auto t1 = fluid.start_transfer({en::FlowSpec{{r}, 100'000}},
                                 en::kUnboundedBytes, {});
  auto t2 = fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}},
                                 en::kUnboundedBytes, {});
  fluid.update();
  EXPECT_NEAR(fluid.current_rate(t1), 100'000, 1.0);
  EXPECT_NEAR(fluid.current_rate(t2), 900'000, 1.0);
}

TEST(Fluid, SharedPoolMultiStreamCompletion) {
  // A transfer with 4 member flows over a shared 1 MB/s resource drains its
  // pool at the aggregate rate.
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  bool done = false;
  std::vector<en::FlowSpec> flows(4, en::FlowSpec{{r}, en::kUnlimitedRate});
  fluid.start_transfer(std::move(flows), 5'000'000,
                       {nullptr, [&] { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(ec::to_seconds(sim.now()), 5.0, 0.01);
}

TEST(Fluid, ProgressCallbackConservesBytes) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  ec::Bytes seen = 0;
  bool done = false;
  fluid.start_transfer(
      {en::FlowSpec{{r}, en::kUnlimitedRate}}, 3'333'333,
      {[&](ec::Bytes delta, ec::SimTime) { seen += delta; },
       [&] { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(static_cast<double>(seen), 3'333'333.0, 2.0);
}

TEST(Fluid, CancelReturnsBytesDelivered) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  auto id = fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}},
                                 en::kUnboundedBytes, {});
  ec::Bytes got = 0;
  sim.schedule_at(2 * kSecond, [&] { got = fluid.cancel_transfer(id); });
  sim.run_until(3 * kSecond);
  EXPECT_NEAR(static_cast<double>(got), 2'000'000.0, 2.0);
  EXPECT_FALSE(fluid.transfer_active(id));
}

TEST(Fluid, DownResourceStallsThenResumes) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  bool done = false;
  ec::SimTime done_at = 0;
  fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}}, 4'000'000,
                       {nullptr, [&] {
                          done = true;
                          done_at = sim.now();
                        }});
  // Outage covering [1s, 3s): 4 s of work becomes 6 s wall.
  sim.schedule_at(1 * kSecond, [&] { fluid.set_down(r, true); });
  sim.schedule_at(3 * kSecond, [&] { fluid.set_down(r, false); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(ec::to_seconds(done_at), 6.0, 0.01);
}

TEST(Fluid, BackgroundLoadReducesForegroundRate) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  auto id = fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}},
                                 en::kUnboundedBytes, {});
  fluid.set_background(r, 600'000);
  fluid.update();
  EXPECT_NEAR(fluid.current_rate(id), 400'000, 1.0);
  fluid.set_background(r, 0);
  fluid.update();
  EXPECT_NEAR(fluid.current_rate(id), 1'000'000, 1.0);
}

TEST(Fluid, SetFlowCapMidTransfer) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  bool done = false;
  auto id = fluid.start_transfer({en::FlowSpec{{r}, 100'000}}, 1'000'000,
                                 {nullptr, [&] { done = true; }});
  // After 2 s (200 KB done), raise the cap to the full megabyte/s:
  // remaining 800 KB takes 0.8 s -> total 2.8 s.
  sim.schedule_at(2 * kSecond,
                  [&] { fluid.set_flow_cap(id, 0, en::kUnlimitedRate); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(ec::to_seconds(sim.now()), 2.8, 0.01);
}

TEST(Fluid, MultiResourcePathUsesTightest) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* wide = fluid.add_resource("wide", 10'000'000);
  auto* narrow = fluid.add_resource("narrow", 2'000'000);
  auto id = fluid.start_transfer({en::FlowSpec{{wide, narrow}, en::kUnlimitedRate}},
                                 en::kUnboundedBytes, {});
  fluid.update();
  EXPECT_NEAR(fluid.current_rate(id), 2'000'000, 1.0);
}

TEST(Fluid, CancelFromCallbackStopsQueuedProgress) {
  // Three watched transfers progress on the same poll tick, so their
  // notices queue together in id order.  The first one's callback cancels
  // the second, which must then see no further callback; the third cancels
  // itself from inside its own callback, and that call must finish intact.
  es::Simulation sim;
  en::FluidNetwork fluid(sim, 100 * kMillisecond);
  auto* r = fluid.add_resource("pipe", 3'000'000);
  en::TransferId victim = 0;
  en::TransferId self = 0;
  int first_calls = 0;
  int victim_calls_after_cancel = 0;
  bool victim_cancelled = false;
  std::vector<int> self_calls;
  fluid.start_transfer(
      {en::FlowSpec{{r}, en::kUnlimitedRate}}, en::kUnboundedBytes,
      {[&](ec::Bytes, ec::SimTime) {
         ++first_calls;
         if (!victim_cancelled) {
           victim_cancelled = true;
           fluid.cancel_transfer(victim);
         }
       },
       nullptr});
  victim = fluid.start_transfer(
      {en::FlowSpec{{r}, en::kUnlimitedRate}}, en::kUnboundedBytes,
      {[&](ec::Bytes, ec::SimTime) {
         if (victim_cancelled) ++victim_calls_after_cancel;
       },
       [&] { ++victim_calls_after_cancel; }});
  self = fluid.start_transfer(
      {en::FlowSpec{{r}, en::kUnlimitedRate}}, en::kUnboundedBytes,
      {[&, tag = 7](ec::Bytes, ec::SimTime) {
         fluid.cancel_transfer(self);
         // Starting a transfer may move the transfer pool; the running
         // callback must not live there.
         for (int i = 0; i < 64; ++i) {
           fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}},
                                1'000, {});
         }
         self_calls.push_back(tag);
       },
       nullptr});

  sim.run_until(1 * kSecond);
  EXPECT_TRUE(victim_cancelled);
  EXPECT_GT(first_calls, 1);
  EXPECT_EQ(victim_calls_after_cancel, 0)
      << "a cancelled transfer must not receive its queued progress notice";
  EXPECT_FALSE(fluid.transfer_active(victim));
  EXPECT_EQ(self_calls, std::vector<int>{7});
  EXPECT_FALSE(fluid.transfer_active(self));
}

TEST(Fluid, NoticesStayInIdOrderAfterMidListCancelAndCallbackStart) {
  // Four watched transfers share a poll tick.  On the first tick, the first
  // one's callback cancels the second (mid-list) and starts a fifth, so the
  // live list loses a middle entry and gains a tail one inside a touch.
  // Every later tick must notify the survivors, then the newcomer, in id
  // order, and every id must still resolve.
  es::Simulation sim;
  en::FluidNetwork fluid(sim, 100 * kMillisecond);
  auto* r = fluid.add_resource("pipe", 4'000'000);
  std::vector<ec::SimTime> tick_times;
  std::vector<std::vector<en::TransferId>> ticks;  // notified ids, per tick
  auto note = [&](en::TransferId id, ec::SimTime now) {
    if (tick_times.empty() || tick_times.back() != now) {
      tick_times.push_back(now);
      ticks.emplace_back();
    }
    ticks.back().push_back(id);
  };
  std::vector<en::TransferId> ids(4, 0);
  en::TransferId late = 0;
  auto watched = [&](std::size_t k) {
    return en::TransferCallbacks{
        [&, k](ec::Bytes, ec::SimTime now) {
          note(ids[k], now);
          if (k != 0 || late != 0) return;
          fluid.cancel_transfer(ids[1]);
          late = fluid.start_transfer(
              {en::FlowSpec{{r}, en::kUnlimitedRate}}, en::kUnboundedBytes,
              {[&](ec::Bytes, ec::SimTime at) { note(late, at); }, nullptr});
        },
        nullptr};
  };
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ids[k] = fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}},
                                  en::kUnboundedBytes, watched(k));
  }
  sim.run_until(1 * kSecond);

  ASSERT_NE(late, 0u);
  ASSERT_GE(ticks.size(), 5u);
  // The first tick: the second transfer's queued notice is dropped.
  EXPECT_EQ(ticks[0], (std::vector<en::TransferId>{ids[0], ids[2], ids[3]}));
  const std::vector<en::TransferId> after{ids[0], ids[2], ids[3], late};
  for (std::size_t t = 1; t < ticks.size(); ++t) {
    EXPECT_EQ(ticks[t], after) << "tick " << t;
  }
  EXPECT_FALSE(fluid.transfer_active(ids[1]));
  EXPECT_EQ(fluid.active_transfers(), 4u);
  for (const en::TransferId id : after) {
    EXPECT_TRUE(fluid.transfer_active(id));
    EXPECT_DOUBLE_EQ(fluid.current_rate(id), 1'000'000.0);
  }
}

TEST(Fluid, ZeroByteTransferCompletesImmediately) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  bool done = false;
  fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}}, 0,
                       {nullptr, [&] { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0);
}

// Max-min property: on randomized topologies every flow is either frozen at
// its cap or crosses at least one saturated resource, and no resource is
// oversubscribed.
class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, AllocationIsMaxMinFair) {
  ec::Rng rng(static_cast<std::uint64_t>(GetParam()));
  es::Simulation sim;
  en::FluidNetwork fluid(sim);

  const int n_resources = 2 + static_cast<int>(rng.uniform_int(6));
  std::vector<en::Resource*> resources;
  for (int i = 0; i < n_resources; ++i) {
    resources.push_back(fluid.add_resource(
        "r" + std::to_string(i), 100'000.0 + rng.uniform(0.0, 5'000'000.0)));
  }

  const int n_flows = 1 + static_cast<int>(rng.uniform_int(12));
  std::vector<en::TransferId> ids;
  for (int i = 0; i < n_flows; ++i) {
    std::vector<const en::Resource*> path;
    for (auto* r : resources) {
      if (rng.uniform() < 0.5) path.push_back(r);
    }
    if (path.empty()) path.push_back(resources[0]);
    const ec::Rate cap = rng.uniform() < 0.3
                             ? rng.uniform(50'000.0, 2'000'000.0)
                             : en::kUnlimitedRate;
    ids.push_back(fluid.start_transfer({en::FlowSpec{path, cap}},
                                       en::kUnboundedBytes, {}));
  }
  fluid.update();

  // Recompute usage per resource from reported rates.
  // (Each transfer has one flow, so transfer rate == flow rate.)
  std::map<const en::Resource*, double> usage;
  struct FlowView {
    std::vector<const en::Resource*> path;
    double cap;
    double rate;
  };
  // Rebuild views by replaying the same RNG stream.
  ec::Rng replay(static_cast<std::uint64_t>(GetParam()));
  const int nr = 2 + static_cast<int>(replay.uniform_int(6));
  std::vector<double> caps_unused;
  for (int i = 0; i < nr; ++i) replay.uniform(0.0, 5'000'000.0);
  const int nf = 1 + static_cast<int>(replay.uniform_int(12));
  std::vector<FlowView> views;
  for (int i = 0; i < nf; ++i) {
    FlowView v;
    for (auto* r : resources) {
      if (replay.uniform() < 0.5) v.path.push_back(r);
    }
    if (v.path.empty()) v.path.push_back(resources[0]);
    v.cap = replay.uniform() < 0.3 ? replay.uniform(50'000.0, 2'000'000.0)
                                   : std::numeric_limits<double>::infinity();
    v.rate = fluid.current_rate(ids[static_cast<std::size_t>(i)]);
    views.push_back(std::move(v));
    for (const auto* r : views.back().path) usage[r] += views.back().rate;
  }

  constexpr double eps = 1.0;  // 1 byte/s slack
  for (auto* r : resources) {
    EXPECT_LE(usage[r], r->effective_capacity() + eps) << r->name();
  }
  for (const auto& v : views) {
    const bool cap_limited = v.rate >= v.cap - eps;
    bool bottlenecked = false;
    for (const auto* r : v.path) {
      if (usage[r] >= r->effective_capacity() - eps) bottlenecked = true;
    }
    EXPECT_TRUE(cap_limited || bottlenecked)
        << "flow at rate " << v.rate << " neither cap- nor bottleneck-limited";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinProperty,
                         ::testing::Range(1, 21));

// ---------- topology ----------

TEST(Topology, PathIncludesEndpointsAndLink) {
  TwoSite w;
  const auto info = w.net.path(*w.src, *w.dst);
  // src disk, cpu, nic; link fwd; dst nic, cpu, disk.
  ASSERT_EQ(info.resources.size(), 7u);
  EXPECT_EQ(info.resources[0], w.src->disk());
  EXPECT_EQ(info.resources[3], w.link->forward());
  EXPECT_EQ(info.resources[6], w.dst->disk());
  EXPECT_TRUE(info.up);
}

TEST(Topology, ReversePathUsesBackwardDirection) {
  TwoSite w;
  const auto info = w.net.path(*w.dst, *w.src);
  EXPECT_EQ(info.resources[3], w.link->backward());
}

TEST(Topology, RttIsTwicePathLatency) {
  TwoSite w;
  EXPECT_GE(w.net.rtt(*w.src, *w.dst), 20 * kMillisecond);
  EXPECT_LT(w.net.rtt(*w.src, *w.dst), 21 * kMillisecond);

  // Every kind of host pair: same host, same site, across a link, and
  // unreachable.
  es::Simulation sim;
  en::Network net(sim);
  for (const char* s : {"a", "b", "c"}) net.add_site(s);
  net.add_link({.name = "ab", .site_a = "a", .site_b = "b",
                .latency = 7 * kMillisecond});
  const std::vector<en::Host*> hosts{
      net.add_host({.name = "a1", .site = "a"}),
      net.add_host({.name = "a2", .site = "a"}),
      net.add_host({.name = "b1", .site = "b"}),
      net.add_host({.name = "c1", .site = "c"})};
  for (const en::Host* x : hosts) {
    for (const en::Host* y : hosts) {
      EXPECT_EQ(net.rtt(*x, *y), 2 * net.path(*x, *y, false).latency)
          << x->name() << " -> " << y->name();
    }
  }
}

TEST(Topology, MultiHopRoutePrefersLowLatency) {
  es::Simulation sim;
  en::Network net(sim);
  for (const char* s : {"a", "b", "c"}) net.add_site(s);
  net.add_link({.name = "slow-direct", .site_a = "a", .site_b = "c",
                .capacity = mbps(100), .latency = 50 * kMillisecond});
  net.add_link({.name = "ab", .site_a = "a", .site_b = "b",
                .capacity = mbps(100), .latency = 10 * kMillisecond});
  net.add_link({.name = "bc", .site_a = "b", .site_b = "c",
                .capacity = mbps(100), .latency = 10 * kMillisecond});
  auto* ha = net.add_host({.name = "ha", .site = "a"});
  auto* hc = net.add_host({.name = "hc", .site = "c"});
  const auto info = net.path(*ha, *hc);
  // Route goes a-b-c (20 ms) not the 50 ms direct link: 2 link resources.
  int links = 0;
  for (const auto* r : info.resources) {
    if (r->name().rfind("link:", 0) == 0) ++links;
  }
  EXPECT_EQ(links, 2);
}

TEST(Topology, UnreachableSiteGivesDownPath) {
  es::Simulation sim;
  en::Network net(sim);
  net.add_site("x");
  net.add_site("y");  // no link between them
  auto* hx = net.add_host({.name = "hx", .site = "x"});
  auto* hy = net.add_host({.name = "hy", .site = "y"});
  EXPECT_FALSE(net.path(*hx, *hy).up);
}

TEST(Topology, RoutesFollowSitesAndLinksAddedLater) {
  es::Simulation sim;
  en::Network net(sim);
  net.add_site("a");
  net.add_site("b");
  net.add_link({.name = "ab", .site_a = "a", .site_b = "b",
                .latency = 10 * kMillisecond});
  auto* ha = net.add_host({.name = "ha", .site = "a"});
  auto* hb = net.add_host({.name = "hb", .site = "b"});
  EXPECT_TRUE(net.path(*ha, *hb).up);
  // A third site re-lays the route cache; the cached a -> b route survives
  // as a fresh computation, and c is unreachable until it is linked.
  net.add_site("c");
  auto* hc = net.add_host({.name = "hc", .site = "c"});
  EXPECT_EQ(net.rtt(*ha, *hb), 2 * net.path(*ha, *hb).latency);
  EXPECT_FALSE(net.path(*ha, *hc).up);
  net.add_link({.name = "bc", .site_a = "b", .site_b = "c",
                .latency = 10 * kMillisecond});
  const auto info = net.path(*ha, *hc);
  EXPECT_TRUE(info.up);
  // Disk, CPU and NIC at each end, and the two links.
  EXPECT_EQ(info.resources.size(), 8u);
  EXPECT_EQ(net.path(*hc, *ha).resources[3], net.find_link("bc")->backward());
}

TEST(Topology, SameHostPathIsLocal) {
  TwoSite w;
  const auto info = w.net.path(*w.src, *w.src);
  EXPECT_TRUE(info.up);
  EXPECT_LT(info.latency, kMillisecond);
}

TEST(Topology, LossAccumulatesAcrossLinks) {
  es::Simulation sim;
  en::Network net(sim);
  for (const char* s : {"a", "b", "c"}) net.add_site(s);
  net.add_link({.name = "ab", .site_a = "a", .site_b = "b",
                .capacity = mbps(100), .latency = kMillisecond, .loss = 0.01});
  net.add_link({.name = "bc", .site_a = "b", .site_b = "c",
                .capacity = mbps(100), .latency = kMillisecond, .loss = 0.02});
  auto* ha = net.add_host({.name = "ha", .site = "a"});
  auto* hc = net.add_host({.name = "hc", .site = "c"});
  EXPECT_NEAR(net.path(*ha, *hc).loss, 1.0 - 0.99 * 0.98, 1e-12);
}

TEST(Topology, HostDownMakesPathDown) {
  TwoSite w;
  w.net.set_host_down(*w.src, true);
  EXPECT_FALSE(w.net.path(*w.src, *w.dst).up);
  w.net.set_host_down(*w.src, false);
  EXPECT_TRUE(w.net.path(*w.src, *w.dst).up);
}

TEST(Topology, ApplyOutageByLinkName) {
  TwoSite w;
  w.net.apply_outage("wan", true);
  EXPECT_FALSE(w.net.path(*w.src, *w.dst).up);
  w.net.apply_outage("wan", false);
  EXPECT_TRUE(w.net.path(*w.src, *w.dst).up);
}

TEST(Topology, MessageDeliveredAfterLatency) {
  TwoSite w;
  bool ok = false;
  ec::SimTime at = 0;
  w.net.send_message(*w.src, *w.dst, 100, [&](bool delivered) {
    ok = delivered;
    at = w.sim.now();
  });
  w.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(at, 10 * kMillisecond);
  EXPECT_LT(at, 12 * kMillisecond);
}

TEST(Topology, MessageLostWhenPathDown) {
  TwoSite w;
  w.net.set_link_down(*w.link, true);
  bool delivered = true;
  w.net.send_message(*w.src, *w.dst, 100, [&](bool d) { delivered = d; });
  w.sim.run();
  EXPECT_FALSE(delivered);
}

// ---------- tcp model ----------

TEST(Tcp, CapFormulas) {
  // 1 MB buffer at 20 ms RTT -> 50 MB/s window cap.
  EXPECT_NEAR(en::TcpTransfer::window_cap(1'000'000, 20 * kMillisecond),
              50'000'000, 1.0);
  // Mathis: 1460 B MSS, 20 ms RTT, p = 1e-4 -> about 8.9 MB/s.
  const double m = en::TcpTransfer::mathis_cap(1460, 20 * kMillisecond, 1e-4);
  EXPECT_NEAR(m, 1460.0 / 0.02 * std::sqrt(1.5 / 1e-4), 1.0);
  EXPECT_TRUE(std::isinf(en::TcpTransfer::mathis_cap(1460, 20 * kMillisecond, 0.0)));
}

TEST(Tcp, CleanPathReachesLinkRate) {
  TwoSite w(mbps(100));
  bool done = false;
  en::TcpOptions opts;
  opts.buffer_size = 4 * ec::kMiB;  // window ample for 100 Mb/s @ 20 ms
  en::TcpTransfer t(w.net, *w.src, *w.dst, 125'000'000, opts,
                    {nullptr, [&](ec::Status s) { done = s.ok(); }});
  w.sim.run();
  EXPECT_TRUE(done);
  // 125 MB at 12.5 MB/s is 10 s; slow start adds a little.
  EXPECT_GT(ec::to_seconds(w.sim.now()), 10.0);
  EXPECT_LT(ec::to_seconds(w.sim.now()), 11.5);
}

TEST(Tcp, SmallBufferLimitsThroughput) {
  TwoSite w(mbps(1000), 20 * kMillisecond);
  bool done = false;
  en::TcpOptions opts;
  opts.buffer_size = 64 * ec::kKiB;  // 64 KiB / 40 ms RTT ~ 1.6 MB/s
  opts.slow_start = false;
  en::TcpTransfer t(w.net, *w.src, *w.dst, 16'000'000, opts,
                    {nullptr, [&](ec::Status s) { done = s.ok(); }});
  w.sim.run();
  EXPECT_TRUE(done);
  const double expect_s = 16'000'000 / (64.0 * 1024 / 0.04);
  EXPECT_NEAR(ec::to_seconds(w.sim.now()), expect_s, 0.5);
}

TEST(Tcp, ParallelStreamsBeatLossLimit) {
  // On a lossy path a single stream is Mathis-limited; four streams carry
  // roughly four times the bandwidth (still below the link rate).
  const double loss = 3e-4;
  ec::Bytes single_bytes = 0, quad_bytes = 0;
  {
    TwoSite w(mbps(622), 20 * kMillisecond, loss);
    en::TcpOptions opts;
    opts.buffer_size = 4 * ec::kMiB;
    opts.slow_start = false;
    en::TcpTransfer t(w.net, *w.src, *w.dst, en::kUnboundedBytes, opts, {});
    w.sim.run_until(10 * kSecond);
    single_bytes = t.delivered();
  }
  {
    TwoSite w(mbps(622), 20 * kMillisecond, loss);
    en::TcpOptions opts;
    opts.buffer_size = 4 * ec::kMiB;
    opts.slow_start = false;
    opts.streams = 4;
    en::TcpTransfer t(w.net, *w.src, *w.dst, en::kUnboundedBytes, opts, {});
    w.sim.run_until(10 * kSecond);
    quad_bytes = t.delivered();
  }
  EXPECT_GT(quad_bytes, 3.5 * static_cast<double>(single_bytes));
  EXPECT_LT(quad_bytes, 4.5 * static_cast<double>(single_bytes));
}

TEST(Tcp, SlowStartDelaysSmallTransfers) {
  ec::SimTime cold = 0, warm = 0;
  for (bool slow_start : {true, false}) {
    TwoSite w(mbps(622), 20 * kMillisecond);
    en::TcpOptions opts;
    opts.buffer_size = 4 * ec::kMiB;
    opts.slow_start = slow_start;
    bool done = false;
    en::TcpTransfer t(w.net, *w.src, *w.dst, 8'000'000, opts,
                      {nullptr, [&](ec::Status) { done = true; }});
    w.sim.run();
    EXPECT_TRUE(done);
    (slow_start ? cold : warm) = w.sim.now();
  }
  EXPECT_GT(cold, warm + 2 * (2 * 10 * kMillisecond));  // several RTTs slower
}

TEST(Tcp, WatchdogFailsStalledTransfer) {
  TwoSite w(mbps(100));
  en::TcpOptions opts;
  opts.dead_interval = 5 * kSecond;
  ec::Status result = ec::ok_status();
  bool completed = false;
  ec::SimTime failed_at = 0;
  en::TcpTransfer t(w.net, *w.src, *w.dst, 125'000'000, opts,
                    {nullptr, [&](ec::Status s) {
                       completed = true;
                       failed_at = w.sim.now();
                       result = std::move(s);
                     }});
  w.sim.schedule_at(2 * kSecond, [&] { w.net.set_link_down(*w.link, true); });
  w.sim.run_until(60 * kSecond);
  ASSERT_TRUE(completed);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ec::Errc::timed_out);
  // Failed within a couple of dead intervals of the outage.
  EXPECT_LT(failed_at, 20 * kSecond);
}

TEST(Tcp, ConnectIntoOutageIsUnavailable) {
  TwoSite w;
  w.net.set_link_down(*w.link, true);
  ec::Status result = ec::ok_status();
  en::TcpOptions opts;
  opts.dead_interval = 3 * kSecond;
  en::TcpTransfer t(w.net, *w.src, *w.dst, 1000, opts,
                    {nullptr, [&](ec::Status s) { result = std::move(s); }});
  w.sim.run_until(10 * kSecond);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ec::Errc::unavailable);
}

TEST(Tcp, CancelStopsDelivery) {
  TwoSite w(mbps(100));
  en::TcpOptions opts;
  opts.slow_start = false;
  opts.buffer_size = 4 * ec::kMiB;
  auto t = std::make_unique<en::TcpTransfer>(w.net, *w.src, *w.dst,
                                             en::kUnboundedBytes, opts,
                                             en::TcpCallbacks{});
  ec::Bytes got = 0;
  w.sim.schedule_at(4 * kSecond, [&] { got = t->cancel(); });
  w.sim.run_until(8 * kSecond);
  // ~12.5 MB/s for 4 s.
  EXPECT_NEAR(static_cast<double>(got), 50e6, 2e6);
  EXPECT_FALSE(t->active());
}

TEST(Tcp, ProgressCallbackStreamsBytes) {
  TwoSite w(mbps(100));
  ec::Bytes streamed = 0;
  bool done = false;
  en::TcpOptions opts;
  opts.buffer_size = 4 * ec::kMiB;
  en::TcpTransfer t(w.net, *w.src, *w.dst, 10'000'000, opts,
                    {[&](ec::Bytes d, ec::SimTime) { streamed += d; },
                     [&](ec::Status) { done = true; }});
  w.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(static_cast<double>(streamed), 1e7, 2.0);
}

TEST(Topology, MessageSerializationScalesWithSize) {
  TwoSite w;
  ec::SimTime small_at = 0, big_at = 0;
  w.net.send_message(*w.src, *w.dst, 100, [&](bool) { small_at = w.sim.now(); });
  w.sim.run();
  TwoSite w2;
  // 10 MB at the 100 Mb/s control rate adds ~0.8 s of serialization.
  w2.net.send_message(*w2.src, *w2.dst, 10'000'000,
                      [&](bool) { big_at = w2.sim.now(); });
  w2.sim.run();
  EXPECT_GT(big_at, small_at + 500 * kMillisecond);
}

TEST(Tcp, StreamCapReflectsTightestLimit) {
  // Buffer-limited case.
  TwoSite buf_limited(mbps(1000), 20 * kMillisecond);
  en::TcpOptions small_buf;
  small_buf.buffer_size = 128 * ec::kKiB;
  en::TcpTransfer t1(buf_limited.net, *buf_limited.src, *buf_limited.dst,
                     1000, small_buf, {});
  EXPECT_NEAR(t1.stream_cap(),
              en::TcpTransfer::window_cap(128 * ec::kKiB, t1.round_trip()),
              1.0);
  // Loss-limited case.
  TwoSite lossy(mbps(1000), 20 * kMillisecond, 1e-3);
  en::TcpOptions big_buf;
  big_buf.buffer_size = 16 * ec::kMiB;
  en::TcpTransfer t2(lossy.net, *lossy.src, *lossy.dst, 1000, big_buf, {});
  EXPECT_NEAR(t2.stream_cap(),
              en::TcpTransfer::mathis_cap(1460, t2.round_trip(),
                                          t2.path_loss()),
              1.0);
}

TEST(Tcp, ProbePathSkipsDisks) {
  // A slow disk must not limit an include_disks=false transfer.
  es::Simulation sim;
  en::Network net(sim);
  net.add_site("a");
  net.add_site("b");
  net.add_link({.name = "l", .site_a = "a", .site_b = "b",
                .capacity = mbps(100), .latency = kMillisecond});
  auto* src = net.add_host({.name = "s", .site = "a",
                            .nic_rate = ec::gbps(1), .cpu_rate = ec::gbps(1),
                            .disk_rate = mbps(1)});  // crippled disk
  auto* dst = net.add_host({.name = "d", .site = "b",
                            .nic_rate = ec::gbps(1), .cpu_rate = ec::gbps(1),
                            .disk_rate = mbps(1)});
  en::TcpOptions opts;
  opts.include_disks = false;
  opts.buffer_size = 4 * ec::kMiB;
  bool done = false;
  en::TcpTransfer t(net, *src, *dst, 12'500'000, opts,
                    {nullptr, [&](ec::Status s) { done = s.ok(); }});
  sim.run();
  EXPECT_TRUE(done);
  // 12.5 MB at 12.5 MB/s link rate: ~1 s, not the ~100 s the disk would take.
  EXPECT_LT(ec::to_seconds(sim.now()), 3.0);
}

// ---------- background traffic ----------

TEST(Background, LoadStaysNonNegativeAndVaries) {
  TwoSite w;
  en::BackgroundConfig cfg;
  cfg.mean = mbps(40);
  cfg.amplitude = mbps(20);
  cfg.period = 60 * kSecond;
  cfg.update_interval = kSecond;
  en::BackgroundTraffic bg(w.net, w.link->forward(), cfg);
  double lo = 1e18, hi = -1;
  for (int i = 0; i < 120; ++i) {
    w.sim.run_until((i + 1) * kSecond);
    const double load = w.link->forward()->background_load();
    lo = std::min(lo, load);
    hi = std::max(hi, load);
    EXPECT_GE(load, 0.0);
  }
  EXPECT_GT(hi - lo, mbps(10));  // the sinusoid actually moves
}

TEST(Background, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    TwoSite w;
    en::BackgroundConfig cfg;
    cfg.mean = mbps(40);
    cfg.amplitude = mbps(20);
    cfg.seed = seed;
    cfg.update_interval = kSecond;
    en::BackgroundTraffic bg(w.net, w.link->forward(), cfg);
    w.sim.run_until(30 * kSecond);
    return w.link->forward()->background_load();
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}
