// Tests for the dense incremental fluid solver: exact rate-vector equality
// with the retained reference water-filling implementation on randomized
// topologies under churn (cap changes, resource down/up, flow additions,
// capacity and background edits) and on the shapes the per-resource rounds
// special-case (a resource listed twice on one path, a resource down at the
// first solve, multi-round solves with equal shares), the steady-state fast
// path (poll ticks must never invoke the solver), mutation coalescing, and
// the per-resource flow counts (idle-resource edits solve nothing; a
// resource's usage clears when its last flow leaves).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "net/fluid.hpp"
#include "net/fluid_reference.hpp"
#include "sim/simulation.hpp"

namespace ec = esg::common;
namespace en = esg::net;
namespace es = esg::sim;

using ec::kMillisecond;
using ec::kSecond;

namespace {

// Mirror of the flow population handed to the network, kept in the same
// (transfer-id, flow-index) order the dense solver iterates, so the
// reference solver sees bit-identical inputs.
struct FlowMirror {
  std::vector<const en::Resource*> path;
  en::Rate cap;
};

struct TransferMirror {
  en::TransferId id = 0;
  std::vector<FlowMirror> flows;
};

// The dense solver's rates equal the reference solver's to the last bit:
// both add the same delta to a resource's usage once per unfrozen flow
// crossing it, in a different order but from the same start.
void expect_reference_rates(en::FluidNetwork& fluid,
                            const std::vector<TransferMirror>& mirrors) {
  fluid.update();
  std::vector<en::ReferenceFlow> ref;
  for (const auto& m : mirrors) {
    for (const auto& f : m.flows) {
      ref.push_back(en::ReferenceFlow{f.path, f.cap, 0.0});
    }
  }
  en::reference_waterfill(ref);
  std::size_t k = 0;
  for (const auto& m : mirrors) {
    for (std::size_t j = 0; j < m.flows.size(); ++j, ++k) {
      const double dense = fluid.flow_rate(m.id, j);
      ASSERT_TRUE(std::isfinite(dense));
      ASSERT_EQ(dense, ref[k].rate) << "transfer " << m.id << " flow " << j;
    }
  }
}

TransferMirror start_mirrored(en::FluidNetwork& fluid,
                              std::vector<FlowMirror> flows) {
  TransferMirror m;
  std::vector<en::FlowSpec> specs;
  for (auto& fm : flows) {
    specs.push_back(en::FlowSpec{fm.path, fm.cap});
    m.flows.push_back(std::move(fm));
  }
  // Unbounded: the population must stay stable across the whole scenario.
  m.id = fluid.start_transfer(std::move(specs), en::kUnboundedBytes, {});
  return m;
}

}  // namespace

// One hundred randomized scenarios, each checked after every mutation round:
// the dense incremental solver and the reference water-filling must assign
// identical rate vectors.
class FluidEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FluidEquivalence, DenseSolverMatchesReferenceUnderChurn) {
  ec::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ull + 17);
  es::Simulation sim;
  en::FluidNetwork fluid(sim);

  const int n_resources = 3 + static_cast<int>(rng.uniform_int(8));
  std::vector<en::Resource*> resources;
  for (int i = 0; i < n_resources; ++i) {
    resources.push_back(fluid.add_resource("r" + std::to_string(i),
                                           rng.uniform(2e5, 8e6)));
  }

  auto random_path = [&] {
    std::vector<const en::Resource*> path;
    for (auto* r : resources) {
      if (rng.uniform() < 0.4) path.push_back(r);
    }
    if (path.empty()) path.push_back(resources[rng.uniform_int(resources.size())]);
    return path;
  };
  auto random_cap = [&]() -> en::Rate {
    return rng.uniform() < 0.35 ? rng.uniform(5e4, 3e6) : en::kUnlimitedRate;
  };

  std::vector<TransferMirror> mirrors;
  const int n_transfers = 2 + static_cast<int>(rng.uniform_int(14));
  for (int i = 0; i < n_transfers; ++i) {
    std::vector<FlowMirror> flows;
    const int n_flows = 1 + static_cast<int>(rng.uniform_int(3));
    for (int j = 0; j < n_flows; ++j) {
      flows.push_back({random_path(), random_cap()});
    }
    mirrors.push_back(start_mirrored(fluid, std::move(flows)));
  }

  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));

  for (int round = 0; round < 6; ++round) {
    switch (rng.uniform_int(6)) {
      case 0: {  // per-flow cap change mid-transfer
        auto& m = mirrors[rng.uniform_int(mirrors.size())];
        const auto j = rng.uniform_int(m.flows.size());
        const en::Rate cap = random_cap();
        m.flows[j].cap = cap;
        fluid.set_flow_cap(m.id, j, cap);
        break;
      }
      case 1: {  // resource down/up
        auto* r = resources[rng.uniform_int(resources.size())];
        fluid.set_down(r, !r->down());
        break;
      }
      case 2: {  // nominal capacity change
        auto* r = resources[rng.uniform_int(resources.size())];
        fluid.set_capacity(r, rng.uniform(2e5, 8e6));
        break;
      }
      case 3: {  // background cross-traffic
        auto* r = resources[rng.uniform_int(resources.size())];
        fluid.set_background(r, rng.uniform(0.0, r->nominal_capacity()));
        break;
      }
      case 4: {  // add a flow to a running transfer
        auto& m = mirrors[rng.uniform_int(mirrors.size())];
        FlowMirror fm{random_path(), random_cap()};
        fluid.add_flow(m.id, en::FlowSpec{fm.path, fm.cap});
        m.flows.push_back(std::move(fm));
        break;
      }
      case 5: {  // advance time across poll ticks; rates must stay put
        sim.run_until(sim.now() +
                      static_cast<ec::SimDuration>(
                          rng.uniform(0.05, 0.6) * kSecond));
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, FluidEquivalence,
                         ::testing::Range(1, 101));

// ---------- incremental fast path ----------

TEST(FluidScale, SteadyStatePollTicksSkipTheSolver) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim, 100 * kMillisecond);
  auto* a = fluid.add_resource("a", 1'000'000);
  auto* b = fluid.add_resource("b", 2'000'000);
  ec::Bytes progressed = 0;
  auto id = fluid.start_transfer(
      {en::FlowSpec{{a, b}, en::kUnlimitedRate}}, en::kUnboundedBytes,
      {[&](ec::Bytes d, ec::SimTime) { progressed += d; }, nullptr});
  fluid.start_transfer({en::FlowSpec{{b}, en::kUnlimitedRate}},
                       en::kUnboundedBytes, {});

  const std::uint64_t solves_before = fluid.reallocations();
  const std::uint64_t touches_before = fluid.touches();
  sim.run_until(5 * kSecond);  // ~50 poll ticks, zero mutations

  EXPECT_EQ(fluid.reallocations(), solves_before)
      << "steady-state poll ticks must not re-run the solver";
  EXPECT_GE(fluid.touches(), touches_before + 40)
      << "poll ticks should still integrate progress";
  EXPECT_GT(progressed, 0);
  // Progress accounting stays exact without reallocation.
  EXPECT_NEAR(static_cast<double>(fluid.transferred(id)), 1'000'000.0 * 5.0,
              2.0);
}

TEST(FluidScale, SteadyStatePollTicksSkipGaugeWrites) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim, 100 * kMillisecond);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  auto id = fluid.start_transfer({en::FlowSpec{{r}, 250'000}},
                                 en::kUnboundedBytes, {});
  const std::uint64_t writes_before = fluid.util_gauge_updates();
  sim.run_until(5 * kSecond);
  EXPECT_EQ(fluid.util_gauge_updates(), writes_before);
  // A real change still lands in the gauge.
  fluid.set_flow_cap(id, 0, 500'000);
  EXPECT_GT(fluid.util_gauge_updates(), writes_before);
  EXPECT_NEAR(r->utilization(), 0.5, 1e-9);
}

TEST(FluidScale, CompletionStillExactWithFastPath) {
  // The next-completion event is scheduled once per reallocation and must
  // stay valid across intervening poll ticks.
  es::Simulation sim;
  en::FluidNetwork fluid(sim, 100 * kMillisecond);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  bool done = false;
  fluid.start_transfer({en::FlowSpec{{r}, en::kUnlimitedRate}}, 10'000'000,
                       {nullptr, [&] { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(ec::to_seconds(sim.now()), 10.0, 0.01);
}

TEST(FluidScale, RedundantMutationsDoNotTriggerSolve) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 1'000'000);
  auto id = fluid.start_transfer({en::FlowSpec{{r}, 250'000}},
                                 en::kUnboundedBytes, {});
  const std::uint64_t solves = fluid.reallocations();
  fluid.set_down(r, false);          // already up
  fluid.set_background(r, 0.0);      // already zero
  fluid.set_capacity(r, 1'000'000);  // unchanged
  fluid.set_flow_cap(id, 0, 250'000);  // unchanged
  fluid.set_transfer_cap(id, 250'000);  // unchanged
  EXPECT_EQ(fluid.reallocations(), solves);
}

TEST(FluidScale, BatchCoalescesMutationsIntoOneSolve) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* a = fluid.add_resource("a", 1'000'000);
  auto* b = fluid.add_resource("b", 1'000'000);
  auto* c = fluid.add_resource("c", 1'000'000);
  auto id = fluid.start_transfer({en::FlowSpec{{a, b, c}, en::kUnlimitedRate}},
                                 en::kUnboundedBytes, {});
  const std::uint64_t solves = fluid.reallocations();
  fluid.batch([&] {
    fluid.set_background(a, 200'000);
    fluid.set_capacity(b, 500'000);
    fluid.set_down(c, false);  // no-op inside the batch is fine
  });
  EXPECT_EQ(fluid.reallocations(), solves + 1);
  EXPECT_NEAR(fluid.current_rate(id), 500'000, 1.0);  // b is the bottleneck
}

TEST(FluidScale, SetTransferCapSolvesOnceForAllStreams) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* r = fluid.add_resource("pipe", 10'000'000);
  std::vector<en::FlowSpec> flows(8, en::FlowSpec{{r}, 100'000});
  auto id = fluid.start_transfer(std::move(flows), en::kUnboundedBytes, {});
  const std::uint64_t solves = fluid.reallocations();
  fluid.set_transfer_cap(id, 200'000);
  EXPECT_EQ(fluid.reallocations(), solves + 1);
  EXPECT_NEAR(fluid.current_rate(id), 8 * 200'000.0, 1.0);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(fluid.flow_rate(id, j), 200'000.0, 1.0);
  }
}

// ---------- per-flow byte accounting ----------

TEST(FluidScale, FlowTransferredClampedToPool) {
  // Sampled at arbitrary instants (between integrations, around the
  // completion event), no member flow may ever report more bytes than the
  // transfer's pool holds.
  es::Simulation sim;
  en::FluidNetwork fluid(sim, 0);  // no polling: long extrapolation windows
  auto* r = fluid.add_resource("pipe", 999'983);  // prime: ragged division
  constexpr ec::Bytes kTotal = 1'000'003;
  auto id = fluid.start_transfer(
      {en::FlowSpec{{r}, en::kUnlimitedRate},
       en::FlowSpec{{r}, en::kUnlimitedRate}},
      kTotal, {});
  for (int i = 1; i <= 40; ++i) {
    sim.schedule_at(i * 26 * kMillisecond, [&] {
      if (!fluid.transfer_active(id)) return;
      const ec::Bytes f0 = fluid.flow_transferred(id, 0);
      const ec::Bytes f1 = fluid.flow_transferred(id, 1);
      EXPECT_LE(f0, kTotal);
      EXPECT_LE(f1, kTotal);
      EXPECT_LE(fluid.transferred(id), kTotal);
    });
  }
  sim.run();
  EXPECT_FALSE(fluid.transfer_active(id));
}

// ---------- per-resource flow counts ----------

TEST(FluidScale, IdleResourceMutationSolvesNothing) {
  // A capacity, background or down change on a resource no flow crosses
  // moves no rate: its gauge updates, and nothing is solved.
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* busy = fluid.add_resource("busy", 1'000'000);
  auto* idle = fluid.add_resource("idle", 2'000'000);
  const auto id = fluid.start_transfer(
      {en::FlowSpec{{busy}, en::kUnlimitedRate}}, en::kUnboundedBytes, {});
  const double rate = fluid.current_rate(id);
  const std::uint64_t solves = fluid.component_solves();
  const std::uint64_t solved = fluid.flows_solved_total();

  fluid.set_background(idle, 500'000);
  EXPECT_DOUBLE_EQ(idle->utilization(), 0.25);
  fluid.set_capacity(idle, 1'000'000);
  EXPECT_DOUBLE_EQ(idle->utilization(), 0.5);
  fluid.set_down(idle, true);
  EXPECT_TRUE(idle->down());
  fluid.batch([&] {
    fluid.set_down(idle, false);
    fluid.set_background(idle, 750'000);
    fluid.set_capacity(idle, 3'000'000);
  });
  EXPECT_DOUBLE_EQ(idle->utilization(), 0.25);

  EXPECT_EQ(fluid.component_solves(), solves);
  EXPECT_EQ(fluid.flows_solved_total(), solved);
  EXPECT_EQ(fluid.current_rate(id), rate);
  EXPECT_DOUBLE_EQ(busy->utilization(), 1.0);
}

TEST(FluidScale, SharedResourceKeepsUsageUntilLastFlowLeaves) {
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* p = fluid.add_resource("p", 1'000'000);
  auto* q = fluid.add_resource("q", 1'000'000);
  auto* s = fluid.add_resource("s", 4'000'000);
  const auto first = fluid.start_transfer(
      {en::FlowSpec{{p, q}, en::kUnlimitedRate}}, en::kUnboundedBytes, {});
  const auto second = fluid.start_transfer(
      {en::FlowSpec{{q, s}, en::kUnlimitedRate}}, en::kUnboundedBytes, {});

  // q still carries the second flow: only p's usage clears.
  fluid.cancel_transfer(first);
  EXPECT_EQ(p->utilization(), 0.0);
  EXPECT_NEAR(q->utilization(), 1.0, 1e-9);
  EXPECT_NEAR(fluid.current_rate(second), 1'000'000.0, 1.0);

  // The last flow leaves: q's and s's usage clear too.
  fluid.cancel_transfer(second);
  EXPECT_EQ(q->utilization(), 0.0);
  EXPECT_EQ(s->utilization(), 0.0);
}

// Randomized topology churn: island-local transfers come and go, bridge
// transfers join islands into one connected component of the topology, and
// cancelling a bridge splits them again and leaves resources no flow
// crosses.  After every round the full rate vector must match the reference
// solver run over the same population.
class FluidComponentChurn : public ::testing::TestWithParam<int> {};

TEST_P(FluidComponentChurn, EquivalenceUnderMergeSplitChurn) {
  ec::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ull +
              1442695040888963407ull);
  es::Simulation sim;
  en::FluidNetwork fluid(sim);

  constexpr int kIslands = 4;
  constexpr int kPerIsland = 3;
  std::vector<std::vector<en::Resource*>> islands(kIslands);
  for (int i = 0; i < kIslands; ++i) {
    for (int j = 0; j < kPerIsland; ++j) {
      islands[i].push_back(
          fluid.add_resource("i" + std::to_string(i) + "r" + std::to_string(j),
                             rng.uniform(5e5, 5e6)));
    }
  }

  auto island_path = [&](int i) {
    std::vector<const en::Resource*> path;
    for (auto* r : islands[i]) {
      if (rng.uniform() < 0.6) path.push_back(r);
    }
    if (path.empty()) path.push_back(islands[i][0]);
    return path;
  };
  auto random_cap = [&]() -> en::Rate {
    return rng.uniform() < 0.4 ? rng.uniform(1e5, 2e6) : en::kUnlimitedRate;
  };

  std::vector<TransferMirror> mirrors;
  auto start = [&](std::vector<FlowMirror> flows) {
    mirrors.push_back(start_mirrored(fluid, std::move(flows)));
  };

  for (int i = 0; i < kIslands; ++i) {
    start({{island_path(i), random_cap()}});
    start({{island_path(i), random_cap()}, {island_path(i), random_cap()}});
  }
  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));

  for (int round = 0; round < 10; ++round) {
    switch (rng.uniform_int(6)) {
      case 0: {  // start an island-local transfer
        start({{island_path(rng.uniform_int(kIslands)), random_cap()}});
        break;
      }
      case 1: {  // start a bridge transfer welding two islands
        const int i = static_cast<int>(rng.uniform_int(kIslands));
        const int j = (i + 1 + static_cast<int>(rng.uniform_int(kIslands - 1))) %
                      kIslands;
        auto path = island_path(i);
        for (const auto* r : island_path(j)) path.push_back(r);
        start({{std::move(path), random_cap()}});
        break;
      }
      case 2: {  // cancel a random transfer (a bridge, perhaps)
        if (mirrors.size() <= 2) break;
        const auto k = rng.uniform_int(mirrors.size());
        fluid.cancel_transfer(mirrors[k].id);
        mirrors.erase(mirrors.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 3: {  // cap change
        auto& m = mirrors[rng.uniform_int(mirrors.size())];
        const auto j = rng.uniform_int(m.flows.size());
        const en::Rate cap = random_cap();
        m.flows[j].cap = cap;
        fluid.set_flow_cap(m.id, j, cap);
        break;
      }
      case 4: {  // capacity change on a random resource
        auto& isl = islands[rng.uniform_int(kIslands)];
        fluid.set_capacity(isl[rng.uniform_int(isl.size())],
                           rng.uniform(5e5, 5e6));
        break;
      }
      case 5: {  // advance across poll ticks
        sim.run_until(sim.now() + static_cast<ec::SimDuration>(
                                      rng.uniform(0.05, 0.4) * kSecond));
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, FluidComponentChurn,
                         ::testing::Range(1, 31));

// ---------- the shapes the per-resource rounds special-case ----------

TEST(FluidExact, PathListingOneResourceTwiceCountsItTwice) {
  // A flow that crosses `loop` twice adds its rate to it twice, in round 1's
  // per-count sums and in later rounds alike.
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* loop = fluid.add_resource("loop", 3'000'001);
  auto* side = fluid.add_resource("side", 700'003);
  auto* wide = fluid.add_resource("wide", 9'999'991);
  std::vector<TransferMirror> mirrors;
  mirrors.push_back(start_mirrored(
      fluid, {{{loop, wide, loop}, en::kUnlimitedRate},
              {{loop, side}, en::kUnlimitedRate}}));
  mirrors.push_back(start_mirrored(
      fluid, {{{wide, loop, wide, loop}, en::kUnlimitedRate}}));
  mirrors.push_back(start_mirrored(fluid, {{{side, side}, 123'457.0}}));
  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
  // `side` freezes the second flow first; the two flows that cross `loop`
  // twice then fill the rest of it equally.
  EXPECT_NEAR(loop->utilization(), 1.0, 1e-9);
  const double twice = fluid.flow_rate(mirrors[1].id, 0);
  EXPECT_EQ(fluid.flow_rate(mirrors[0].id, 0), twice);
  EXPECT_LT(fluid.flow_rate(mirrors[0].id, 1), twice);

  mirrors[0].flows[1].cap = 250'000.0;
  fluid.set_flow_cap(mirrors[0].id, 1, 250'000.0);
  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
}

TEST(FluidExact, ResourceDownAtTheFirstSolve) {
  // A down resource offers no room: round 1's delta is 0, its flows freeze
  // at 0, and the rest fill from 0 in the rounds after.
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  auto* dead = fluid.add_resource("dead", 5'000'000);
  auto* live = fluid.add_resource("live", 1'234'567);
  fluid.set_down(dead, true);
  std::vector<TransferMirror> mirrors;
  mirrors.push_back(start_mirrored(
      fluid, {{{dead, live}, en::kUnlimitedRate},
              {{live}, en::kUnlimitedRate},
              {{live}, 300'001.0}}));
  mirrors.push_back(start_mirrored(fluid, {{{live}, en::kUnlimitedRate}}));
  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
  EXPECT_EQ(fluid.flow_rate(mirrors[0].id, 0), 0.0);
  EXPECT_GT(fluid.flow_rate(mirrors[1].id, 0), 0.0);

  fluid.set_down(dead, false);
  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
  EXPECT_GT(fluid.flow_rate(mirrors[0].id, 0), 0.0);
}

TEST(FluidExact, MultiRoundSolvesWithEqualShares) {
  // Caps and bottlenecks staggered so each solve runs several rounds, with
  // many flows per resource: every round after the first adds the round's
  // delta to a non-zero usage once per unfrozen flow crossing it.
  es::Simulation sim;
  en::FluidNetwork fluid(sim);
  std::vector<en::Resource*> tier;
  for (int i = 0; i < 4; ++i) {
    tier.push_back(fluid.add_resource("tier" + std::to_string(i),
                                      1'000'003.0 * (i + 1) / 3.0));
  }
  auto* core = fluid.add_resource("core", 7'654'321.0 / 7.0);
  std::vector<TransferMirror> mirrors;
  for (int i = 0; i < 4; ++i) {
    std::vector<FlowMirror> flows;
    for (int j = 0; j < 5; ++j) {
      const en::Rate cap =
          j == 0 ? 10'007.0 * (i + 1) / 3.0 : en::kUnlimitedRate;
      flows.push_back({{tier[static_cast<std::size_t>(i)], core}, cap});
    }
    flows.push_back({{tier[static_cast<std::size_t>(i)]}, en::kUnlimitedRate});
    mirrors.push_back(start_mirrored(fluid, std::move(flows)));
  }
  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
  // The narrowest tier saturates first and the core next: a tier's
  // uncapped core flows share equally, and its local flow gets no less.
  for (const auto& m : mirrors) {
    const double share = fluid.flow_rate(m.id, 1);
    EXPECT_GT(share, fluid.flow_rate(m.id, 0));
    for (std::size_t j = 2; j < 5; ++j) {
      EXPECT_EQ(fluid.flow_rate(m.id, j), share);
    }
    EXPECT_GE(fluid.flow_rate(m.id, 5), share);
  }
  EXPECT_LT(fluid.flow_rate(mirrors[0].id, 1),
            fluid.flow_rate(mirrors[3].id, 1));

  // Widen the core: the tiers bind instead, in more rounds.
  fluid.set_capacity(core, 50'000'000);
  ASSERT_NO_FATAL_FAILURE(expect_reference_rates(fluid, mirrors));
}
