// Property-based tests: randomized sweeps asserting invariants that must
// hold for every sample — byte conservation under churn in the fluid
// network, disk-cache safety under random operation streams, bandwidth-
// sampler accounting, forecaster sanity across signal families, and
// whole-testbed determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "esg/client.hpp"
#include "esg/testbed.hpp"
#include "net/fluid.hpp"
#include "nws/forecast.hpp"
#include "sim/simulation.hpp"
#include "storage/storage.hpp"

namespace ec = esg::common;
namespace en = esg::net;
namespace es = esg::sim;
using ec::kSecond;

// ---------- fluid network under churn ----------

class FluidChurnProperty : public ::testing::TestWithParam<int> {};

TEST_P(FluidChurnProperty, BytesConservedAndCapacityRespected) {
  ec::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  es::Simulation sim;
  en::FluidNetwork fluid(sim);

  std::vector<en::Resource*> resources;
  for (int i = 0; i < 5; ++i) {
    resources.push_back(fluid.add_resource("r" + std::to_string(i),
                                           rng.uniform(5e5, 5e6)));
  }

  struct Tracked {
    en::TransferId id;
    ec::Bytes offered;
    std::vector<const en::Resource*> path;
    ec::Bytes progressed = 0;  // via on_progress
    bool completed = false;
  };
  auto tracked = std::make_shared<std::vector<Tracked>>();

  // Random schedule: transfers start at random times with random paths and
  // sizes; some get cancelled mid-flight; resources flap up and down.
  for (int k = 0; k < 30; ++k) {
    const auto at = static_cast<ec::SimTime>(rng.uniform(0.0, 30.0) * kSecond);
    sim.schedule_at(at, [&fluid, &rng, &resources, tracked] {
      std::vector<const en::Resource*> path;
      for (auto* r : resources) {
        if (rng.uniform() < 0.4) path.push_back(r);
      }
      if (path.empty()) path.push_back(resources[0]);
      const auto size =
          static_cast<ec::Bytes>(rng.uniform(1e5, 2e7));
      const auto index = tracked->size();
      tracked->push_back(Tracked{0, size, path});
      en::TransferCallbacks cbs;
      cbs.on_progress = [tracked, index](ec::Bytes delta, ec::SimTime) {
        (*tracked)[index].progressed += delta;
      };
      cbs.on_complete = [tracked, index] {
        (*tracked)[index].completed = true;
      };
      (*tracked)[index].id = fluid.start_transfer(
          {en::FlowSpec{path, en::kUnlimitedRate}}, size, std::move(cbs));
    });
  }
  for (int k = 0; k < 8; ++k) {
    const auto at = static_cast<ec::SimTime>(rng.uniform(5.0, 40.0) * kSecond);
    const auto r = rng.uniform_int(resources.size());
    const bool down = rng.uniform() < 0.5;
    sim.schedule_at(at, [&fluid, &resources, r, down] {
      fluid.set_down(resources[r], down);
    });
  }
  // Periodic invariant check: per-resource usage never exceeds capacity
  // (each tracked transfer has a single flow, so its aggregate rate is the
  // flow rate on every resource of its path).
  sim.schedule_every(500 * ec::kMillisecond, [&]() -> bool {
    std::map<const en::Resource*, double> usage;
    for (const auto& t : *tracked) {
      if (t.id == 0 || !fluid.transfer_active(t.id)) continue;
      const double rate = fluid.current_rate(t.id);
      for (const auto* r : t.path) usage[r] += rate;
    }
    for (const auto& [r, used] : usage) {
      EXPECT_LE(used, r->effective_capacity() + 1.0) << r->name();
    }
    return sim.now() < 60 * kSecond;
  });
  // Ensure everything has a chance to finish.
  sim.schedule_at(120 * kSecond, [&] {
    for (auto* r : resources) fluid.set_down(r, false);
  });
  sim.run_until(600 * kSecond);

  for (const auto& t : *tracked) {
    if (t.completed) {
      // Progress callbacks conserved the byte count exactly (±1 rounding).
      EXPECT_NEAR(static_cast<double>(t.progressed),
                  static_cast<double>(t.offered), 2.0);
    } else if (t.id != 0) {
      // Still running or stalled: never over-delivered.
      EXPECT_LE(t.progressed, t.offered);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Churn, FluidChurnProperty, ::testing::Range(1, 11));

// ---------- disk cache under a random operation stream ----------

class CacheStressProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheStressProperty, InvariantsHoldUnderRandomOps) {
  ec::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  constexpr ec::Bytes kCapacity = 1000;
  esg::storage::DiskCache cache(kCapacity);
  std::map<std::string, int> pins;

  for (int op = 0; op < 500; ++op) {
    const std::string name = "f" + std::to_string(rng.uniform_int(20));
    switch (rng.uniform_int(4)) {
      case 0: {  // insert
        const auto size = static_cast<ec::Bytes>(rng.uniform(10, 300));
        const bool fits_ever = size <= kCapacity;
        auto st = cache.put(esg::storage::FileObject::synthetic(name, size));
        if (!fits_ever) {
          EXPECT_FALSE(st.ok());
        }
        break;
      }
      case 1:  // pin
        if (cache.contains(name) && cache.pin(name).ok()) ++pins[name];
        break;
      case 2:  // unpin
        if (pins[name] > 0 && cache.unpin(name).ok()) --pins[name];
        break;
      case 3:  // remove
        if (cache.remove(name).ok()) {
          EXPECT_EQ(pins[name], 0);  // pinned entries must refuse removal
        }
        break;
    }
    // Core invariants after every operation.
    EXPECT_LE(cache.used(), cache.capacity());
    for (const auto& [pinned_name, count] : pins) {
      if (count > 0) {
        EXPECT_TRUE(cache.contains(pinned_name))
            << "pinned file evicted: " << pinned_name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Stress, CacheStressProperty, ::testing::Range(1, 9));

// ---------- bandwidth sampler interval accounting ----------

TEST(SamplerProperty, IntervalRecordingConservesBytes) {
  ec::Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    ec::BandwidthSampler s(100 * ec::kMillisecond);
    ec::Bytes offered = 0;
    ec::SimTime cursor = 0;
    for (int k = 0; k < 40; ++k) {
      const auto len =
          static_cast<ec::SimDuration>(rng.uniform(1.0, 2000.0) *
                                       ec::kMillisecond / 1000 * 1000);
      const auto bytes = static_cast<ec::Bytes>(rng.uniform(1.0, 1e6));
      s.record_interval(cursor, cursor + len, bytes);
      cursor += len + static_cast<ec::SimDuration>(
                          rng.uniform(0.0, 500.0) * ec::kMillisecond / 1000 * 1000);
      offered += bytes;
    }
    EXPECT_EQ(s.total_bytes(), offered);
    // Sum of the series equals the total as well.
    double series_sum = 0.0;
    for (const auto& [t, rate] : s.series()) {
      series_sum += rate * ec::to_seconds(s.bucket());
    }
    EXPECT_NEAR(series_sum, static_cast<double>(offered),
                static_cast<double>(offered) * 1e-9 + 1.0);
  }
}

TEST(SamplerProperty, SmoothedPeakNeverExceedsBurstPeak) {
  ec::Rng rng(77);
  ec::BandwidthSampler burst(100 * ec::kMillisecond);
  ec::BandwidthSampler smooth(100 * ec::kMillisecond);
  ec::SimTime t = 0;
  for (int k = 0; k < 100; ++k) {
    const auto bytes = static_cast<ec::Bytes>(rng.uniform(1e4, 1e6));
    burst.record(t + 200 * ec::kMillisecond, bytes);  // all at one instant
    smooth.record_interval(t, t + 200 * ec::kMillisecond, bytes);
    t += 200 * ec::kMillisecond;
  }
  EXPECT_LE(smooth.peak_rate(100 * ec::kMillisecond),
            burst.peak_rate(100 * ec::kMillisecond) + 1.0);
  EXPECT_EQ(smooth.total_bytes(), burst.total_bytes());
}

// ---------- forecaster sanity across signal families ----------

struct SignalCase {
  const char* name;
  double (*value)(int i, ec::Rng& rng);
};

// Print a case by name: gtest would otherwise dump the struct's raw bytes,
// which hold pointers and so change from run to run, and the dump lands in
// the listed (and CTest-discovered) test names.
void PrintTo(const SignalCase& signal, std::ostream* os) { *os << signal.name; }

class ForecastProperty : public ::testing::TestWithParam<SignalCase> {};

TEST_P(ForecastProperty, AdaptiveBeatsOrMatchesWorstMember) {
  const auto& signal = GetParam();
  ec::Rng rng(555);
  esg::nws::AdaptiveForecaster adaptive;
  // Score the adaptive forecaster's own one-step-ahead error.
  double adaptive_se = 0.0;
  double last_prediction = 0.0;
  bool have_prediction = false;
  for (int i = 0; i < 400; ++i) {
    const double v = signal.value(i, rng);
    if (have_prediction) {
      adaptive_se += (last_prediction - v) * (last_prediction - v);
    }
    adaptive.observe(v);
    last_prediction = adaptive.predict();
    have_prediction = true;
  }
  // The winning member's cumulative error bounds the battery's best; the
  // adaptive error cannot be catastrophically worse than that best member
  // (it tracks it with a lag).  Assert a loose factor.
  const auto errors = adaptive.member_errors();
  const double best = *std::min_element(errors.begin(), errors.end());
  EXPECT_LE(adaptive_se / 399.0, best * 4.0 + 1e-9) << signal.name;
}

INSTANTIATE_TEST_SUITE_P(
    Signals, ForecastProperty,
    ::testing::Values(
        SignalCase{"constant", [](int, ec::Rng&) { return 42.0; }},
        SignalCase{"trend", [](int i, ec::Rng&) { return 0.5 * i; }},
        SignalCase{"noise",
                   [](int, ec::Rng& rng) { return rng.normal(100.0, 10.0); }},
        SignalCase{"sine",
                   [](int i, ec::Rng&) {
                     return 50.0 + 20.0 * std::sin(i / 10.0);
                   }},
        SignalCase{"level-shift",
                   [](int i, ec::Rng& rng) {
                     return (i < 200 ? 20.0 : 80.0) + rng.normal(0.0, 2.0);
                   }}),
    [](const ::testing::TestParamInfo<SignalCase>& info) {
      std::string name = info.param.name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------- whole-testbed determinism ----------

namespace {

std::string run_testbed_fingerprint() {
  ::esg::esg::TestbedConfig cfg;
  cfg.grid = esg::climate::GridSpec{18, 36};
  cfg.sensor_period = 30 * kSecond;
  ::esg::esg::EsgTestbed testbed(cfg);
  ::esg::esg::DatasetSpec spec;
  spec.name = "det-ds";
  spec.n_months = 12;
  spec.months_per_file = 6;
  spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov"};
  if (!testbed.publish_dataset(spec).ok()) return "publish-failed";
  testbed.start_sensors(2);
  ::esg::esg::EsgClient client(testbed);
  ::esg::esg::AnalysisRequest req;
  req.dataset = "det-ds";
  req.variable = "temperature";
  req.month_start = spec.start_month;
  req.month_end = spec.start_month + 12;
  auto result = client.analyze_blocking(req);
  if (!result.status.ok()) return "analysis-failed";
  std::string fp;
  fp += std::to_string(testbed.sim.now());
  fp += "|" + std::to_string(result.transfer.total_bytes);
  for (const auto& f : result.transfer.files) {
    fp += "|" + f.chosen_host + ":" + std::to_string(f.finished);
  }
  fp += "|" + std::to_string(result.stats.mean);
  return fp;
}

}  // namespace

// The testbed's full run, pinned: its host rates, host creation order and
// RPC order all feed this string.
TEST(Determinism, TestbedRunMatchesItsPinnedFingerprint) {
  EXPECT_EQ(run_testbed_fingerprint(),
            "61564412718|95436|pdsf.lbl.gov:61564412718|"
            "pdsf.lbl.gov:61564412718|-2.226736");
}

TEST(Determinism, IdenticalTestbedsProduceIdenticalRuns) {
  const std::string a = run_testbed_fingerprint();
  const std::string b = run_testbed_fingerprint();
  EXPECT_NE(a, "publish-failed");
  EXPECT_NE(a, "analysis-failed");
  EXPECT_EQ(a, b);
}

// TestbedConfig::seed reaches the simulation: its Rng (the retry jitter
// source) draws what a fresh common::Rng of the same seed draws.
TEST(Determinism, TestbedSeedsItsSimulationRng) {
  ::esg::esg::TestbedConfig cfg;
  cfg.seed = 7;
  ::esg::esg::EsgTestbed seven(cfg);
  cfg.seed = 8;
  ::esg::esg::EsgTestbed eight(cfg);
  ec::Rng expected(7);
  bool streams_differ = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t draw = seven.sim.rng().next_u64();
    EXPECT_EQ(draw, expected.next_u64()) << "draw " << i;
    streams_differ = streams_differ || draw != eight.sim.rng().next_u64();
  }
  EXPECT_TRUE(streams_differ);
}
