// Streaming-telemetry tests (ctest label "telemetry"): the bounded-memory
// TimeSeriesStore (ring bounds under 1M samples, rings that grow only as
// far as they fill, rollup math, windowed queries past the raw horizon),
// the sampling hook over the metrics registry (checked against a snapshot
// reference as cells arrive mid-run, and allocation-free once the rings
// are full), the online AlertEngine (burn-rate multi-window rules, EWMA +
// CUSUM anomaly detection, flight events), attribute_fault's rule for
// tying a symptom or a firing to an injected fault, manifest serialization of alert/series
// timelines (byte-deterministic round-trip, drift detection), flight-ring
// eviction digests, and same-seed replay identity of the whole pipeline
// scheduled on the simulated clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "obs/alert.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulation.hpp"

namespace eo = esg::obs;
namespace ec = esg::common;
namespace es = esg::sim;

// Global operator new counts every heap allocation and its bytes, so the
// tests below can pin what sampling allocates.  The tests are
// single-threaded.  Every replaceable form is defined, so that under ASan
// no block is allocated by one allocator and freed by another.
namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++g_allocs;
  g_alloc_bytes += size;
  return std::malloc(size ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
// Out of line: inlined into the cleanup of a `new T`, the free() would trip
// GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

using ec::kSecond;
using ec::SimTime;

// ------------------------------------------------------------- time series

TEST(TimeSeries, MemoryIsBoundedUnderAMillionSamples) {
  eo::TimeSeriesConfig cfg;  // raw 600, fine 360, coarse 240
  eo::TimeSeriesStore store(cfg);
  eo::TimeSeries& s = store.series("flood_total");
  for (int i = 0; i < 1'000'000; ++i) {
    s.append(static_cast<SimTime>(i) * (kSecond / 10),
             static_cast<double>(i));
  }
  EXPECT_EQ(s.samples(), 1'000'000u);
  EXPECT_EQ(s.raw_size(), cfg.raw_capacity);
  EXPECT_LE(s.fine_size(), cfg.fine_capacity);
  EXPECT_LE(s.coarse_size(), cfg.coarse_capacity);
  EXPECT_EQ(s.fine_size(), cfg.fine_capacity);    // long past full
  EXPECT_EQ(s.coarse_size(), cfg.coarse_capacity);
  // Every ring is full, so no ring allocated a slot past its capacity.
  EXPECT_LE(s.allocated_slots(),
            cfg.raw_capacity + cfg.fine_capacity + cfg.coarse_capacity);
  // Life aggregates never evict.
  EXPECT_DOUBLE_EQ(s.life_min(), 0.0);
  EXPECT_DOUBLE_EQ(s.life_max(), 999'999.0);
  // The raw ring holds exactly the newest samples, oldest first.
  const auto raw = s.raw();
  ASSERT_EQ(raw.size(), cfg.raw_capacity);
  EXPECT_DOUBLE_EQ(raw.front().value, 1'000'000.0 - 600.0);
  EXPECT_DOUBLE_EQ(raw.back().value, 999'999.0);
}

TEST(TimeSeries, ShortSeriesAllocatesOnlyWhatItHolds) {
  const eo::TimeSeriesConfig cfg;
  auto bytes_for = [&cfg](int samples) {
    const std::uint64_t before = g_alloc_bytes;
    eo::TimeSeries s(cfg);
    for (int i = 0; i < samples; ++i) {
      s.append(static_cast<SimTime>(i) * kSecond, static_cast<double>(i));
    }
    return g_alloc_bytes - before;
  };
  // Enough 1 s samples to fill every ring, the coarse one last.
  const int fill = static_cast<int>(
      (cfg.coarse_capacity + 1) * (cfg.coarse_width / kSecond));
  const std::uint64_t full = bytes_for(fill);
  const std::uint64_t ten = bytes_for(10);
  EXPECT_GT(ten, 0u);
  EXPECT_LT(ten * 20, full);  // ten samples cost under 5% of a full series
}

TEST(TimeSeries, RollupBucketsAggregateMinMaxSumCount) {
  eo::TimeSeriesConfig cfg;
  cfg.fine_width = 10 * kSecond;
  eo::TimeSeries s(cfg);
  // Two closed 10 s buckets plus one still-open bucket.
  s.append(1 * kSecond, 5.0);
  s.append(4 * kSecond, 1.0);
  s.append(9 * kSecond, 3.0);
  s.append(12 * kSecond, 7.0);
  s.append(25 * kSecond, 2.0);  // opens [20,30): closes [10,20)
  const auto fine = s.fine();
  ASSERT_EQ(fine.size(), 2u);
  EXPECT_EQ(fine[0].start, 0);
  EXPECT_DOUBLE_EQ(fine[0].min, 1.0);
  EXPECT_DOUBLE_EQ(fine[0].max, 5.0);
  EXPECT_DOUBLE_EQ(fine[0].sum, 9.0);
  EXPECT_EQ(fine[0].count, 3u);
  EXPECT_DOUBLE_EQ(fine[0].mean(), 3.0);
  EXPECT_EQ(fine[1].start, 10 * kSecond);
  EXPECT_EQ(fine[1].count, 1u);
  EXPECT_DOUBLE_EQ(fine[1].sum, 7.0);
}

TEST(TimeSeries, ValueAtAnswersFromRawThenFallsBackToRollups) {
  eo::TimeSeriesConfig cfg;
  cfg.raw_capacity = 4;  // tiny raw window forces the rollup path
  cfg.fine_width = 10 * kSecond;
  eo::TimeSeries s(cfg);
  for (int i = 0; i < 40; ++i) {
    s.append(static_cast<SimTime>(i) * kSecond, static_cast<double>(i));
  }
  double v = 0.0;
  // Newest region: exact raw answers (latest at-or-before semantics).
  ASSERT_TRUE(s.value_at(39 * kSecond, &v));
  EXPECT_DOUBLE_EQ(v, 39.0);
  ASSERT_TRUE(s.value_at(37 * kSecond + kSecond / 2, &v));
  EXPECT_DOUBLE_EQ(v, 37.0);
  // Before the raw window: the covering fine bucket answers with its min
  // (exact for the monotone counters deltas are computed on).
  ASSERT_TRUE(s.value_at(15 * kSecond, &v));
  EXPECT_DOUBLE_EQ(v, 10.0);
  // Before everything retained: no answer.
  eo::TimeSeries empty(cfg);
  EXPECT_FALSE(empty.value_at(kSecond, &v));
}

TEST(TimeSeries, DeltaSpansTheRollupHorizonAndClampsNegative) {
  eo::TimeSeriesConfig cfg;
  cfg.raw_capacity = 4;
  eo::TimeSeries counter(cfg);
  for (int i = 0; i <= 100; ++i) {
    counter.append(static_cast<SimTime>(i) * kSecond,
                   static_cast<double>(10 * i));
  }
  // Window entirely in raw: exact.
  EXPECT_DOUBLE_EQ(counter.delta(98 * kSecond, 100 * kSecond), 20.0);
  // Window reaching far behind the raw ring: answered via rollups.
  const double wide = counter.delta(20 * kSecond, 100 * kSecond);
  EXPECT_NEAR(wide, 800.0, 100.0);  // bucket-min granularity, never wild
  // A gauge that falls produces no negative "rate".
  eo::TimeSeries gauge(cfg);
  gauge.append(0, 50.0);
  gauge.append(kSecond, 10.0);
  EXPECT_DOUBLE_EQ(gauge.delta(0, kSecond), 0.0);
}

TEST(TimeSeries, WindowStatsFoldRawAndRollupsWithoutDoubleCounting) {
  eo::TimeSeriesConfig cfg;
  cfg.raw_capacity = 5;
  cfg.fine_width = 10 * kSecond;
  eo::TimeSeries s(cfg);
  // 35 samples: the raw ring keeps t=30..34 and the closed fine buckets
  // cover [0,30) — the open [30,40) bucket overlaps raw and must not be
  // folded twice.
  for (int i = 0; i < 35; ++i) {
    s.append(static_cast<SimTime>(i) * kSecond, 1.0);
  }
  const auto w = s.stats(-1, 35 * kSecond);
  EXPECT_EQ(w.count, 35u);
  EXPECT_DOUBLE_EQ(w.sum, 35.0);
  EXPECT_DOUBLE_EQ(w.min, 1.0);
  EXPECT_DOUBLE_EQ(w.max, 1.0);
}

TEST(TimeSeriesStore, SampleRegistryEmitsSeriesWithDerivedQuantiles) {
  eo::MetricsRegistry reg;
  reg.counter("bytes_total", {{"server", "a"}}).add(100);
  reg.gauge("queue_depth").set(7.0);
  auto& h = reg.histogram("wait_seconds", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);

  eo::TimeSeriesStore store;
  store.sample_registry(reg, 5 * kSecond);
  EXPECT_EQ(store.samples_total(), 6u);  // counter + gauge + 4 derived
  const auto* c = store.find("bytes_total", {{"server", "a"}});
  ASSERT_NE(c, nullptr);
  double v = 0.0;
  ASSERT_TRUE(c->value_at(5 * kSecond, &v));
  EXPECT_DOUBLE_EQ(v, 100.0);
  ASSERT_NE(store.find("queue_depth"), nullptr);
  ASSERT_NE(store.find("wait_seconds:count"), nullptr);
  ASSERT_NE(store.find("wait_seconds:sum"), nullptr);
  const auto* p50 = store.find("wait_seconds:p50");
  ASSERT_NE(p50, nullptr);
  ASSERT_TRUE(p50->value_at(5 * kSecond, &v));
  EXPECT_DOUBLE_EQ(v, h.quantile(0.50));
  ASSERT_NE(store.find("wait_seconds:p99"), nullptr);
}

namespace {

// Reference sampler: snapshot the registry, then append every entry under
// its derived names.  sample_registry must produce exactly what this
// produces.
void snapshot_sample(eo::TimeSeriesStore& store,
                     const eo::MetricsRegistry& registry, SimTime at) {
  const eo::MetricsSnapshot snap = registry.snapshot(at);
  for (const auto& e : snap.entries) {
    if (e.kind == eo::MetricKind::histogram) {
      store.append(e.name + ":count", e.labels, at,
                   static_cast<double>(e.count));
      store.append(e.name + ":sum", e.labels, at, e.sum);
      store.append(e.name + ":p50", e.labels, at, e.quantile(0.50));
      store.append(e.name + ":p99", e.labels, at, e.quantile(0.99));
    } else {
      store.append(e.name, e.labels, at, e.value);
    }
  }
}

struct NamedSeries {
  std::string name;
  eo::Labels labels;
  const eo::TimeSeries* series;
};

std::vector<NamedSeries> in_order(const eo::TimeSeriesStore& store) {
  std::vector<NamedSeries> out;
  store.for_each([&out](const std::string& name, const eo::Labels& labels,
                        const eo::TimeSeries& s) {
    out.push_back({name, labels, &s});
  });
  return out;
}

void expect_same_rollups(const std::vector<eo::RollupPoint>& a,
                         const std::vector<eo::RollupPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].min, b[i].min);
    EXPECT_EQ(a[i].max, b[i].max);
    EXPECT_EQ(a[i].sum, b[i].sum);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

void expect_same_store(const eo::TimeSeriesStore& got,
                       const eo::TimeSeriesStore& want) {
  EXPECT_EQ(got.samples_total(), want.samples_total());
  EXPECT_EQ(got.last_sample_at(), want.last_sample_at());
  const auto g = in_order(got);
  const auto w = in_order(want);
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    SCOPED_TRACE(w[i].name);
    EXPECT_EQ(g[i].name, w[i].name);
    EXPECT_EQ(g[i].labels, w[i].labels);
    const eo::TimeSeries& gs = *g[i].series;
    const eo::TimeSeries& ws = *w[i].series;
    EXPECT_EQ(gs.samples(), ws.samples());
    EXPECT_EQ(gs.life_min(), ws.life_min());
    EXPECT_EQ(gs.life_max(), ws.life_max());
    EXPECT_EQ(gs.life_sum(), ws.life_sum());
    const auto graw = gs.raw();
    const auto wraw = ws.raw();
    ASSERT_EQ(graw.size(), wraw.size());
    for (std::size_t j = 0; j < graw.size(); ++j) {
      EXPECT_EQ(graw[j].at, wraw[j].at);
      EXPECT_EQ(graw[j].value, wraw[j].value);
    }
    expect_same_rollups(gs.fine(), ws.fine());
    expect_same_rollups(gs.coarse(), ws.coarse());
  }
}

}  // namespace

TEST(TimeSeriesStore, CellWalkMatchesSnapshotSamplingAsCellsArrive) {
  eo::TimeSeriesConfig cfg;  // small rings so all three wrap in 50 ticks
  cfg.raw_capacity = 8;
  cfg.fine_capacity = 4;
  cfg.coarse_capacity = 2;
  cfg.fine_width = 3 * kSecond;
  cfg.coarse_width = 10 * kSecond;
  eo::MetricsRegistry reg;
  eo::TimeSeriesStore walked(cfg);
  eo::TimeSeriesStore reference(cfg);

  auto& bytes = reg.counter("bytes_total", {{"site", "b"}});
  auto& depth = reg.gauge("queue_depth");
  eo::Counter* retries = nullptr;
  eo::Histogram* wait = nullptr;
  for (int t = 0; t < 50; ++t) {
    const SimTime at = static_cast<SimTime>(t) * kSecond;
    bytes.add(static_cast<std::uint64_t>(100 + 7 * t));
    depth.set(t < 25 ? 0.5 * t : 0.5 * (50 - t));  // rises, then falls
    if (t == 4) {  // registered after tick 3, labels out of order
      retries = &reg.counter("retries_total", {{"site", "z"}, {"host", "a"}});
    }
    if (retries != nullptr) retries->add(static_cast<std::uint64_t>(t % 3));
    if (t == 11) {  // registered after tick 10
      wait = &reg.histogram("wait_seconds", {1.0, 2.0, 4.0, 8.0});
    }
    if (wait != nullptr) wait->observe(0.25 * (t % 17));
    walked.sample_registry(reg, at);
    snapshot_sample(reference, reg, at);
  }
  ASSERT_NE(walked.find("retries_total", {{"host", "a"}, {"site", "z"}}),
            nullptr);
  ASSERT_NE(walked.find("wait_seconds:p99"), nullptr);
  EXPECT_EQ(walked.series_count(), 7u);  // 3 plain + 4 derived
  expect_same_store(walked, reference);
}

TEST(TimeSeriesStore, SteadyTickAllocatesNothing) {
  eo::TimeSeriesConfig cfg;  // small rings: full after a few dozen ticks
  cfg.raw_capacity = 4;
  cfg.fine_capacity = 2;
  cfg.coarse_capacity = 2;
  cfg.fine_width = 2 * kSecond;
  cfg.coarse_width = 4 * kSecond;
  eo::MetricsRegistry reg;
  auto& bytes = reg.counter("bytes_total", {{"site", "a"}});
  auto& depth = reg.gauge("queue_depth");
  auto& wait = reg.histogram("wait_seconds", eo::duration_boundaries());
  eo::TimeSeriesStore store(cfg);

  SimTime at = 0;
  auto tick = [&] {
    bytes.add(10);
    depth.set(static_cast<double>(at % (7 * kSecond)) / kSecond);
    wait.observe(static_cast<double>(at % (90 * kSecond)) / kSecond);
    store.sample_registry(reg, at);
    at += kSecond;
  };
  // Fill every ring: coarse needs coarse_capacity + 1 buckets of 4 s.
  for (int i = 0; i < 20; ++i) tick();
  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 100; ++i) tick();
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(store.samples_total(), 120u * 6u);  // counter + gauge + 4 derived
}

TEST(TimeSeriesStore, FamilyQueriesSelectByLabelSubset) {
  eo::TimeSeriesStore store;
  store.append("bytes_total", {{"site", "a"}, {"disk", "0"}}, 0, 0.0);
  store.append("bytes_total", {{"site", "a"}, {"disk", "1"}}, 0, 0.0);
  store.append("bytes_total", {{"site", "b"}, {"disk", "0"}}, 0, 0.0);
  store.append("bytes_total", {{"site", "a"}, {"disk", "0"}}, 10 * kSecond,
               30.0);
  store.append("bytes_total", {{"site", "a"}, {"disk", "1"}}, 10 * kSecond,
               12.0);
  store.append("bytes_total", {{"site", "b"}, {"disk", "0"}}, 10 * kSecond,
               5.0);
  EXPECT_DOUBLE_EQ(
      store.family_delta("bytes_total", {}, 0, 10 * kSecond), 47.0);
  EXPECT_DOUBLE_EQ(
      store.family_delta("bytes_total", {{"site", "a"}}, 0, 10 * kSecond),
      42.0);
  bool found = false;
  EXPECT_DOUBLE_EQ(store.family_value("bytes_total", {{"site", "b"}},
                                      10 * kSecond, &found),
                   5.0);
  EXPECT_TRUE(found);
  store.family_value("bytes_total", {{"site", "zzz"}}, 10 * kSecond, &found);
  EXPECT_FALSE(found);
}

// ----------------------------------------------------------------- alerts

namespace {

// Drive a cumulative counter pair through the store one second at a time.
struct CounterFeeder {
  eo::TimeSeriesStore& store;
  double good = 0.0;
  double bad = 0.0;
  void tick(SimTime at, double good_rate, double bad_rate) {
    good += good_rate;
    bad += bad_rate;
    store.append("requests_total", {}, at, good);
    store.append("errors_total", {}, at, bad);
  }
};

eo::BurnRateRule ratio_rule() {
  eo::BurnRateRule rule;
  rule.name = "error-burn";
  rule.bad_metric = "errors_total";
  rule.good_metric = "requests_total";
  rule.objective = 0.99;
  rule.threshold = 2.0;
  rule.long_window = 60 * kSecond;
  rule.short_window = 15 * kSecond;
  return rule;
}

}  // namespace

TEST(AlertEngine, BurnRateFiresOnBothWindowsAndResolvesOnShort) {
  eo::TimeSeriesStore store;
  SimTime now = 0;
  eo::FlightRecorder recorder([&now] { return now; });
  eo::AlertEngine engine(store, &recorder);
  engine.add(ratio_rule());

  CounterFeeder feed{store};
  SimTime fired_at = -1;
  SimTime resolved_at = -1;
  for (int t = 0; t <= 300; ++t) {
    now = static_cast<SimTime>(t) * kSecond;
    // Healthy until 120 s, a 5/s error burst until 180 s, then healthy.
    const bool incident = t > 120 && t <= 180;
    feed.tick(now, 10.0, incident ? 5.0 : 0.0);
    engine.evaluate(now);
    if (fired_at < 0 && engine.firing_count() > 0) fired_at = now;
    if (fired_at >= 0 && resolved_at < 0 && engine.firing_count() == 0) {
      resolved_at = now;
    }
  }
  ASSERT_EQ(engine.history().size(), 1u);
  const eo::AlertRecord& r = engine.history()[0];
  EXPECT_EQ(r.rule, "error-burn");
  EXPECT_EQ(r.kind, eo::AlertKind::burn_rate);
  // Fired while the burst was live (needs the long window to accumulate),
  // resolved only after the short window drained of errors.
  EXPECT_GT(fired_at, 120 * kSecond);
  EXPECT_LT(fired_at, 180 * kSecond);
  EXPECT_GT(resolved_at, 180 * kSecond);
  EXPECT_LE(resolved_at, 200 * kSecond);
  EXPECT_TRUE(r.resolved);
  EXPECT_EQ(r.fired_at, fired_at);
  EXPECT_EQ(r.resolved_at, resolved_at);
  EXPECT_GE(r.value, r.threshold);
  // Both lifecycle transitions landed in the flight ring, in order.
  ASSERT_EQ(recorder.events().size(), 2u);
  EXPECT_EQ(recorder.events()[0].name, "alert.fired");
  EXPECT_EQ(recorder.events()[0].category, "alert");
  EXPECT_EQ(recorder.events()[0].at, fired_at);
  EXPECT_EQ(recorder.events()[1].name, "alert.resolved");
  EXPECT_EQ(recorder.events()[1].at, resolved_at);
}

TEST(AlertEngine, BurnRateBudgetModeCountsEventsPerHour) {
  eo::TimeSeriesStore store;
  eo::AlertEngine engine(store, nullptr);
  eo::BurnRateRule rule;
  rule.name = "retry-budget";
  rule.bad_metric = "retries_total";
  rule.good_metric.clear();      // budget mode
  rule.budget_per_hour = 60.0;   // one a minute is fine
  rule.threshold = 3.0;
  rule.long_window = 60 * kSecond;
  rule.short_window = 15 * kSecond;
  engine.add(rule);

  double retries = 0.0;
  for (int t = 0; t <= 120; ++t) {
    const SimTime now = static_cast<SimTime>(t) * kSecond;
    retries += t > 60 ? 1.0 : 0.0;  // 1/s = 3600/h = 60x budget
    store.append("retries_total", {}, now, retries);
    engine.evaluate(now);
  }
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_GT(engine.history()[0].fired_at, 60 * kSecond);
  EXPECT_FALSE(engine.history()[0].resolved);  // burst still live at the end
}

TEST(AlertEngine, AnomalyCusumFiresOnStepAndResolvesAtOldBaseline) {
  eo::TimeSeriesStore store;
  SimTime now = 0;
  eo::FlightRecorder recorder([&now] { return now; });
  eo::AlertEngine engine(store, &recorder);
  eo::AnomalyRule rule;
  rule.name = "depth-shift";
  rule.metric = "queue_depth";
  rule.min_sigma = 0.5;  // a real floor so the step is "10 sigma", not 1e10
  engine.add(rule);

  SimTime fired_at = -1;
  SimTime resolved_at = -1;
  for (int t = 0; t <= 120; ++t) {
    now = static_cast<SimTime>(t) * kSecond;
    const double value = (t >= 60 && t < 80) ? 15.0 : 10.0;  // +10 sigma step
    store.append("queue_depth", {}, now, value);
    engine.evaluate(now);
    if (fired_at < 0 && engine.firing_count() > 0) fired_at = now;
    if (fired_at >= 0 && resolved_at < 0 && engine.firing_count() == 0) {
      resolved_at = now;
    }
  }
  ASSERT_EQ(engine.history().size(), 1u);
  const eo::AlertRecord& r = engine.history()[0];
  EXPECT_EQ(r.kind, eo::AlertKind::anomaly);
  // CUSUM needs a couple of shifted samples past the slack to cross h.
  EXPECT_GE(fired_at, 60 * kSecond);
  EXPECT_LE(fired_at, 65 * kSecond);
  // The baseline froze during the incident, so the return to the old
  // normal drains the accumulators and resolves.
  EXPECT_TRUE(r.resolved);
  EXPECT_GE(resolved_at, 80 * kSecond);
}

TEST(AlertEngine, AnomalyWatchesCounterRatesThroughRateWindow) {
  eo::TimeSeriesStore store;
  eo::AlertEngine engine(store, nullptr);
  eo::AnomalyRule rule;
  rule.name = "goodput-cliff";
  rule.metric = "bytes_total";
  rule.rate_window = 10 * kSecond;
  rule.min_sigma = 1.0;
  engine.add(rule);

  double bytes = 0.0;
  SimTime fired_at = -1;
  for (int t = 0; t <= 90; ++t) {
    const SimTime now = static_cast<SimTime>(t) * kSecond;
    bytes += t < 60 ? 100.0 : 0.0;  // steady 100/s, then a cliff to zero
    store.append("bytes_total", {}, now, bytes);
    engine.evaluate(now);
    if (fired_at < 0 && engine.firing_count() > 0) fired_at = now;
  }
  ASSERT_GE(engine.history().size(), 1u);
  EXPECT_GE(fired_at, 60 * kSecond);
  EXPECT_LE(fired_at, 75 * kSecond);
}

// ---------------------------------------------------- fault correlation

namespace {

// One (at, category, name, target) row of a flight-event stream.
struct Row {
  SimTime at;
  const char* category;
  const char* name;
  const char* target;
};

// The stream a recorder would hold: seq numbers in row order.
std::vector<eo::FlightEvent> stream(std::initializer_list<Row> rows) {
  std::vector<eo::FlightEvent> out;
  for (const Row& r : rows) {
    eo::FlightEvent e;
    e.seq = out.size();
    e.at = r.at;
    e.category = r.category;
    e.name = r.name;
    e.target = r.target;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

TEST(AttributeFault, PrefersActiveFaultThenRecentThenNothing) {
  const auto faults = stream({
      {10 * kSecond, "chaos", "fault.brownout.begin", "lbnl-uplink"},
      {50 * kSecond, "chaos", "fault.brownout.end", "lbnl-uplink"},
      {90 * kSecond, "chaos", "fault.corruption", "client"},
  });
  const auto consumed_late = stream({
      {10 * kSecond, "chaos", "fault.corruption", "client"},
      {250 * kSecond, "gridftp", "checksum.mismatch", "cache/a.ncx"},
  });
  const auto never_lifted = stream({
      {10 * kSecond, "chaos", "fault.brownout.begin", "lbnl-uplink"},
  });
  const auto no_injection = stream({
      {10 * kSecond, "chaos", "fault.brownout.begin", "lbnl-uplink"},
      {30 * kSecond, "gridftp", "checksum.mismatch", "cache/a.ncx"},
      {30 * kSecond, "gridftp", "corruption.refetch", "cache/a.ncx"},
  });
  const auto refetch_only = stream({
      {1 * kSecond, "chaos", "fault.corruption", "client"},
      {3 * kSecond, "chaos", "fault.brownout.begin", "lbnl-uplink"},
      {30 * kSecond, "gridftp", "corruption.refetch", "cache/a.ncx"},
  });
  const auto two_armed = stream({
      {1 * kSecond, "chaos", "fault.corruption", "client"},
      {2 * kSecond, "chaos", "fault.corruption", "client"},
      {3 * kSecond, "chaos", "fault.brownout.begin", "lbnl-uplink"},
      {300 * kSecond, "gridftp", "checksum.mismatch", "cache/a.ncx"},
      {300 * kSecond, "gridftp", "corruption.refetch", "cache/a.ncx"},
      {310 * kSecond, "gridftp", "checksum.mismatch", "cache/b.ncx"},
      {310 * kSecond, "gridftp", "corruption.refetch", "cache/b.ncx"},
  });
  const auto not_chaos = stream({
      {10 * kSecond, "rm", "fault.brownout.begin", "x"},
  });

  constexpr int kAlert = -1;  // no symptom event: an alert's firing time
  constexpr int kNone = -1;   // nothing plausibly explains it
  struct Case {
    const char* what;
    const std::vector<eo::FlightEvent>& events;
    SimTime at;
    int symptom;  // index of the symptom event in `events`, or kAlert
    int cause;    // index of the fault it names, or kNone
  };
  const Case cases[] = {
      {"fired mid-fault: the active brownout wins", faults, 30 * kSecond,
       kAlert, 0},
      {"fired after the corruption: the latest fault in the window", faults,
       100 * kSecond, kAlert, 2},
      {"a corruption never consumed stops acting at its injection", faults,
       211 * kSecond, kAlert, kNone},
      {"fired long after everything ended", faults, 400 * kSecond, kAlert,
       kNone},
      {"a consumed corruption is recent from its consumption", consumed_late,
       300 * kSecond, kAlert, 0},
      {"...and only within the window of it", consumed_late, 371 * kSecond,
       kAlert, kNone},
      {"a .begin with no recorded .end is still active", never_lifted,
       1000 * kSecond, kAlert, 0},
      {"a mismatch with no injection falls back to the window rule",
       no_injection, 30 * kSecond, 1, 0},
      {"...and so does its refetch", no_injection, 30 * kSecond, 2, 0},
      {"a refetch whose mismatch is not in the stream falls back too",
       refetch_only, 30 * kSecond, 2, 1},
      {"the first mismatch consumed the first injection", two_armed,
       300 * kSecond, 3, 0},
      {"a refetch is explained by its mismatch's injection", two_armed,
       300 * kSecond, 4, 0},
      {"the second mismatch consumed the second injection", two_armed,
       310 * kSecond, 5, 1},
      {"an alert between them prefers the active brownout", two_armed,
       305 * kSecond, kAlert, 2},
      {"non-chaos events never explain anything", not_chaos, 20 * kSecond,
       kAlert, kNone},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const eo::FlightEvent symptom =
        c.symptom == kAlert ? eo::FlightEvent{} : c.events[c.symptom];
    const eo::FlightEvent* got = eo::attribute_fault(c.events, c.at, symptom);
    const eo::FlightEvent* want = c.cause == kNone ? nullptr
                                                   : &c.events[c.cause];
    EXPECT_EQ(got, want) << "named " << (got != nullptr ? got->name : "none");
  }
}

// ------------------------------------------------- manifest serialization

TEST(Manifest, TelemetryRoundTripsByteIdentically) {
  eo::TimeSeriesStore store;
  SimTime now = 0;
  eo::FlightRecorder recorder([&now] { return now; });
  eo::AlertEngine engine(store, &recorder);
  engine.add(ratio_rule());
  CounterFeeder feed{store};
  for (int t = 0; t <= 200; ++t) {
    now = static_cast<SimTime>(t) * kSecond;
    feed.tick(now, 10.0, t > 100 && t <= 150 ? 5.0 : 0.0);
    engine.evaluate(now);
  }
  ASSERT_GE(engine.history().size(), 1u);

  eo::RunManifest m;
  m.name = "telemetry-rt";
  m.seed = 7;
  eo::attach_telemetry(m, store, engine);
  ASSERT_EQ(m.alerts.size(), engine.history().size());
  ASSERT_EQ(m.series.size(), store.series_count());
  for (const auto& s : m.series) {
    EXPECT_LE(s.points.size(), 16u);  // max_points default caps the payload
  }

  const std::string json = m.to_json();
  const auto parsed = eo::RunManifest::from_json(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().to_json(), json);  // lossless, byte-identical
  ASSERT_EQ(parsed.value().alerts.size(), m.alerts.size());
  EXPECT_EQ(parsed.value().alerts[0].rule, m.alerts[0].rule);
  EXPECT_EQ(parsed.value().alerts[0].fired_at, m.alerts[0].fired_at);
  ASSERT_EQ(parsed.value().series.size(), m.series.size());
  EXPECT_EQ(parsed.value().series[0].samples, m.series[0].samples);
}

TEST(Manifest, AlertTimelineDriftIsFlaggedExactly) {
  eo::RunManifest base;
  base.name = "drift";
  eo::AlertRecord a;
  a.rule = "error-burn";
  a.kind = eo::AlertKind::burn_rate;
  a.fired_at = 100 * kSecond;
  a.resolved = true;
  a.resolved_at = 150 * kSecond;
  base.alerts.push_back(a);

  eo::RunManifest same = base;
  EXPECT_TRUE(eo::diff_manifests(base, same, {}).clean());

  // A shifted firing time is drift even inside any numeric tolerance.
  eo::RunManifest shifted = base;
  shifted.alerts[0].fired_at += kSecond;
  const auto d1 = eo::diff_manifests(base, shifted, {});
  EXPECT_FALSE(d1.clean());

  // A missing alert is drift.
  eo::RunManifest missing = base;
  missing.alerts.clear();
  EXPECT_FALSE(eo::diff_manifests(base, missing, {}).clean());

  // A different rule firing is drift.
  eo::RunManifest renamed = base;
  renamed.alerts[0].rule = "other-rule";
  EXPECT_FALSE(eo::diff_manifests(base, renamed, {}).clean());
}

// ------------------------------------------------- flight-ring eviction

TEST(FlightRecorder, DigestIsStableAcrossRingWrap) {
  SimTime now = 0;
  eo::FlightRecorder small([&now] { return now; }, /*capacity=*/8);
  eo::FlightRecorder large([&now] { return now; }, /*capacity=*/1024);
  for (int i = 0; i < 50; ++i) {
    now = static_cast<SimTime>(i) * kSecond;
    small.record("test", "event", "t" + std::to_string(i));
    large.record("test", "event", "t" + std::to_string(i));
  }
  // The small ring wrapped (and counted) while the large one retained all —
  // yet the digest folds every event ever recorded, so they agree.
  EXPECT_EQ(small.events().size(), 8u);
  EXPECT_EQ(small.recorded(), 50u);
  EXPECT_EQ(small.evicted(), 42u);
  EXPECT_EQ(large.evicted(), 0u);
  EXPECT_EQ(small.digest(), large.digest());
  // The retained window is exactly the newest events, oldest first.
  EXPECT_EQ(small.events().front().target, "t42");
  EXPECT_EQ(small.events().back().target, "t49");
  // A difference in an evicted event still changes the digest.
  now = 0;
  eo::FlightRecorder tampered([&now] { return now; }, 8);
  for (int i = 0; i < 50; ++i) {
    now = static_cast<SimTime>(i) * kSecond;
    tampered.record("test", "event",
                    i == 3 ? "DIFFERENT" : "t" + std::to_string(i));
  }
  EXPECT_NE(tampered.digest(), small.digest());
}

// --------------------------------------------- sim-clock determinism

namespace {

// A self-contained simulated workload: a counter climbing at 10/s with an
// error burst and a queue-depth step mid-run, sampled by start_telemetry
// and watched by one rule of each kind.  Returns the run's telemetry story.
struct ReplayOutcome {
  std::vector<eo::AlertRecord> alerts;
  std::uint64_t flight_digest = 0;
  std::uint64_t samples_total = 0;
  std::string alert_events;  // "name@t;" per alert.* flight event, in order
};

ReplayOutcome run_replay_world(std::uint64_t seed) {
  es::Simulation sim{seed};
  auto& good = sim.metrics().counter("requests_total");
  auto& bad = sim.metrics().counter("errors_total");
  auto& depth = sim.metrics().gauge("queue_depth");
  depth.set(10.0);

  eo::BurnRateRule burn = ratio_rule();
  sim.alerts().add(burn);
  eo::AnomalyRule anomaly;
  anomaly.name = "depth-shift";
  anomaly.metric = "queue_depth";
  anomaly.min_sigma = 0.5;
  sim.alerts().add(anomaly);

  // Drive the workload on the simulated clock: one tick per second for
  // 300 s.  The seeded rng jitters nothing here on purpose — identical
  // seeds must reproduce identical alert timelines to the byte.
  for (int t = 1; t <= 300; ++t) {
    sim.schedule_at(static_cast<SimTime>(t) * kSecond, [&, t] {
      good.add(10);
      if (t > 120 && t <= 180) bad.add(5);
      depth.set(t >= 200 && t < 240 ? 16.0 : 10.0);
    });
  }
  sim.start_telemetry(kSecond);
  sim.run();

  ReplayOutcome out;
  out.alerts = sim.alerts().history();
  out.flight_digest = sim.flight_recorder().digest();
  out.samples_total = sim.telemetry().samples_total();
  for (const auto& e : sim.flight_recorder().events()) {
    if (e.category != "alert") continue;
    out.alert_events +=
        e.name + "@" + std::to_string(e.at) + ":" + e.target + ";";
  }
  return out;
}

}  // namespace

TEST(Replay, SameSeedRunsProduceByteIdenticalAlertTimelines) {
  const ReplayOutcome a = run_replay_world(7);
  const ReplayOutcome b = run_replay_world(7);
  // Both detector families fired during the run.
  bool saw_burn = false;
  bool saw_anomaly = false;
  for (const auto& r : a.alerts) {
    saw_burn |= r.kind == eo::AlertKind::burn_rate;
    saw_anomaly |= r.kind == eo::AlertKind::anomaly;
    EXPECT_TRUE(r.resolved);  // workload recovers before the run ends
  }
  EXPECT_TRUE(saw_burn);
  EXPECT_TRUE(saw_anomaly);
  EXPECT_GT(a.samples_total, 0u);
  // Replay identity: alert timeline, flight digest and sample counts all
  // agree between the two same-seed runs — and the alert.* events appear
  // in the same order at the same sim-times.
  ASSERT_EQ(a.alerts.size(), b.alerts.size());
  for (std::size_t i = 0; i < a.alerts.size(); ++i) {
    EXPECT_EQ(a.alerts[i].rule, b.alerts[i].rule);
    EXPECT_EQ(a.alerts[i].fired_at, b.alerts[i].fired_at);
    EXPECT_EQ(a.alerts[i].resolved_at, b.alerts[i].resolved_at);
  }
  EXPECT_EQ(a.flight_digest, b.flight_digest);
  EXPECT_EQ(a.samples_total, b.samples_total);
  EXPECT_EQ(a.alert_events, b.alert_events);
  EXPECT_FALSE(a.alert_events.empty());
}

TEST(Replay, TelemetrySamplerDoesNotKeepTheSimulationAlive) {
  es::Simulation sim{1};
  auto& c = sim.metrics().counter("ticks_total");
  sim.schedule_at(5 * kSecond, [&] { c.add(); });
  sim.start_telemetry(kSecond);
  sim.run();  // must return: the sampler re-arms only while work remains
  EXPECT_GE(sim.now(), 5 * kSecond);
  EXPECT_LE(sim.now(), 7 * kSecond);
  EXPECT_GT(sim.telemetry().samples_total(), 0u);
}
