// Observability subsystem tests: metrics registry semantics, sim-time span
// tracing, exporter well-formedness, snapshot determinism across same-seed
// runs, and the end-to-end instrumentation of the request path (rm ->
// gridftp -> net spans, plus the acceptance metric families).
//
// These tests carry the ctest label "obs" and are the suite the TSAN preset
// (`cmake --preset tsan && ctest --preset tsan-obs`) exercises.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "esg/testbed.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "rm/monitor.hpp"
#include "sim/simulation.hpp"

namespace eo = esg::obs;
namespace ee = esg::esg;
namespace ec = esg::common;
namespace erm = esg::rm;

using ec::kSecond;

namespace {

// Structural JSON check: braces/brackets balance outside of strings.
void expect_balanced_json(const std::string& s) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  eo::MetricsRegistry reg;
  auto& c = reg.counter("requests_total");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  auto& g = reg.gauge("depth");
  g.set(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  auto& h = reg.histogram("latency", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);  // two boundaries + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
}

TEST(HistogramQuantile, EmptyAndDegenerateInputsYieldZero) {
  EXPECT_DOUBLE_EQ(eo::histogram_quantile({}, {}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(eo::histogram_quantile({1.0, 2.0}, {0, 0, 0}, 0.99), 0.0);
  eo::Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // nothing observed yet
}

TEST(HistogramQuantile, InterpolatesInsideTheFirstBucketFromZero) {
  // One observation in [0, 10]: the median interpolates to the midpoint.
  eo::Histogram h({10.0, 20.0, 30.0});
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);  // rank = count: upper edge
}

TEST(HistogramQuantile, BucketEdgeObservationsLandInTheLowerBucket) {
  // Boundaries are inclusive upper edges: x == 10 counts in bucket [0,10],
  // so p100 is exactly the edge and p50 interpolates below it.
  eo::Histogram h({10.0, 20.0});
  for (int i = 0; i < 4; ++i) h.observe(10.0);
  const auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets[0], 4u);
  EXPECT_EQ(buckets[1], 0u);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(HistogramQuantile, InterpolatesAcrossInteriorBuckets) {
  // Buckets [0,1](1) (1,2](2) (2,4](1): rank 2 of 4 sits halfway through
  // the (1,2] bucket; rank 4 reaches the top of (2,4].
  eo::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.7);
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);  // rank 1: top of the [0,1] bucket
}

TEST(HistogramQuantile, OverflowRanksClampToTheLastBoundary) {
  eo::Histogram h({1.0, 2.0});
  h.observe(5.0);  // overflow bucket only
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
  // Mixed: half the mass in-range, half in overflow.
  eo::Histogram m({1.0, 2.0});
  m.observe(0.5);
  m.observe(5.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 1.0);  // rank 1: top of [0,1]
  EXPECT_DOUBLE_EQ(m.quantile(0.99), 2.0);
}

TEST(HistogramQuantile, ExtremeQuantilesClampToOccupiedBucketBounds) {
  // p=0 is the lower edge of the lowest non-empty bucket, p=1 the upper
  // edge of the highest — never a neighbouring empty bucket's edge.
  eo::Histogram h({1.0, 2.0, 4.0, 8.0});
  h.observe(1.5);  // (1,2]
  h.observe(3.0);  // (2,4]
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  // Mass in the first bucket: p=0 clamps to its lower edge, zero.
  eo::Histogram first({10.0, 20.0});
  first.observe(5.0);
  EXPECT_DOUBLE_EQ(first.quantile(0.0), 0.0);
  // Max in the overflow bucket: p=1 clamps to the last finite boundary
  // even when lower finite buckets are occupied.
  EXPECT_DOUBLE_EQ(eo::histogram_quantile({1.0, 2.0}, {3, 0, 5}, 1.0), 2.0);
  // Everything in the overflow bucket: both extremes clamp to the edge.
  EXPECT_DOUBLE_EQ(eo::histogram_quantile({1.0, 2.0}, {0, 0, 7}, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(eo::histogram_quantile({1.0, 2.0}, {0, 0, 7}, 1.0), 2.0);
  // Out-of-range p clamps into [0, 1] rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 4.0);
}

TEST(HistogramQuantile, ExtremeQuantilesAreExactForHugeCounts) {
  // Rank interpolation computes p*count in floating point; at counts near
  // 2^53 the extreme ranks round and used to escape the occupied buckets.
  // The clamped paths are pure integer scans, so they stay exact.
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  const std::uint64_t big = (1ull << 53) + 1;
  // Observed max sits in (1,2], yet the rank never "reaches" it once the
  // cumulative count rounds — interpolation used to fall through to the
  // last boundary (4.0), past every occupied bucket.
  EXPECT_DOUBLE_EQ(eo::histogram_quantile(bounds, {big, 1, 0, 0}, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(eo::histogram_quantile(bounds, {0, big, 1, 0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(eo::histogram_quantile(bounds, {1, big, 0, 0}, 0.0), 0.0);
}

TEST(HistogramQuantile, SnapshotEntryQuantileMatchesLiveHistogram) {
  eo::MetricsRegistry reg;
  auto& h = reg.histogram("stage_wait", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  const auto snap = reg.snapshot(0);
  const auto* e = snap.find("stage_wait");
  ASSERT_NE(e, nullptr);
  for (const double p : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(e->quantile(p), h.quantile(p)) << "p=" << p;
  }
}

TEST(MetricsRegistry, SameSeriesIsStableAndLabelsSeparate) {
  eo::MetricsRegistry reg;
  auto& a = reg.counter("bytes", {{"server", "x"}});
  auto& b = reg.counter("bytes", {{"server", "y"}});
  EXPECT_NE(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 0u);
  // Same name+labels resolves to the same instrument.
  EXPECT_EQ(&reg.counter("bytes", {{"server", "x"}}), &a);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(MetricsRegistry, LabelOrderIsNormalized) {
  eo::MetricsRegistry reg;
  auto& a = reg.counter("m", {{"b", "2"}, {"a", "1"}});
  auto& b = reg.counter("m", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, SnapshotIsSortedAndQueryable) {
  eo::MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha", {{"k", "v"}}).add(2);
  reg.gauge("alpha").set(9);  // same family name, different kind/labels
  reg.histogram("hist", {1.0}).observe(0.5);

  const auto snap = reg.snapshot(42);
  EXPECT_EQ(snap.at, 42);
  ASSERT_EQ(snap.entries.size(), 4u);
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LE(snap.entries[i - 1].name, snap.entries[i].name);
  }
  EXPECT_DOUBLE_EQ(snap.value_or("zeta", {}), 1.0);
  EXPECT_DOUBLE_EQ(snap.value_or("alpha", {{"k", "v"}}), 2.0);
  EXPECT_DOUBLE_EQ(snap.value_or("absent", {}, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(snap.family_total("alpha"), 11.0);
  const auto* h = snap.find("hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreExact) {
  // The TSAN preset runs this under -fsanitize=thread; in any build the
  // totals must still be exact.
  eo::MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      auto& c = reg.counter("hammer_total");
      auto& g = reg.gauge("hammer_gauge");
      auto& h = reg.histogram("hammer_hist", {0.5});
      for (int i = 0; i < kIters; ++i) {
        c.add();
        g.add(1.0);
        h.observe(i % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("hammer_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(reg.gauge("hammer_gauge").value(),
                   static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("hammer_hist", {0.5}).count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, NestingAndParentInference) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; });
  {
    auto outer = tracer.span("outer", "test");
    now = 10;
    auto inner = tracer.span("inner", "test");
    now = 20;
    inner.end();
    now = 30;
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].start, 10);
  EXPECT_EQ(spans[1].end, 20);
  EXPECT_EQ(spans[0].end, 30);
}

TEST(Tracer, TracksIsolateOpenStacks) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; });
  const auto t1 = tracer.new_track("file a");
  const auto t2 = tracer.new_track("file b");
  auto a = tracer.span("a", "", t1);
  auto b = tracer.span("b", "", t2);
  auto a_child = tracer.span("a.child", "", t1);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].parent, spans[0].id);  // nests under a, not b
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(tracer.tracks().at(t1), "file a");
}

TEST(Tracer, DropsNewestWhenFullAndCounts) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; }, /*max_spans=*/2);
  auto a = tracer.span("a");
  auto b = tracer.span("b");
  auto c = tracer.span("c");  // dropped
  EXPECT_FALSE(static_cast<bool>(c));
  c.set_attr("k", "v");  // no-op, must not crash
  c.end();
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(Tracer, ChromeTraceIsWellFormed) {
  ec::SimTime now = 1500;
  eo::Tracer tracer([&now] { return now; });
  eo::FlightRecorder recorder([&now] { return now; });
  const auto track = tracer.new_track("worker");
  auto sp = tracer.span("op \"quoted\"", "cat", track);
  sp.set_attr("key", "va\"lue");
  recorder.record("gridftp", "attempt.begin", "f.ncx", {{"attempt", "1"}},
                  track);
  now = 2500;
  sp.end();
  auto open = tracer.span("still-open", "cat", track);

  const std::string json = eo::to_chrome_trace(tracer, recorder);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // ts is 1500 ns -> 1.500 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("va\\\"lue"), std::string::npos);
  // The still-open span is clamped at the capture clock and marked.
  EXPECT_NE(json.find("\"clamped\":\"true\""), std::string::npos);

  // The flight event is an instant marker on the span's track, one event
  // per line, carrying its target and attributes.
  const std::size_t marker = json.find("\"ph\":\"i\"");
  ASSERT_NE(marker, std::string::npos);
  const std::size_t begin = json.rfind('\n', marker);
  const std::string line = json.substr(begin, json.find('\n', marker) - begin);
  EXPECT_NE(line.find("\"name\":\"attempt.begin\",\"cat\":\"gridftp\""),
            std::string::npos);
  EXPECT_NE(line.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(line.find("\"tid\":" + std::to_string(track) + ","),
            std::string::npos);
  EXPECT_NE(line.find("\"target\":\"f.ncx\",\"attempt\":\"1\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"i\"", marker + 1), std::string::npos);
}

TEST(Tracer, ReadersClampOpenSpansAtCaptureClock) {
  ec::SimTime now = 100;
  eo::Tracer tracer([&now] { return now; });
  eo::FlightRecorder recorder([&now] { return now; });
  auto finished = tracer.span("rm.file", "rm", tracer.new_track("a"));
  finished.set_attr("file", "finished.ncx");
  now = 200;
  finished.end();
  auto open = tracer.span("rm.file", "rm", tracer.new_track("b"));
  open.set_attr("file", "open.ncx");
  now = 350;

  // The Chrome trace: the open span lasts to the capture clock, 150 ns
  // from its start at 200, and carries the flag; the finished one not.
  const std::string json = eo::to_chrome_trace(tracer, recorder);
  const auto event_of = [&json](const std::string& file) {
    const std::size_t at = json.find("\"file\":\"" + file + "\"");
    if (at == std::string::npos) return std::string();
    const std::size_t begin = json.rfind('\n', at);
    return json.substr(begin, json.find('\n', at) - begin);
  };
  const std::string closed_event = event_of("finished.ncx");
  const std::string open_event = event_of("open.ncx");
  EXPECT_NE(closed_event.find("\"dur\":0.100"), std::string::npos);
  EXPECT_EQ(closed_event.find("clamped"), std::string::npos);
  EXPECT_NE(open_event.find("\"dur\":0.150"), std::string::npos);
  EXPECT_NE(open_event.find("\"clamped\":\"true\""), std::string::npos);

  // The profile: the open root ends at the capture clock, flagged.
  const auto profile = eo::build_profile(tracer, recorder);
  EXPECT_EQ(profile.at, 350);
  EXPECT_EQ(profile.clamped_spans, 1u);
  const eo::FileProfile* closed_file = profile.find("finished.ncx");
  const eo::FileProfile* open_file = profile.find("open.ncx");
  ASSERT_NE(closed_file, nullptr);
  ASSERT_NE(open_file, nullptr);
  EXPECT_EQ(closed_file->end, 200);
  EXPECT_FALSE(closed_file->clamped);
  EXPECT_EQ(open_file->end, 350);  // capture clock, not -1
  EXPECT_TRUE(open_file->clamped);
  EXPECT_EQ(open_file->total(), 150);

  // Neither reader touched the live record: the span is still open.
  EXPECT_TRUE(tracer.spans()[1].open());
}

TEST(Tracer, ParentInferenceSurvivesAnEmptiedTrack) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; });
  const auto track = tracer.new_track("worker");
  // Out-of-order ends empty the track's open stack...
  const auto outer = tracer.begin("outer", "", track);
  const auto inner = tracer.begin("inner", "", track);
  tracer.end(outer);
  tracer.end(inner);
  tracer.end(inner);  // ending twice is still a no-op
  // ...and the spans begun after it nest only under each other.
  const auto next = tracer.begin("next", "", track);
  const auto child = tracer.begin("child", "", track);
  tracer.end(child);
  const auto sibling = tracer.begin("sibling", "", track);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[inner - 1].parent, outer);
  EXPECT_EQ(spans[next - 1].parent, 0u);
  EXPECT_EQ(spans[child - 1].parent, next);
  EXPECT_EQ(spans[sibling - 1].parent, next);
}

TEST(Tracer, DropHookReportsRunningTotalAndCapacityGrows) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; }, /*max_spans=*/1);
  std::vector<std::size_t> totals;
  tracer.set_drop_hook([&](std::size_t total) { totals.push_back(total); });
  auto a = tracer.span("a");
  auto b = tracer.span("b");  // dropped
  auto c = tracer.span("c");  // dropped
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0], 1u);
  EXPECT_EQ(totals[1], 2u);
  tracer.set_capacity(8);
  auto d = tracer.span("d");  // fits again
  EXPECT_TRUE(static_cast<bool>(d));
  EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(Tracer, SimulationSurfacesDropsAsGauge) {
  esg::sim::Simulation sim{1};
  // A clean run must not even create the series (snapshots stay
  // byte-identical with pre-gauge baselines).
  EXPECT_EQ(sim.metrics().snapshot(0).value_or("obs_trace_dropped", {}),
            0.0);
  sim.tracer().set_capacity(1);
  auto a = sim.tracer().span("a");
  auto b = sim.tracer().span("b");  // dropped -> gauge appears
  EXPECT_EQ(sim.metrics().snapshot(0).value_or("obs_trace_dropped", {}),
            1.0);
}

// ------------------------------------------------------- span move hygiene

TEST(Span, MoveAssignEndsTheOverwrittenSpan) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; });
  auto a = tracer.span("a");
  now = 10;
  auto b = tracer.span("b");
  now = 20;
  a = std::move(b);  // "a" must end now, not leak open
  const auto spans = tracer.spans();
  EXPECT_EQ(spans[0].end, 20);
  EXPECT_TRUE(spans[1].open());
  EXPECT_EQ(a.id(), spans[1].id);
}

TEST(Span, SelfMoveAssignIsANoOp) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; });
  auto a = tracer.span("a");
  // Via a pointer so the self-move is invisible to -Wself-move.
  eo::Span* alias = &a;
  a = std::move(*alias);
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_TRUE(tracer.spans()[0].open());  // still open, not self-ended
}

TEST(Span, DoubleEndAndMovedFromDestructionAreHarmless) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; });
  {
    auto a = tracer.span("a");
    now = 5;
    a.end();
    now = 9;
    a.end();  // second end must not move the timestamp
    eo::Span b = std::move(a);
    (void)b;
    // both a (moved-from) and b (already ended) destruct here
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end, 5);
}

TEST(Tracer, ExplicitParentCrossesTracks) {
  ec::SimTime now = 0;
  eo::Tracer tracer([&now] { return now; });
  const auto t1 = tracer.new_track("request");
  const auto t2 = tracer.new_track("io pool");
  const auto root = tracer.begin("request", "", t1);
  // Work handed to another track keeps its causal parent when given
  // explicitly; inference only consults the *local* open stack.
  const auto remote = tracer.begin("io", "", t2, root);
  const auto inferred = tracer.begin("io.child", "", t2);
  tracer.end(inferred);
  tracer.end(remote);
  tracer.end(root);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].track, t2);
  EXPECT_EQ(spans[2].parent, spans[1].id);  // inferred from t2's stack
}

// --------------------------------------------------------------- exporters

TEST(Exporters, PrometheusTextFormat) {
  eo::MetricsRegistry reg;
  reg.counter("bytes_total", {{"server", "s1"}}).add(10);
  reg.gauge("depth").set(2.5);
  auto& h = reg.histogram("wait_seconds", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(30.0);

  const std::string text = eo::to_prometheus_text(reg.snapshot(0));
  EXPECT_NE(text.find("# TYPE bytes_total counter"), std::string::npos);
  EXPECT_NE(text.find("bytes_total{server=\"s1\"} 10"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth 2.5"), std::string::npos);
  // Cumulative le buckets ending with +Inf, plus _sum and _count.
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"5\"} 2"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("wait_seconds_sum 33.5"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_count 3"), std::string::npos);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  // The exposition format requires \\, \" and \n escapes inside label
  // values; a path or error-message label with any of them used to emit an
  // unparseable line.
  eo::MetricsRegistry reg;
  reg.counter("weird_total", {{"path", "dir\\file \"x\"\nnext"}}).add(1);
  const std::string text = eo::to_prometheus_text(reg.snapshot(0));
  EXPECT_NE(text.find("path=\"dir\\\\file \\\"x\\\"\\nnext\""),
            std::string::npos);
  // No raw newline may survive inside a sample line.
  const auto pos = text.find("weird_total{");
  ASSERT_NE(pos, std::string::npos);
  const auto line_end = text.find('\n', pos);
  const std::string line = text.substr(pos, line_end - pos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("} 1"), std::string::npos);
}

TEST(Exporters, JsonSnapshotIsWellFormed) {
  eo::MetricsRegistry reg;
  reg.counter("c", {{"k", "v\"w"}}).add(1);
  reg.histogram("h", {1.0}).observe(2.0);
  const std::string json = eo::to_json(reg.snapshot(77));
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"sim_time_ns\":77"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("v\\\"w"), std::string::npos);
}

// ---------------------------------------------------- monitor log sentinel

TEST(TransferMonitor, LogOverflowLeavesDroppedSentinel) {
  erm::TransferMonitor monitor;
  for (int i = 0; i < 250; ++i) {
    monitor.file_queued("file-" + std::to_string(i), 1000, i * kSecond);
  }
  // Capacity is 200: the sentinel occupies the front slot and counts both
  // the lines it displaced and every later eviction.
  EXPECT_EQ(monitor.log().size(), 200u);
  EXPECT_EQ(monitor.dropped_log_lines(), 51u);
  EXPECT_EQ(monitor.log().front(), "... 51 earlier lines dropped");
  EXPECT_NE(monitor.log().back().find("file-249"), std::string::npos);
  // The oldest surviving real line follows the sentinel contiguously.
  EXPECT_NE(monitor.log()[1].find("file-51"), std::string::npos);
}

TEST(TransferMonitor, BoundRegistryCountsEvents) {
  eo::MetricsRegistry reg;
  erm::TransferMonitor monitor;
  monitor.bind_registry(&reg);
  monitor.file_queued("f", 10, 0);
  monitor.transfer_started("f", "h", kSecond);
  monitor.transfer_complete("f", 10, 2 * kSecond);
  const auto snap = reg.snapshot(0);
  EXPECT_DOUBLE_EQ(
      snap.value_or("monitor_events_total", {{"event", "file_queued"}}), 1.0);
  EXPECT_DOUBLE_EQ(
      snap.value_or("monitor_events_total", {{"event", "transfer_complete"}}),
      1.0);
}

// ----------------------------------------------- end-to-end instrumentation

namespace {

struct ScenarioResult {
  std::string metrics_json;
  std::string trace_json;
  std::vector<eo::SpanRecord> spans;
  eo::MetricsSnapshot snapshot;
};

// A full testbed pass: publish a 2-chunk dataset (also archived on tape),
// warm the NWS sensors, stage one file through the HRM twice (miss + hit),
// then fetch both chunks through the request manager.
ScenarioResult run_scenario() {
  ee::TestbedConfig cfg;
  cfg.grid = esg::climate::GridSpec{18, 36};
  cfg.sensor_period = 30 * kSecond;
  ee::EsgTestbed testbed(cfg);

  ee::DatasetSpec spec;
  spec.name = "obs-e2e";
  spec.start_month = 36;
  spec.n_months = 12;
  spec.months_per_file = 6;
  spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov"};
  spec.archive_on_tape = true;
  EXPECT_TRUE(testbed.publish_dataset(spec).ok());
  testbed.start_sensors(3);

  // HRM: first stage misses (tape), the repeat hits the disk cache.
  const std::string archived = "archive/obs-e2e/obs-e2e.36-42.ncx";
  for (int round = 0; round < 2; ++round) {
    bool staged = false;
    testbed.hrm().stage(archived, [&staged](ec::Result<ec::Bytes> r) {
      EXPECT_TRUE(r.ok());
      staged = true;
    });
    EXPECT_TRUE(testbed.run_until_flag(staged));
  }

  erm::RequestOptions options;
  options.transfer.parallelism = 2;
  bool done = false;
  erm::RequestResult result;
  testbed.request_manager().submit(
      {{"obs-e2e", "obs-e2e.36-42.ncx"}, {"obs-e2e", "obs-e2e.42-48.ncx"}},
      options, [&](erm::RequestResult r) {
        result = std::move(r);
        done = true;
      });
  EXPECT_TRUE(testbed.run_until_flag(done));
  EXPECT_TRUE(result.status.ok());
  testbed.stop_sensors();

  ScenarioResult out;
  out.snapshot = testbed.sim.metrics().snapshot(testbed.sim.now());
  out.metrics_json = eo::to_json(out.snapshot);
  out.trace_json =
      eo::to_chrome_trace(testbed.sim.tracer(), testbed.sim.flight_recorder());
  out.spans = testbed.sim.tracer().spans();
  return out;
}

const eo::SpanRecord* find_parent(const std::vector<eo::SpanRecord>& spans,
                                  const eo::SpanRecord& child) {
  if (child.parent == 0 || child.parent > spans.size()) return nullptr;
  return &spans[child.parent - 1];
}

}  // namespace

TEST(ObsEndToEnd, RequestPathMetricsAndSpans) {
  const ScenarioResult run = run_scenario();

  // Acceptance metric families, all present and live.
  const auto& snap = run.snapshot;
  EXPECT_NE(snap.find("rm_queue_depth"), nullptr);
  EXPECT_NE(snap.find("rm_active_workers"), nullptr);
  EXPECT_GT(snap.family_total("rm_files_completed_total"), 0.0);
  EXPECT_GT(snap.family_total("gridftp_channel_bytes_total"), 0.0);
  EXPECT_GT(snap.family_total("rm_replica_selected_total"), 0.0);
  // The manual stage pair guarantees one miss and one hit; the request
  // manager may stage more through the HRM (the dataset is tape-archived).
  EXPECT_GE(snap.value_or("hrm_cache_hits_total", {}), 1.0);
  EXPECT_GE(snap.value_or("hrm_cache_misses_total", {}), 1.0);
  const auto* stage_wait = snap.find("hrm_stage_wait_seconds");
  ASSERT_NE(stage_wait, nullptr);
  EXPECT_GE(stage_wait->count, 2u);

  bool have_utilization = false;
  bool have_forecast_error = false;
  for (const auto& e : run.snapshot.entries) {
    if (e.name == "net_resource_utilization") have_utilization = true;
    if (e.name == "nws_forecast_error" && e.count > 0) {
      have_forecast_error = true;
    }
  }
  EXPECT_TRUE(have_utilization);
  EXPECT_TRUE(have_forecast_error);

  // Span nesting: a net.tcp span on a worker track chains up through
  // gridftp.get -> rm.transfer -> rm.file.
  bool found_chain = false;
  for (const auto& span : run.spans) {
    if (span.name != "net.tcp" || span.track == 0) continue;
    const auto* ftp = find_parent(run.spans, span);
    if (ftp == nullptr || ftp->name != "gridftp.get") continue;
    const auto* transfer = find_parent(run.spans, *ftp);
    if (transfer == nullptr || transfer->name != "rm.transfer") continue;
    const auto* file = find_parent(run.spans, *transfer);
    if (file == nullptr || file->name != "rm.file") continue;
    EXPECT_EQ(ftp->track, span.track);
    EXPECT_EQ(file->track, span.track);
    found_chain = true;
    break;
  }
  EXPECT_TRUE(found_chain);

  expect_balanced_json(run.metrics_json);
  expect_balanced_json(run.trace_json);
}

TEST(ObsEndToEnd, SameSeedRunsExportIdentically) {
  const ScenarioResult a = run_scenario();
  const ScenarioResult b = run_scenario();
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}
