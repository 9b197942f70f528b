// Unit tests for the common module: units, results, strings, serialization,
// RNG determinism, statistics, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/bytebuf.hpp"
#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace ec = esg::common;

// ---------- units ----------

TEST(Units, RateConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(ec::to_mbps(ec::mbps(512.9)), 512.9);
  EXPECT_DOUBLE_EQ(ec::to_gbps(ec::gbps(1.55)), 1.55);
  EXPECT_DOUBLE_EQ(ec::mbps(1000.0), ec::gbps(1.0));
}

TEST(Units, TimeConversions) {
  EXPECT_EQ(ec::seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(ec::to_seconds(ec::kHour), 3600.0);
  EXPECT_EQ(ec::milliseconds(20), 20 * ec::kMillisecond);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(ec::format_bytes(230'800'000'000LL), "230.8 GB");
  EXPECT_EQ(ec::format_bytes(2'000'000'000LL), "2.0 GB");
  EXPECT_EQ(ec::format_bytes(512), "512 B");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(ec::format_rate(ec::gbps(1.55)), "1.55 Gb/s");
  EXPECT_EQ(ec::format_rate(ec::mbps(512.9)), "512.9 Mb/s");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(ec::format_time(ec::kHour + 2 * ec::kMinute + 3 * ec::kSecond),
            "1h02m03.000s");
  EXPECT_EQ(ec::format_time(1'500 * ec::kMillisecond), "1.500s");
}

// ---------- result ----------

TEST(Result, ValueAndError) {
  ec::Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  ec::Result<int> err(ec::Error{ec::Errc::not_found, "missing"});
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, ec::Errc::not_found);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Result, StatusVoid) {
  ec::Status st = ec::ok_status();
  EXPECT_TRUE(st.ok());
  ec::Status bad = ec::Error{ec::Errc::timed_out, "slow"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().to_string(), "timed_out: slow");
}

// ---------- strings ----------

TEST(Strings, SplitPreservesEmpty) {
  auto parts = ec::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitTrimmedDropsEmpty) {
  auto parts = ec::split_trimmed(" a , , b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(ec::trim("  x  "), "x");
  EXPECT_EQ(ec::to_lower("GridFTP"), "gridftp");
  EXPECT_TRUE(ec::iequals("LDAP", "ldap"));
  EXPECT_FALSE(ec::iequals("LDAP", "ldaps"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(ec::starts_with("gsiftp://host/path", "gsiftp://"));
  EXPECT_TRUE(ec::ends_with("file.ncx", ".ncx"));
  EXPECT_FALSE(ec::starts_with("a", "ab"));
}

TEST(Strings, Join) {
  EXPECT_EQ(ec::join({"lc=co2-1998", "rc=esg"}, ","), "lc=co2-1998,rc=esg");
  EXPECT_EQ(ec::join({}, ","), "");
}

struct WildcardCase {
  const char* pattern;
  const char* text;
  bool match;
};

// Print a case by its pattern and text: gtest would otherwise dump the
// struct's raw bytes, which hold pointers and so change from run to run,
// and the dump lands in the listed (and CTest-discovered) test names.
void PrintTo(const WildcardCase& c, std::ostream* os) {
  *os << "'" << c.pattern << "' vs '" << c.text << "'";
}

class WildcardTest : public ::testing::TestWithParam<WildcardCase> {};

TEST_P(WildcardTest, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(ec::wildcard_match(c.pattern, c.text), c.match)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, WildcardTest,
    ::testing::Values(
        WildcardCase{"*", "anything", true},
        WildcardCase{"", "", true},
        WildcardCase{"", "x", false},
        WildcardCase{"co2*", "co2.1998.ncx", true},
        WildcardCase{"*.ncx", "co2.1998.ncx", true},
        WildcardCase{"co2*1998*", "co2.jan.1998.ncx", true},
        WildcardCase{"co2*1999*", "co2.jan.1998.ncx", false},
        WildcardCase{"a*b*c", "abc", true},
        WildcardCase{"a*b*c", "axxbyyc", true},
        WildcardCase{"a*b*c", "acb", false}));

// ---------- bytebuf ----------

TEST(ByteBuf, RoundTripScalars) {
  ec::ByteWriter w;
  w.u8(7);
  w.u32(123456);
  w.i64(-99);
  w.f64(3.25);
  w.boolean(true);
  w.str("earth system grid");

  ec::ByteReader r(w.bytes());
  EXPECT_EQ(*r.u8(), 7);
  EXPECT_EQ(*r.u32(), 123456u);
  EXPECT_EQ(*r.i64(), -99);
  EXPECT_DOUBLE_EQ(*r.f64(), 3.25);
  EXPECT_TRUE(*r.boolean());
  EXPECT_EQ(*r.str(), "earth system grid");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuf, RoundTripVectors) {
  ec::ByteWriter w;
  w.str_vec({"a", "bb", ""});
  w.f64_vec({1.0, -2.5});
  ec::ByteReader r(w.bytes());
  auto sv = r.str_vec();
  ASSERT_TRUE(sv.ok());
  EXPECT_EQ(sv->size(), 3u);
  EXPECT_EQ((*sv)[1], "bb");
  auto dv = r.f64_vec();
  ASSERT_TRUE(dv.ok());
  EXPECT_DOUBLE_EQ((*dv)[1], -2.5);
}

TEST(ByteBuf, TruncationIsError) {
  ec::ByteWriter w;
  w.u32(10);  // claims a 10-byte string follows
  ec::ByteReader r(w.bytes());
  auto s = r.str();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ec::Errc::protocol_error);
}

TEST(ByteBuf, CountBeyondPayloadIsErrorNotAllocation) {
  // A 4-byte payload claiming 0xFFFFFFFF elements: reserving for that count
  // would throw std::bad_alloc instead of reporting a bad payload.
  ec::ByteWriter w;
  w.u32(0xFFFFFFFFu);
  ec::ByteReader strings(w.bytes());
  auto sv = strings.str_vec();
  ASSERT_FALSE(sv.ok());
  EXPECT_EQ(sv.error().code, ec::Errc::protocol_error);
  ec::ByteReader doubles(w.bytes());
  auto dv = doubles.f64_vec();
  ASSERT_FALSE(dv.ok());
  EXPECT_EQ(dv.error().code, ec::Errc::protocol_error);
}

TEST(ByteBuf, CountAcceptsExactlyWhatRemainingBytesHold) {
  ec::ByteWriter w;
  w.u32(3);
  w.raw("twelve bytes", 12);
  ec::ByteReader fits(w.bytes());
  auto n = fits.count(4);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  ec::ByteReader too_many(w.bytes());
  EXPECT_FALSE(too_many.count(5).ok());
}

TEST(ByteBuf, Fnv1aStableAndSensitive) {
  const auto h1 = ec::fnv1a64("gridftp");
  EXPECT_EQ(h1, ec::fnv1a64("gridftp"));
  EXPECT_NE(h1, ec::fnv1a64("gridftq"));
}

// ---------- rng ----------

TEST(Rng, DeterministicFromSeed) {
  ec::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  ec::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  ec::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  ec::Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, NormalMoments) {
  ec::Rng r(99);
  ec::OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  ec::Rng parent(5);
  ec::Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

// ---------- stats ----------

TEST(OnlineStats, MeanVarMinMax) {
  ec::OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Quantile, Basics) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(esg::common::quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(esg::common::quantile(v, 1.0), 10.0);
  EXPECT_NEAR(esg::common::quantile(v, 0.5), 6.0, 1.0);
}

TEST(SlidingWindow, EvictsOldest) {
  ec::SlidingWindow w(3);
  for (double v : {1.0, 2.0, 3.0, 4.0}) w.push(v);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
  EXPECT_DOUBLE_EQ(w.last(), 4.0);
}

TEST(SlidingWindow, Median) {
  ec::SlidingWindow w(5);
  for (double v : {5.0, 1.0, 9.0}) w.push(v);
  EXPECT_DOUBLE_EQ(w.median(), 5.0);
  w.push(7.0);
  EXPECT_DOUBLE_EQ(w.median(), 6.0);  // even count: average of middle two
}

// ---------- bandwidth sampler ----------

TEST(BandwidthSampler, ConstantRate) {
  ec::BandwidthSampler s(100 * ec::kMillisecond);
  // 10 MB/s for 10 seconds, recorded every 100 ms.
  for (int i = 0; i < 100; ++i) {
    s.record(i * 100 * ec::kMillisecond, 1'000'000);
  }
  EXPECT_EQ(s.total_bytes(), 100'000'000);
  EXPECT_NEAR(s.peak_rate(ec::kSecond), 1e7, 1e5);
  EXPECT_NEAR(s.average_rate(0, 10 * ec::kSecond), 1e7, 1e5);
}

TEST(BandwidthSampler, PeakExceedsSustained) {
  ec::BandwidthSampler s(100 * ec::kMillisecond);
  // One hot second inside a quiet minute.
  for (int i = 0; i < 600; ++i) {
    const ec::Bytes b = (i >= 300 && i < 310) ? 10'000'000 : 100'000;
    s.record(i * 100 * ec::kMillisecond, b);
  }
  const double peak1s = s.peak_rate(ec::kSecond);
  const double avg = s.average_rate(0, 60 * ec::kSecond);
  // Hot second: 100 MB/s; hour average ~2.65 MB/s -> ratio ~37x.
  EXPECT_GT(peak1s, 30.0 * avg);
}

TEST(BandwidthSampler, SeriesShape) {
  ec::BandwidthSampler s(ec::kSecond);
  s.record(0, 1000);
  s.record(5 * ec::kSecond, 2000);
  auto series = s.series();
  ASSERT_EQ(series.size(), 6u);
  EXPECT_DOUBLE_EQ(series[0].second, 1000.0);
  EXPECT_DOUBLE_EQ(series[1].second, 0.0);
  EXPECT_DOUBLE_EQ(series[5].second, 2000.0);
}

// ---------- thread pool ----------

TEST(ThreadPool, RunsSubmittedTasks) {
  ec::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(100);
  ec::ThreadPool::parallel_for(100, [&](std::size_t i) { hits[i]++; }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ec::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

// ---------- log ----------

TEST(Log, SinkCapturesAndLevelFilters) {
  std::vector<std::string> lines;
  ec::set_log_sink([&lines](const std::string& l) { lines.push_back(l); });
  ec::set_global_log_level(ec::LogLevel::info);

  ec::Logger log("test");
  log.debug("hidden");
  log.info("visible ", 42);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[INFO] [test] visible 42"), std::string::npos);

  ec::set_global_log_level(ec::LogLevel::warn);
  ec::set_log_sink(nullptr);
}

TEST(Log, BoundClockStampsSimulatedTime) {
  std::vector<std::string> lines;
  ec::set_log_sink([&lines](const std::string& l) { lines.push_back(l); });
  ec::set_global_log_level(ec::LogLevel::info);

  ec::SimTime now = 90 * ec::kSecond + 500 * ec::kMillisecond;
  ec::Logger log("rm");
  log.bind_clock([&now] { return now; });
  log.info("transfer started");
  now += ec::kMinute;
  log.info("transfer complete");

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("[1m30.500s] ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("[2m30.500s] ", 0), 0u) << lines[1];

  ec::set_global_log_level(ec::LogLevel::warn);
  ec::set_log_sink(nullptr);
}

TEST(Log, SinkAndLevelSwapsAreThreadSafe) {
  // Hammer set_log_sink()/set_global_log_level() against concurrent logging;
  // under the TSAN preset this is a data-race check, elsewhere a smoke test.
  std::atomic<bool> stop{false};
  std::atomic<int> delivered{0};
  std::thread writer([&] {
    ec::Logger log("hammer");
    while (!stop.load()) log.error("x");
  });
  for (int i = 0; i < 200; ++i) {
    ec::set_log_sink([&delivered](const std::string&) { ++delivered; });
    ec::set_global_log_level(i % 2 ? ec::LogLevel::error : ec::LogLevel::off);
  }
  stop.store(true);
  writer.join();
  ec::set_global_log_level(ec::LogLevel::warn);
  ec::set_log_sink(nullptr);
  EXPECT_GE(delivered.load(), 0);
}

// ---------- online stats: edges and merge ----------

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  ec::OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(OnlineStats, MergeMatchesSequentialFeed) {
  ec::OnlineStats all, left, right;
  const double xs[] = {1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0};
  for (int i = 0; i < 7; ++i) {
    all.add(xs[i]);
    (i < 3 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_DOUBLE_EQ(left.mean(), all.mean());
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeAfterResetAdoptsOther) {
  ec::OnlineStats a, b;
  a.add(1.0);
  a.add(2.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  // Merging an empty set is a no-op.
  ec::OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

// ---------- bandwidth sampler: interval splitting ----------

TEST(BandwidthSampler, RecordIntervalSplitsAcrossBuckets) {
  ec::BandwidthSampler s(ec::kSecond);
  // 3000 bytes spread over exactly three 1 s buckets.
  s.record_interval(0, 3 * ec::kSecond, 3000);
  const auto series = s.series();
  ASSERT_EQ(series.size(), 3u);
  for (const auto& [t, rate] : series) {
    (void)t;
    EXPECT_DOUBLE_EQ(rate, 1000.0);  // bytes/s
  }
  EXPECT_EQ(s.total_bytes(), 3000);
}

TEST(BandwidthSampler, RecordIntervalPartialOverlapKeepsTotalExact) {
  ec::BandwidthSampler s(ec::kSecond);
  // 700 bytes over [0.5 s, 2.5 s): shares 175/350/175 by overlap.
  s.record_interval(500 * ec::kMillisecond,
                    2 * ec::kSecond + 500 * ec::kMillisecond, 700);
  const auto series = s.series();
  ASSERT_EQ(series.size(), 3u);
  ec::Bytes sum = 0;
  for (const auto& [t, rate] : series) {
    (void)t;
    sum += static_cast<ec::Bytes>(rate + 0.5);
  }
  EXPECT_EQ(sum, 700);
  EXPECT_EQ(s.total_bytes(), 700);
  EXPECT_DOUBLE_EQ(series[1].second, 350.0);  // the fully covered bucket
}

TEST(BandwidthSampler, RecordIntervalZeroLengthFallsBackToPoint) {
  ec::BandwidthSampler s(ec::kSecond);
  s.record_interval(5 * ec::kSecond, 5 * ec::kSecond, 400);
  EXPECT_EQ(s.total_bytes(), 400);
  const auto series = s.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].second, 400.0);
}

TEST(BandwidthSampler, RecordIntervalNonMonotoneClampsToEpoch) {
  ec::BandwidthSampler s(ec::kSecond);
  s.record(10 * ec::kSecond, 100);  // establishes origin at 10 s
  // A retried transfer replaying an earlier window must not underflow; the
  // pre-epoch portion lands in the first bucket.
  s.record_interval(8 * ec::kSecond, 11 * ec::kSecond, 300);
  EXPECT_EQ(s.total_bytes(), 400);
  const auto series = s.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].second, 400.0);
}
