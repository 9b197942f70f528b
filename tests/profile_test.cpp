// Critical-path profiler tests: the exact-tiling invariant of the
// elementary-interval sweep (unit-level, on hand-built span trees), the
// event-driven gap classification (queue wait, backoff, breaker wait, tape
// staging), flamegraph export conservation, manifest round-tripping, drift
// detection, and the end-to-end decomposition of a real request-manager run
// with disk- and tape-resident files.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "scenario/star.hpp"
#include "hrm/hrm.hpp"
#include "obs/flame.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "rm/request_manager.hpp"

namespace eo = esg::obs;
namespace ec = esg::common;
namespace erm = esg::rm;
namespace est = esg::storage;
using ec::kMillisecond;
using ec::kSecond;
using ec::mbps;
using esg::scenario::UniformStar;

// Global operator new counts the bytes of every heap allocation, so a test
// below can bound what profiling a live trace allocates.  The tests are
// single-threaded.  Every replaceable form is defined, so that under ASan
// no block is allocated by one allocator and freed by another.
namespace {
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t size) noexcept {
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

namespace {

eo::SpanRecord make_span(eo::SpanId id, eo::SpanId parent, eo::TrackId track,
                         std::string name, ec::SimTime start, ec::SimTime end,
                         std::vector<std::pair<std::string, std::string>>
                             attrs = {}) {
  eo::SpanRecord rec;
  rec.id = id;
  rec.parent = parent;
  rec.track = track;
  rec.name = std::move(name);
  rec.start = start;
  rec.end = end;
  rec.attrs = std::move(attrs);
  return rec;
}

eo::FlightEvent make_event(ec::SimTime at, eo::TrackId track,
                           std::string name, std::string target,
                           std::vector<std::pair<std::string, std::string>>
                               attrs = {}) {
  eo::FlightEvent e;
  e.at = at;
  e.track = track;
  e.name = std::move(name);
  e.target = std::move(target);
  e.attrs = std::move(attrs);
  return e;
}

void expect_tiles(const eo::FileProfile& fp) {
  EXPECT_EQ(fp.category_sum(), fp.total()) << fp.file;
  // The critical path is contiguous and tiles [start, end] too.
  ASSERT_FALSE(fp.critical_path.empty()) << fp.file;
  EXPECT_EQ(fp.critical_path.front().start, fp.start) << fp.file;
  EXPECT_EQ(fp.critical_path.back().end, fp.end) << fp.file;
  for (std::size_t i = 0; i + 1 < fp.critical_path.size(); ++i) {
    EXPECT_EQ(fp.critical_path[i].end, fp.critical_path[i + 1].start)
        << fp.file << " step " << i;
  }
}

long long flame_total(const std::string& collapsed) {
  long long sum = 0;
  std::size_t pos = 0;
  while (pos < collapsed.size()) {
    const std::size_t eol = collapsed.find('\n', pos);
    const std::string line = collapsed.substr(pos, eol - pos);
    const std::size_t space = line.rfind(' ');
    if (space != std::string::npos) {
      sum += std::strtoll(line.c_str() + space + 1, nullptr, 10);
    }
    pos = eol == std::string::npos ? collapsed.size() : eol + 1;
  }
  return sum;
}

}  // namespace

// ------------------------------------------------- unit: the sweep itself

TEST(Profile, DeepestSpanWinsAndGapsClassify) {
  // rm.file [0,100] with lookup [20,30], transfer [30,90] wrapping a
  // net.tcp [40,80].  Before the first child is queue wait; uncovered
  // transfer/root remainder is overhead.
  std::vector<eo::SpanRecord> spans = {
      make_span(1, 0, 1, "rm.file", 0, 100,
                {{"file", "f.ncx"}, {"status", "ok"}}),
      make_span(2, 1, 1, "rm.lookup", 20, 30),
      make_span(3, 1, 1, "rm.transfer", 30, 90),
      make_span(4, 3, 1, "net.tcp", 40, 80),
  };
  const auto profile = eo::build_profile(spans, {}, 100);
  ASSERT_EQ(profile.files.size(), 1u);
  const auto& fp = profile.files[0];
  EXPECT_EQ(fp.file, "f.ncx");
  EXPECT_EQ(fp.span, 1u);
  EXPECT_FALSE(fp.failed);
  EXPECT_FALSE(fp.staged);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::queue_wait), 20);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::network), 40);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::overhead), 40);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::stage), 0);
  expect_tiles(fp);
  EXPECT_EQ(fp.dominant(), eo::ProfileCategory::network);
  EXPECT_EQ(profile.total, 100);
  EXPECT_EQ(profile.files_profiled, 1u);

  // The collapsed stacks carry the full chain and the synthetic gap leaves.
  const std::string flame = eo::to_collapsed_stacks(profile);
  EXPECT_NE(flame.find("rm.file;rm.transfer;net.tcp 40\n"),
            std::string::npos);
  EXPECT_NE(flame.find("rm.file;(queued) 20\n"), std::string::npos);
  EXPECT_EQ(flame_total(flame), 100);
}

TEST(Profile, BackoffWindowsAndBreakerWaitComeFromEvents) {
  std::vector<eo::SpanRecord> spans = {
      make_span(1, 0, 5, "rm.file", 0, 100, {{"file", "g.ncx"}}),
      make_span(2, 1, 5, "gridftp.get", 0, 10),
      make_span(3, 1, 5, "gridftp.get", 50, 60),
  };
  std::vector<eo::FlightEvent> events = {
      // 20 ns of scheduled retry sleep starting when the first attempt
      // fails; the host attr marks h1 as this file's candidate replica.
      make_event(10, 5, "retry.scheduled", "g.ncx",
                 {{"host", "h1"}, {"backoff_ns", "20"}}),
      // h1's breaker refuses traffic during [30,50]: with every candidate
      // open, the wait is breaker time, not generic overhead.
      make_event(30, 0, "breaker.open", "h1"),
      make_event(50, 0, "breaker.closed", "h1"),
  };
  const auto profile = eo::build_profile(spans, events, 100);
  ASSERT_EQ(profile.files.size(), 1u);
  const auto& fp = profile.files[0];
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::backoff), 20);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::breaker_wait), 20);
  // Two gridftp.get spans (20) + trailing root gap [60,100] (40).
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::overhead), 60);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::queue_wait), 0);
  expect_tiles(fp);
  // Path: get, (backoff), (breaker-wait), get, (overhead).
  ASSERT_EQ(fp.critical_path.size(), 5u);
  EXPECT_EQ(fp.critical_path[1].frame, "(backoff)");
  EXPECT_EQ(fp.critical_path[2].frame, "(breaker-wait)");
  EXPECT_EQ(fp.critical_path[3].span, 3u);
}

TEST(Profile, StageGapsSplitIntoStagingAndStageRetryBackoff) {
  std::vector<eo::SpanRecord> spans = {
      make_span(1, 0, 2, "rm.file", 0, 60, {{"file", "deep.ncx"}}),
      make_span(2, 1, 2, "hrm.stage", 0, 50),
      make_span(3, 2, 2, "hrm.stage.rpc", 0, 5),
  };
  std::vector<eo::FlightEvent> events = {
      make_event(10, 2, "stage.retry", "deep.ncx", {{"backoff_ns", "10"}}),
  };
  const auto profile = eo::build_profile(spans, events, 60);
  ASSERT_EQ(profile.files.size(), 1u);
  const auto& fp = profile.files[0];
  EXPECT_TRUE(fp.staged);
  // rpc [0,5] decides stage; hrm.stage gaps [5,10] and [20,50] are staging
  // time; [10,20] is the stage-retry sleep; [50,60] trailing overhead.
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::stage), 40);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::backoff), 10);
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::overhead), 10);
  EXPECT_EQ(fp.dominant(), eo::ProfileCategory::stage);
  expect_tiles(fp);
}

TEST(Profile, OpenRootSpansClampAtCaptureAndAreCounted) {
  std::vector<eo::SpanRecord> spans = {
      make_span(1, 0, 1, "rm.file", 10, -1, {{"file", "stuck.ncx"}}),
  };
  const auto profile = eo::build_profile(spans, {}, 110);
  ASSERT_EQ(profile.files.size(), 1u);
  const auto& fp = profile.files[0];
  EXPECT_TRUE(fp.clamped);
  EXPECT_EQ(fp.end, 110);
  EXPECT_EQ(profile.clamped_spans, 1u);
  // No children ever started: the whole clamped interval is queue wait.
  EXPECT_EQ(fp.self_time(eo::ProfileCategory::queue_wait), 100);
  expect_tiles(fp);
  EXPECT_NE(profile.render().find("truncated run"), std::string::npos);
}

TEST(Profile, FailedStatusAttrMarksTheFile) {
  std::vector<eo::SpanRecord> spans = {
      make_span(1, 0, 1, "rm.file", 0, 10,
                {{"file", "bad.ncx"}, {"status", "not_found: no replicas"}}),
  };
  const auto profile = eo::build_profile(spans, {}, 10);
  ASSERT_EQ(profile.files.size(), 1u);
  EXPECT_TRUE(profile.files[0].failed);
  EXPECT_NE(eo::render_critical_path(profile.files[0]).find("[failed]"),
            std::string::npos);
}

TEST(Profile, CategoryNamesRoundTrip) {
  for (int i = 0; i < eo::kProfileCategories; ++i) {
    const auto c = static_cast<eo::ProfileCategory>(i);
    EXPECT_EQ(eo::profile_category_from_name(eo::profile_category_name(c)),
              c);
  }
  EXPECT_EQ(eo::profile_category_from_name("nonsense"),
            eo::ProfileCategory::overhead);
}

// -------------------------------------------- end-to-end: a real rm world

namespace {

// Two disk sites plus a tape-backed HRM site; four disk files and one
// deep-archive file, fetched through the request manager one at a time
// (max_concurrent=1) so later files accrue real queue wait.
struct ProfiledWorld {
  UniformStar grid{{"lbnl", "isi"}};
  std::unique_ptr<erm::RequestManager> rm;
  std::vector<erm::FileRequest> wanted;

  ProfiledWorld() {
    esg::hrm::HrmConfig hcfg;
    hcfg.tape.drives = 1;
    hcfg.tape.mount_time = 20 * kSecond;
    hcfg.tape.avg_seek = 10 * kSecond;
    hcfg.tape.read_rate = mbps(200);
    grid.add_hrm(grid.add_server("hpss.lbl.gov", "lbnl"), hcfg);
    rm = std::make_unique<erm::RequestManager>(
        grid.orb, grid.client().local_host(), grid.make_catalog(),
        grid.make_mds_client(), grid.client(), nullptr);

    esg::scenario::Publication co2;
    co2.collection = "co2";
    esg::replica::LocationInfo lbnl;
    lbnl.name = "lbnl-disk";
    lbnl.hostname = "lbnl.host";
    lbnl.path = "co2";
    for (const char* f : {"jan.ncx", "feb.ncx", "mar.ncx", "apr.ncx"}) {
      co2.files.push_back({f, 20'000'000});
      lbnl.files.push_back(f);
    }
    co2.files.push_back({"deep.ncx", 20'000'000});
    esg::replica::LocationInfo mss;
    mss.name = "lbnl-hpss";
    mss.hostname = "hpss.lbl.gov";
    mss.path = "archive";
    mss.files = {"deep.ncx"};
    mss.storage_type = "mss";
    co2.locations = {lbnl, mss};
    esg::mds::NetworkRecord rec;
    rec.src_host = "lbnl.host";
    rec.dst_host = "client";
    rec.bandwidth = mbps(90);
    rec.latency = 10 * kMillisecond;
    co2.network = {rec};
    for (const auto& f : co2.files) wanted.push_back({"co2", f.name});
    grid.publish(co2);
    grid.sim.run();
    EXPECT_TRUE(grid.seeding_status().ok());
  }

  // Submits every file; `done` is set once all of them have landed.
  void submit(bool& done) {
    erm::RequestOptions opts;
    opts.transfer.buffer_size = 4 * ec::kMiB;
    opts.max_concurrent = 1;  // serialize => queue wait is real
    rm->submit(wanted, opts, [&done](erm::RequestResult r) {
      for (const auto& f : r.files) EXPECT_TRUE(f.status.ok()) << f.request.filename;
      done = true;
    });
  }

  eo::TimeWhereProfile run() {
    bool done = false;
    submit(done);
    grid.sim.run();
    EXPECT_TRUE(done);
    return eo::build_profile(grid.sim.tracer(), grid.sim.flight_recorder());
  }
};

}  // namespace

TEST(ProfileEndToEnd, TilingQueueWaitChecksumAndTapeDominance) {
  ProfiledWorld w;
  const auto profile = w.run();
  ASSERT_EQ(profile.files.size(), 5u);
  EXPECT_EQ(profile.dropped_spans, 0u);
  EXPECT_EQ(profile.clamped_spans, 0u);

  ec::SimDuration queue_total = 0;
  for (const auto& fp : profile.files) {
    expect_tiles(fp);
    EXPECT_FALSE(fp.failed) << fp.file;
    queue_total += fp.self_time(eo::ProfileCategory::queue_wait);
  }
  // max_concurrent=1: every file but the first waited in the admit queue.
  EXPECT_GT(queue_total, 0);

  // The tape file staged, and staging dominates its time-where.
  const eo::FileProfile* deep = profile.find("deep.ncx");
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(deep->staged);
  EXPECT_EQ(deep->dominant(), eo::ProfileCategory::stage);
  // Mount (20 s) + seek (10 s) floor the staging self-time.
  EXPECT_GE(deep->self_time(eo::ProfileCategory::stage), 30 * kSecond);

  // Checksum verification is real sim time now (20 MB at 1 GB/s = 20 ms
  // per file, five files).
  EXPECT_GE(profile.category_self[static_cast<int>(
                eo::ProfileCategory::checksum)],
            5 * 20 * ec::kMillisecond);
  // Data motion shows up as network time.
  EXPECT_GT(profile.category_self[static_cast<int>(
                eo::ProfileCategory::network)],
            0);

  // Aggregate conservation: categories tile the grand total, and the
  // flame export preserves it line by line.
  ec::SimDuration cat_total = 0;
  for (const auto d : profile.category_self) cat_total += d;
  EXPECT_EQ(cat_total, profile.total);
  EXPECT_EQ(flame_total(eo::to_collapsed_stacks(profile)),
            static_cast<long long>(profile.total));
  // Per-file zoom conserves that file's total too.
  EXPECT_EQ(flame_total(eo::to_collapsed_stacks(*deep, profile.root_span)),
            static_cast<long long>(deep->total()));

  // Exemplars reference real files and the render mentions the categories.
  ASSERT_FALSE(profile.exemplars.empty());
  for (const auto& ex : profile.exemplars) {
    EXPECT_NE(profile.find(ex.file), nullptr);
    EXPECT_GT(ex.span, 0u);
  }
  const std::string table = profile.render();
  EXPECT_NE(table.find("queue-wait"), std::string::npos);
  EXPECT_NE(table.find("deep.ncx"), std::string::npos);
}

TEST(ProfileEndToEnd, SameSeedRunsProfileByteIdentically) {
  ProfiledWorld w1;
  ProfiledWorld w2;
  const auto p1 = w1.run();
  const auto p2 = w2.run();
  EXPECT_EQ(eo::profile_to_json(p1), eo::profile_to_json(p2));
  EXPECT_EQ(eo::to_collapsed_stacks(p1), eo::to_collapsed_stacks(p2));
}

TEST(ProfileEndToEnd, ManifestRoundTripsProfileByteIdentically) {
  ProfiledWorld w;
  const auto profile = w.run();
  auto manifest = eo::capture_manifest(
      "profile-test", 7, "mini-grid", 0, w.grid.sim.flight_recorder(),
      w.grid.sim.metrics().snapshot(w.grid.sim.now()));
  eo::attach_profile(manifest, profile);
  ASSERT_TRUE(manifest.has_profile);

  const std::string json = manifest.to_json();
  const auto parsed = eo::RunManifest::from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().has_profile);
  EXPECT_EQ(parsed.value().to_json(), json);
  EXPECT_EQ(parsed.value().profile.files_profiled, profile.files_profiled);
  // A condensation-free round trip (5 files < the 64-row cap) keeps every
  // per-file row and the tiling invariant.
  ASSERT_EQ(parsed.value().profile.files.size(), profile.files.size());
  for (const auto& fp : parsed.value().profile.files) expect_tiles(fp);
  // Same-seed diff over the round-tripped manifests is clean.
  const auto diff =
      eo::diff_manifests(manifest, parsed.value(), eo::DriftTolerance{});
  EXPECT_TRUE(diff.clean()) << diff.render();
}

TEST(ProfileEndToEnd, DiffFlagsProfileDrift) {
  ProfiledWorld w;
  const auto profile = w.run();
  auto base = eo::capture_manifest(
      "profile-test", 7, "mini-grid", 0, w.grid.sim.flight_recorder(),
      w.grid.sim.metrics().snapshot(w.grid.sim.now()));
  eo::attach_profile(base, profile);

  // Halving the network self-time must trip the category comparison.
  auto drifted = base;
  drifted.profile
      .category_self[static_cast<int>(eo::ProfileCategory::network)] /= 2;
  const auto d1 = eo::diff_manifests(base, drifted, eo::DriftTolerance{});
  EXPECT_FALSE(d1.clean());
  EXPECT_NE(d1.render().find("profile:network"), std::string::npos);

  // Dropping the section entirely is a presence drift.
  auto missing = base;
  missing.has_profile = false;
  const auto d2 = eo::diff_manifests(base, missing, eo::DriftTolerance{});
  EXPECT_FALSE(d2.clean());
}

TEST(ProfileEndToEnd, CondensationKeepsExemplarRowsAndTrueCount) {
  ProfiledWorld w;
  const auto profile = w.run();
  auto manifest = eo::capture_manifest(
      "profile-test", 7, "mini-grid", 0, w.grid.sim.flight_recorder(),
      w.grid.sim.metrics().snapshot(w.grid.sim.now()));
  // In this 5-file world every file lands in some category's exemplar list,
  // so trim the exemplars to one file to give the tiny cap bite — in real
  // runs (thousands of files, ~21 exemplar slots) most rows are
  // unreferenced and drop out the same way.
  auto trimmed = profile;
  std::erase_if(trimmed.exemplars, [](const eo::TailExemplar& ex) {
    return ex.file != "deep.ncx";
  });
  ASSERT_FALSE(trimmed.exemplars.empty());
  // Force condensation: only exemplar-referenced rows stay, but the true
  // file count and the aggregate categories survive.
  eo::attach_profile(manifest, trimmed, /*max_files=*/1, /*max_steps=*/2);
  ASSERT_EQ(manifest.profile.files.size(), 1u);
  EXPECT_EQ(manifest.profile.files[0].file, "deep.ncx");
  EXPECT_EQ(manifest.profile.files_profiled, profile.files_profiled);
  EXPECT_EQ(manifest.profile.total, profile.total);
  for (const auto& fp : manifest.profile.files) {
    EXPECT_LE(fp.critical_path.size(), 2u);
  }
  // Condensed manifests still serialize/parse cleanly.
  const auto parsed = eo::RunManifest::from_json(manifest.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().to_json(), manifest.to_json());
}

TEST(ProfileEndToEnd, InPlaceMatchesACopiedTrace) {
  // Stop partway, so some rm.file spans are still open at capture.
  bool done = false;  // outlives the world, whose request may still run
  ProfiledWorld w;
  w.submit(done);
  w.grid.sim.run_until(w.grid.sim.now() + 5 * kSecond);
  ASSERT_FALSE(done);
  const eo::Tracer& tracer = w.grid.sim.tracer();
  const eo::FlightRecorder& recorder = w.grid.sim.flight_recorder();

  const auto in_place = eo::build_profile(tracer, recorder);
  ASSERT_EQ(in_place.files.size(), 5u);
  EXPECT_GT(in_place.clamped_spans, 0u);
  EXPECT_LT(in_place.clamped_spans, in_place.files.size());

  // The same profile over copies: the records with each open span closed
  // at the capture clock and flagged clamped, and the ring as a vector.
  const ec::SimTime at = tracer.now();
  std::vector<eo::SpanRecord> spans = tracer.spans();
  for (auto& rec : spans) {
    if (rec.open()) {
      rec.end = at;
      rec.clamped = true;
    }
  }
  const std::vector<eo::FlightEvent> events(recorder.events().begin(),
                                            recorder.events().end());
  auto copied = eo::build_profile(spans, events, at);
  copied.dropped_spans = tracer.dropped();
  EXPECT_EQ(eo::profile_to_json(in_place), eo::profile_to_json(copied));
  EXPECT_EQ(eo::to_collapsed_stacks(in_place),
            eo::to_collapsed_stacks(copied));
  // Reading clamped nothing in the tracer itself.
  std::size_t still_open = 0;
  for (const auto& rec : tracer.spans()) still_open += rec.open() ? 1 : 0;
  EXPECT_GE(still_open, in_place.clamped_spans);
}

TEST(ProfileEndToEnd, InPlaceAllocatesLessThanOneSpanCopy) {
  ProfiledWorld w;
  (void)w.run();
  const eo::Tracer& tracer = w.grid.sim.tracer();
  const eo::FlightRecorder& recorder = w.grid.sim.flight_recorder();
  const auto bytes_of = [](const auto& work) {
    const std::uint64_t from = g_alloc_bytes;
    work();
    return g_alloc_bytes - from;
  };

  std::vector<eo::SpanRecord> spans;
  const std::uint64_t copy_bytes =
      bytes_of([&] { spans = tracer.spans(); });
  const std::vector<eo::FlightEvent> events(recorder.events().begin(),
                                            recorder.events().end());
  eo::TimeWhereProfile profile;
  const std::uint64_t in_place_bytes =
      bytes_of([&] { profile = eo::build_profile(tracer, recorder); });
  ASSERT_EQ(profile.files.size(), 5u);
  // Copying the records, let alone twice, would cost at least copy_bytes.
  EXPECT_LT(in_place_bytes, copy_bytes)
      << "profile " << in_place_bytes << " B, one span copy " << copy_bytes
      << " B";
  // Profiling the live trace costs no more than profiling copies made
  // beforehand: the work is the same and nothing is copied inside.
  const std::uint64_t over_copies_bytes = bytes_of(
      [&] { profile = eo::build_profile(spans, events, tracer.now()); });
  EXPECT_LE(in_place_bytes, over_copies_bytes);
}
