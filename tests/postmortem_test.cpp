// Flight recorder, causal postmortems, run manifests, and the SLO /
// regression watchdog (DESIGN.md §9): the ring is bounded and digested,
// same-seed chaos runs serialize to byte-identical manifests, an injected
// brownout is traced back to the faulted link, corruption injections are
// matched to the mismatches that consumed them in order, per-phase
// attribution tiles the rm.file span exactly (and a file with no terminal
// event ends at the last recorded one), and SLO / drift verdicts behave as
// golden.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "scenario/star.hpp"
#include "obs/manifest.hpp"
#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "rm/request_manager.hpp"
#include "sim/chaos.hpp"

namespace ec = esg::common;
namespace eo = esg::obs;
namespace erm = esg::rm;
namespace es = esg::sim;
using ec::kMillisecond;
using ec::kSecond;
using ec::mbps;
using esg::scenario::UniformStar;

// ---------- FlightRecorder ----------

TEST(FlightRecorder, RingEvictsOldestAndDigestCoversEverything) {
  ec::SimTime now = 0;
  eo::FlightRecorder rec([&now] { return now; }, 4);
  std::vector<std::uint64_t> digests{rec.digest()};
  for (int i = 0; i < 6; ++i) {
    now = i * kSecond;
    rec.record("test", "event." + std::to_string(i), "t");
    digests.push_back(rec.digest());
  }
  EXPECT_EQ(rec.events().size(), 4u);   // ring keeps the newest four
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.evicted(), 2u);
  EXPECT_EQ(rec.events().front().seq, 2u);
  EXPECT_EQ(rec.events().front().name, "event.2");
  EXPECT_EQ(rec.events().back().seq, 5u);
  // Every record (including the ones later evicted) moved the digest.
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_NE(digests[i], digests[i - 1]);
  }
}

TEST(FlightRecorder, AttrsAndQueries) {
  ec::SimTime now = 0;
  eo::FlightRecorder rec([&now] { return now; });
  now = 5 * kSecond;
  rec.record("rm", "file.queued", "jan.ncx", {{"host", "lbnl.host"}}, 3);
  now = 9 * kSecond;
  rec.record("net", "link.down", "uplink");
  const auto& e = rec.events().front();
  EXPECT_EQ(e.attr("host"), "lbnl.host");
  EXPECT_EQ(e.attr("absent"), "");
  EXPECT_EQ(rec.for_target("jan.ncx").size(), 1u);
  EXPECT_EQ(rec.for_track(3).size(), 1u);
  EXPECT_EQ(rec.in_window(0, 6 * kSecond).size(), 1u);
  EXPECT_EQ(rec.in_window(0, 10 * kSecond).size(), 2u);
}

// ---------- end-to-end: brownout postmortem + manifest determinism ----------

namespace {

constexpr ec::Bytes kBigFile = 200'000'000;

struct BrownoutRun {
  bool ok = false;
  std::uint64_t digest = 0;
  std::uint64_t timeline_hash = 0;
  std::string manifest_json;
  eo::RunManifest manifest;
  eo::Postmortem pm;
  ec::SimDuration span_duration = -1;  // the closed rm.file tracer span
};

// One large replicated file fetched through the request manager while the
// preferred (lbnl) uplink browns out to 2 Mb/s; the rate monitor abandons
// the slow replica and the transfer finishes from isi.  `brownout_start`
// perturbs the fault plan so runs can be made intentionally different.
BrownoutRun brownout_run(ec::SimTime brownout_start) {
  UniformStar grid{{"lbnl", "isi"}};
  esg::scenario::Publication co2;
  co2.collection = "co2-1998";
  co2.files = {{"big.ncx", kBigFile}};
  for (const char* host : {"lbnl.host", "isi.host"}) {
    esg::replica::LocationInfo loc;
    loc.name = std::string(host) + "-disk";
    loc.hostname = host;
    loc.path = "co2";
    loc.files = {"big.ncx"};
    co2.locations.push_back(loc);
  }
  esg::mds::NetworkRecord rec;
  rec.src_host = "lbnl.host";
  rec.dst_host = "client";
  rec.bandwidth = mbps(90);  // lbnl forecast fastest: ranked first
  rec.latency = 10 * kMillisecond;
  co2.network.push_back(rec);
  rec.src_host = "isi.host";
  rec.bandwidth = mbps(30);
  co2.network.push_back(rec);
  grid.publish(co2);
  grid.sim.run();
  EXPECT_TRUE(grid.seeding_status().ok());

  es::FaultInjector inj{11};
  inj.add({es::FaultKind::brownout, "lbnl-uplink", brownout_start,
           60 * kSecond, 0.02, "backhoe through the fiber"});
  inj.arm(grid.sim, grid.fault_hooks());

  erm::TransferMonitor monitor;
  erm::RequestManager rm(grid.orb, grid.client().local_host(),
                         grid.make_catalog(), grid.make_mds_client(),
                         grid.client(), &monitor);
  erm::RequestOptions o;
  o.transfer.buffer_size = 4 * ec::kMiB;
  o.transfer.parallelism = 2;
  o.reliability.retry_backoff = 2 * kSecond;
  o.reliability.jitter = 0.0;
  o.reliability.min_rate = mbps(5);  // brownout leaves 2 Mb/s: abandon
  o.reliability.eval_window = 5 * kSecond;

  BrownoutRun out;
  out.timeline_hash = inj.timeline_hash();
  rm.submit({{"co2-1998", "big.ncx"}}, o, [&out](erm::RequestResult r) {
    out.ok = r.status.ok();
  });
  grid.sim.run();

  out.digest = grid.sim.flight_recorder().digest();
  out.manifest = eo::capture_manifest(
      "postmortem-test", 11, "star: client-site/hub/lbnl/isi",
      inj.timeline_hash(), grid.sim.flight_recorder(),
      grid.sim.metrics().snapshot(grid.sim.now()));
  out.manifest_json = out.manifest.to_json();
  out.pm = eo::build_postmortem(grid.sim.flight_recorder(), "big.ncx");
  for (const auto& s : grid.sim.tracer().spans()) {
    if (s.name == "rm.file" && !s.open()) out.span_duration = s.duration();
  }
  return out;
}

}  // namespace

TEST(Postmortem, BrownoutIsNamedAsRootCause) {
  const auto run = brownout_run(2 * kSecond);
  ASSERT_TRUE(run.ok);
  const eo::Postmortem& pm = run.pm;
  ASSERT_TRUE(pm.found);
  EXPECT_FALSE(pm.failed);
  EXPECT_TRUE(pm.degraded);
  EXPECT_GE(pm.replica_switches, 1);
  EXPECT_EQ(pm.chosen_host, "isi.host");  // abandoned lbnl mid-brownout

  ASSERT_TRUE(pm.has_root_cause);
  EXPECT_EQ(pm.root_cause.category, "chaos");
  EXPECT_EQ(pm.root_cause.name, "fault.brownout.begin");
  EXPECT_EQ(pm.root_cause.target, "lbnl-uplink");
  EXPECT_EQ(pm.root_cause.at, 2 * kSecond);
  EXPECT_GE(pm.first_anomaly.at, pm.root_cause.at);
  EXPECT_EQ(pm.anomaly_lag, pm.first_anomaly.at - pm.root_cause.at);

  // The render names the link so a human postmortem reads causally.
  const std::string text = pm.render();
  EXPECT_NE(text.find("fault.brownout.begin lbnl-uplink"), std::string::npos);
}

TEST(Postmortem, PhaseAttributionTilesTheFileSpanExactly) {
  const auto run = brownout_run(2 * kSecond);
  ASSERT_TRUE(run.ok);
  const eo::Postmortem& pm = run.pm;
  ASSERT_TRUE(pm.found);
  ASSERT_FALSE(pm.phases.empty());
  // Slices are contiguous: each begins where the previous ended.
  EXPECT_EQ(pm.phases.front().start, pm.started);
  EXPECT_EQ(pm.phases.back().end, pm.finished);
  for (std::size_t i = 1; i < pm.phases.size(); ++i) {
    EXPECT_EQ(pm.phases[i].start, pm.phases[i - 1].end);
  }
  ec::SimDuration sum = 0;
  for (const auto& p : pm.phases) sum += p.duration();
  EXPECT_EQ(sum, pm.total());
  // ...and the total is the rm.file tracer span, tick for tick.
  ASSERT_GE(run.span_duration, 0);
  EXPECT_EQ(sum, run.span_duration);
}

TEST(Postmortem, SameSeedRunsProduceIdenticalManifests) {
  const auto a = brownout_run(2 * kSecond);
  const auto b = brownout_run(2 * kSecond);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.timeline_hash, b.timeline_hash);
  EXPECT_EQ(a.manifest_json, b.manifest_json);  // byte-identical

  const auto self = eo::diff_manifests(a.manifest, b.manifest, {});
  EXPECT_TRUE(self.clean()) << self.render();
  EXPECT_GT(self.series_compared, 0u);
}

TEST(Postmortem, PerturbedRunIsFlaggedByTheWatchdog) {
  const auto a = brownout_run(2 * kSecond);
  const auto c = brownout_run(4 * kSecond);  // fault plan moved: drift
  EXPECT_NE(a.digest, c.digest);
  EXPECT_NE(a.timeline_hash, c.timeline_hash);

  const auto diff = eo::diff_manifests(a.manifest, c.manifest, {});
  EXPECT_FALSE(diff.clean());
  bool saw_timeline = false, saw_digest = false;
  for (const auto& d : diff.drifts) {
    if (d.series == "fault_timeline_hash") saw_timeline = true;
    if (d.series == "flight_digest") saw_digest = true;
  }
  EXPECT_TRUE(saw_timeline) << diff.render();
  EXPECT_TRUE(saw_digest) << diff.render();
}

TEST(Postmortem, ManifestRoundTripsAndWorksOffline) {
  const auto run = brownout_run(2 * kSecond);
  ASSERT_TRUE(run.ok);
  auto parsed = eo::RunManifest::from_json(run.manifest_json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->to_json(), run.manifest_json);
  EXPECT_EQ(parsed->events.size(), run.manifest.events.size());
  EXPECT_EQ(parsed->flight_digest, run.digest);

  // The offline postmortem (what esg-report sees) tells the same story.
  const auto offline = eo::build_postmortem(*parsed, "big.ncx");
  EXPECT_EQ(offline.render(), run.pm.render());
  const auto degraded = eo::degraded_files(parsed->events);
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0], "big.ncx");
}

// Two corruption injections armed before either payload lands: the k-th
// checksum mismatch consumed the k-th injection, so each file's postmortem
// names its own.
TEST(Postmortem, ArmedCorruptionsAreConsumedInOrder) {
  ec::SimTime now = 0;
  eo::FlightRecorder rec([&now] { return now; });
  rec.record("rm", "file.queued", "a.ncx", {}, 1);
  rec.record("rm", "file.queued", "b.ncx", {}, 2);
  now = 1 * kSecond;
  rec.record("chaos", "fault.corruption", "client",
             {{"description", "first flip"}});
  now = 2 * kSecond;
  rec.record("chaos", "fault.corruption", "client",
             {{"description", "second flip"}});
  now = 30 * kSecond;
  rec.record("gridftp", "checksum.mismatch", "cache/a.ncx",
             {{"host", "lbnl.host"}}, 1);
  rec.record("gridftp", "corruption.refetch", "cache/a.ncx",
             {{"host", "lbnl.host"}}, 1);
  now = 40 * kSecond;
  rec.record("gridftp", "checksum.mismatch", "cache/b.ncx",
             {{"host", "isi.host"}}, 2);
  rec.record("gridftp", "corruption.refetch", "cache/b.ncx",
             {{"host", "isi.host"}}, 2);
  now = 60 * kSecond;
  rec.record("rm", "file.complete", "a.ncx", {{"attempts", "2"}}, 1);
  rec.record("rm", "file.complete", "b.ncx", {{"attempts", "2"}}, 2);

  const auto a = eo::build_postmortem(rec, "a.ncx");
  ASSERT_TRUE(a.has_root_cause);
  EXPECT_EQ(a.first_anomaly.name, "checksum.mismatch");
  EXPECT_EQ(a.root_cause.attr("description"), "first flip");
  EXPECT_EQ(a.anomaly_lag, 29 * kSecond);
  const auto b = eo::build_postmortem(rec, "b.ncx");
  ASSERT_TRUE(b.has_root_cause);
  EXPECT_EQ(b.root_cause.attr("description"), "second flip");
  EXPECT_EQ(b.anomaly_lag, 38 * kSecond);
}

// A stream with no file.complete/file.failed for a file (a capture taken
// mid-run): the file ends at the last recorded event and reads as in
// flight, with slices that stay non-negative and still tile its span.
TEST(Postmortem, UnfinishedFileEndsAtTheLastRecordedEvent) {
  const auto run = brownout_run(2 * kSecond);
  ASSERT_TRUE(run.ok);
  std::vector<eo::FlightEvent> events;
  for (const auto& e : run.manifest.events) {
    if (e.name != "file.complete") events.push_back(e);
  }
  ASSERT_EQ(events.size() + 1, run.manifest.events.size());

  const auto pm = eo::build_postmortem(events, "big.ncx");
  ASSERT_TRUE(pm.found);
  EXPECT_FALSE(pm.failed);
  EXPECT_EQ(pm.status, "in flight");
  EXPECT_EQ(pm.finished, events.back().at);
  EXPECT_GE(pm.finished, run.pm.finished);
  ASSERT_FALSE(pm.phases.empty());
  EXPECT_EQ(pm.phases.front().start, pm.started);
  EXPECT_EQ(pm.phases.back().end, pm.finished);
  ec::SimDuration sum = 0;
  for (std::size_t i = 0; i < pm.phases.size(); ++i) {
    EXPECT_GE(pm.phases[i].duration(), 0) << pm.phases[i].phase;
    if (i > 0) {
      EXPECT_EQ(pm.phases[i].start, pm.phases[i - 1].end);
    }
    sum += pm.phases[i].duration();
  }
  EXPECT_EQ(sum, pm.total());
  // The environment events of the file's life stay on its timeline.
  bool saw_lift = false;
  for (const auto& e : pm.timeline) {
    if (e.name == "fault.brownout.end") saw_lift = true;
  }
  EXPECT_TRUE(saw_lift);
  EXPECT_EQ(pm.root_cause.name, "fault.brownout.begin");
  const std::string text = pm.render();
  EXPECT_NE(text.find("— in flight, degraded"), std::string::npos) << text;
  EXPECT_EQ(text.find("— ok"), std::string::npos) << text;
}

// ---------- SLO rules ----------

TEST(Slo, ParsesRuleForms) {
  auto bare = eo::parse_slo_rule("rm_files_failed_total == 0");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->metric, "rm_files_failed_total");
  EXPECT_TRUE(bare->labels.empty());
  EXPECT_LT(bare->quantile, 0.0);
  EXPECT_EQ(bare->cmp, eo::SloCmp::eq);
  EXPECT_EQ(bare->threshold, 0.0);

  auto labeled = eo::parse_slo_rule("rm_breaker_open_total{host=lbnl.host} <= 2");
  ASSERT_TRUE(labeled.ok());
  EXPECT_EQ(labeled->metric, "rm_breaker_open_total");
  ASSERT_EQ(labeled->labels.size(), 1u);
  EXPECT_EQ(labeled->labels[0].first, "host");
  EXPECT_EQ(labeled->labels[0].second, "lbnl.host");
  EXPECT_EQ(labeled->cmp, eo::SloCmp::le);

  auto quant = eo::parse_slo_rule("p99(rm_file_duration_seconds) < 300");
  ASSERT_TRUE(quant.ok());
  EXPECT_EQ(quant->metric, "rm_file_duration_seconds");
  EXPECT_DOUBLE_EQ(quant->quantile, 0.99);
  EXPECT_EQ(quant->cmp, eo::SloCmp::lt);
  EXPECT_EQ(quant->threshold, 300.0);
}

TEST(Slo, RejectsMalformedRules) {
  EXPECT_FALSE(eo::parse_slo_rule("").ok());
  EXPECT_FALSE(eo::parse_slo_rule("no_comparison_here").ok());
  EXPECT_FALSE(eo::parse_slo_rule("foo < ").ok());
  EXPECT_FALSE(eo::parse_slo_rule("foo < twelve").ok());
  EXPECT_FALSE(eo::parse_slo_rule(" <= 3").ok());
  EXPECT_FALSE(eo::parse_slo_rule("p200(foo) < 1").ok());
  EXPECT_FALSE(eo::parse_slo_rule("foo{host=a < 1").ok());
}

TEST(Slo, GoldenVerdicts) {
  eo::MetricsRegistry reg;
  reg.counter("failed_total").add(2);
  reg.counter("bytes_total", {{"host", "a"}}).add(1);
  reg.counter("bytes_total", {{"host", "b"}}).add(3);
  auto& h = reg.histogram("lat_seconds", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.7);
  h.observe(3.0);
  const auto snap = reg.snapshot(0);

  std::vector<eo::SloRule> rules;
  for (const char* text : {
           "failed_total == 2",           // pass
           "failed_total < 2",            // FAIL
           "bytes_total == 4",            // pass: family sum over hosts
           "bytes_total{host=b} >= 3",    // pass: one series
           "p50(lat_seconds) <= 1.5",     // pass: interpolated median
           "p99(lat_seconds) > 4",        // FAIL: p99 interpolates to 3.92
           "never_observed_total == 0",   // pass, but series absent
       }) {
    auto r = eo::parse_slo_rule(text);
    ASSERT_TRUE(r.ok()) << text;
    rules.push_back(std::move(*r));
  }
  const auto report = eo::evaluate_slos(rules, snap);
  ASSERT_EQ(report.checks.size(), 7u);
  EXPECT_FALSE(report.all_pass);
  EXPECT_TRUE(report.checks[0].pass);
  EXPECT_FALSE(report.checks[1].pass);
  EXPECT_TRUE(report.checks[2].pass);
  EXPECT_DOUBLE_EQ(report.checks[2].observed, 4.0);
  EXPECT_TRUE(report.checks[3].pass);
  EXPECT_TRUE(report.checks[4].pass);
  EXPECT_DOUBLE_EQ(report.checks[4].observed, 1.5);
  EXPECT_FALSE(report.checks[5].pass);
  // rank 3.96 of 4 sits 0.96 into the (2,4] bucket: 2 + 2 * 0.96.
  EXPECT_DOUBLE_EQ(report.checks[5].observed, 3.92);
  EXPECT_TRUE(report.checks[6].pass);
  EXPECT_FALSE(report.checks[6].series_found);
  EXPECT_NE(report.render().find("RULES FAILED"), std::string::npos);
}

// ---------- run diff ----------

TEST(Drift, ToleranceIgnoreAndOneSidedSeries) {
  eo::MetricsRegistry base, cur;
  base.counter("steady_total").add(10);
  cur.counter("steady_total").add(11);  // +10%: inside the default 20%
  base.counter("moved_total").add(10);
  cur.counter("moved_total").add(15);   // +50%: drift
  base.counter("wall_clock_seconds").add(1);
  cur.counter("wall_clock_seconds").add(100);  // ignored by substring
  base.counter("gone_total").add(7);           // missing in current
  cur.counter("new_total").add(9);             // missing in baseline

  eo::DriftTolerance tol;
  tol.ignore = {"wall_clock"};
  const auto report =
      eo::diff_snapshots(base.snapshot(0), cur.snapshot(0), tol);
  ASSERT_EQ(report.drifts.size(), 3u) << report.render();
  bool moved = false, gone = false, added = false;
  for (const auto& d : report.drifts) {
    if (d.series == "moved_total") moved = true;
    if (d.series == "gone_total") gone = (d.note == "missing in current");
    if (d.series == "new_total") added = (d.note == "missing in baseline");
  }
  EXPECT_TRUE(moved && gone && added) << report.render();

  // Exact mode flags even the 10% move.
  eo::DriftTolerance exact;
  exact.relative = 0.0;
  exact.absolute = 0.0;
  exact.ignore = {"wall_clock"};
  EXPECT_EQ(eo::diff_snapshots(base.snapshot(0), cur.snapshot(0), exact)
                .drifts.size(),
            4u);
}
