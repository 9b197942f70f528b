// Fault-interleaving explorer suite: schedule JSON round-trips, the
// enumeration tiers, the invariant harness against the canonical world,
// delta-debugging shrinker convergence, and the checked-in regression-seed
// corpus (which this binary replays in ctest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "sim/explore/explorer.hpp"

namespace ex = esg::explore;
namespace es = esg::sim;
namespace ec = esg::common;
using ec::kSecond;

namespace {

es::FaultEvent crash(const std::string& host, ec::SimTime start,
                     ec::SimDuration duration) {
  return {es::FaultKind::service_crash, host, start, duration, 0.0, ""};
}

ex::FaultSchedule schedule_of(std::vector<es::FaultEvent> faults,
                              const std::string& name = "test") {
  ex::FaultSchedule sched;
  sched.name = name;
  sched.faults = std::move(faults);
  return sched;
}

}  // namespace

// ---------- schedule JSON ----------

TEST(ScheduleJson, RoundTripIsByteStable) {
  auto sched = schedule_of(
      {crash("lbnl.host", 5 * kSecond, 20 * kSecond),
       {es::FaultKind::brownout, "client-uplink", 25 * kSecond, 45 * kSecond,
        0.25, "uplink brownout"}});
  const std::string json = sched.to_json();
  auto parsed = ex::FaultSchedule::from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().to_json(), json);  // byte-identical re-serialize
  EXPECT_EQ(parsed.value().hash(), sched.hash());
  EXPECT_EQ(sched.hash_hex().size(), 16u);
}

TEST(ScheduleJson, HashCoversFaultsNotProvenance) {
  // The shrinker renames its result and violation seeds carry descriptions;
  // neither may perturb the schedule's identity.
  auto a = schedule_of({crash("lbnl.host", 0, 10 * kSecond)}, "a");
  auto b = schedule_of({crash("lbnl.host", 0, 10 * kSecond)}, "b");
  b.faults[0].description = "same window, different words";
  EXPECT_EQ(a.hash(), b.hash());
  b.faults[0].duration += 1;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(ScheduleJson, RejectsUnknownSchemaAndKind) {
  EXPECT_FALSE(ex::FaultSchedule::from_json("{\"schema\":\"nope\"}").ok());
  EXPECT_FALSE(ex::FaultSchedule::from_json(
                   "{\"schema\":\"esg.fault_schedule.v1\","
                   "\"faults\":[{\"kind\":\"meteor\"}]}")
                   .ok());
  EXPECT_FALSE(ex::FaultSchedule::from_json("[1,2]").ok());
}

TEST(ScheduleJson, ParseNormalizesFaults) {
  auto parsed = ex::FaultSchedule::from_json(
      "{\"schema\":\"esg.fault_schedule.v1\",\"faults\":["
      "{\"kind\":\"corruption\",\"target\":\"client\","
      "\"start_ns\":-5,\"duration_ns\":77}]}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().faults.size(), 1u);
  EXPECT_EQ(parsed.value().faults[0].start, 0);     // negative start clamps
  EXPECT_EQ(parsed.value().faults[0].duration, 0);  // corruption: no window
}

TEST(ScheduleJson, ReplayCommandEmbedsInlineJson) {
  auto sched = schedule_of({crash("lbnl.host", 0, kSecond)});
  const std::string cmd = ex::replay_command(sched);
  EXPECT_NE(cmd.find("esg-explore replay --inline '"), std::string::npos);
  EXPECT_NE(cmd.find(sched.to_json()), std::string::npos);
}

// ---------- enumeration ----------

TEST(Enumeration, StableDistinctAndBudgeted) {
  auto config = ex::canonical_enumeration();
  config.budget = 80;
  const auto a = ex::enumerate_schedules(config);
  const auto b = ex::enumerate_schedules(config);
  ASSERT_EQ(a.size(), 80u);
  ASSERT_EQ(b.size(), 80u);
  std::set<std::uint64_t> hashes;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hash(), b[i].hash()) << "order unstable at " << i;
    hashes.insert(a[i].hash());
  }
  EXPECT_EQ(hashes.size(), a.size());  // deduplicated
}

TEST(Enumeration, SinglesTierCoversEveryKindAndZeroDurations) {
  auto config = ex::canonical_enumeration();
  config.budget = 140;  // enough for the whole singles tier
  const auto schedules = ex::enumerate_schedules(config);
  std::set<es::FaultKind> kinds;
  bool zero_duration_single = false;
  for (const auto& s : schedules) {
    if (s.faults.size() != 1) continue;
    kinds.insert(s.faults[0].kind);
    if (es::fault_kind_durable(s.faults[0].kind) &&
        s.faults[0].duration == 0) {
      zero_duration_single = true;
    }
  }
  EXPECT_EQ(static_cast<int>(kinds.size()), es::kFaultKindCount);
  EXPECT_TRUE(zero_duration_single);  // the injector edge case stays swept
}

TEST(Enumeration, FaultsSortedAndInsideHorizon) {
  auto config = ex::canonical_enumeration();
  config.budget = 220;
  for (const auto& s : ex::enumerate_schedules(config)) {
    for (std::size_t i = 0; i < s.faults.size(); ++i) {
      EXPECT_LE(s.faults[i].start + s.faults[i].duration, s.horizon);
      if (i > 0) {
        EXPECT_LE(s.faults[i - 1].start, s.faults[i].start);
      }
    }
  }
}

// ---------- invariant harness ----------

TEST(Invariants, CleanRunSatisfiesWholeSuite) {
  ex::InvariantOptions opts;
  opts.check_determinism = true;
  const auto result = ex::check_schedule(schedule_of({}), opts);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.invariants_checked, 6);
  EXPECT_TRUE(result.run.terminated);
  EXPECT_EQ(result.run.completed, result.run.files_requested);
  EXPECT_EQ(result.run.failed, 0);
}

TEST(Invariants, FaultedRunStillRecovers) {
  auto sched = schedule_of(
      {crash("lbnl.host", 5 * kSecond, 20 * kSecond),
       {es::FaultKind::brownout, "client-uplink", 25 * kSecond, 20 * kSecond,
        0.5, ""}});
  const auto result = ex::check_schedule(sched);
  EXPECT_TRUE(result.violations.empty())
      << result.violations.front().render();
  EXPECT_EQ(result.run.completed, result.run.files_requested);
}

TEST(Invariants, LivenessCapDetectsNonTermination) {
  ex::InvariantOptions opts;
  opts.world.run_cap = 1;  // nothing finishes in one nanosecond
  const auto result = ex::check_schedule(schedule_of({}), opts);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].invariant, "terminates");
  // A non-terminating run has no completed state to check further.
  EXPECT_EQ(result.invariants_checked, 1);
}

TEST(Invariants, ViolationRenderIsSelfContainedRepro) {
  auto sched = schedule_of({crash("lbnl.host", 0, kSecond)});
  const ex::Violation v{"terminates", "it hung", sched};
  const std::string text = v.render();
  EXPECT_NE(text.find("invariant violated: terminates"), std::string::npos);
  EXPECT_NE(text.find("it hung"), std::string::npos);
  EXPECT_NE(text.find(sched.hash_hex()), std::string::npos);
  EXPECT_NE(text.find(sched.to_json()), std::string::npos);
  EXPECT_NE(text.find(ex::replay_command(sched)), std::string::npos);
}

TEST(Invariants, NamesListDeterminismLast) {
  const auto without = ex::invariant_names(false);
  const auto with = ex::invariant_names(true);
  EXPECT_EQ(without.size(), 5u);
  ASSERT_EQ(with.size(), 6u);
  EXPECT_EQ(with.back(), "deterministic-replay");
}

TEST(Invariants, CampaignWorkloadRecoversToo) {
  ex::InvariantOptions opts;
  opts.world.workload = ex::Workload::campaign;
  const auto result =
      ex::check_schedule(schedule_of({crash("lbnl.host", 5 * kSecond,
                                            20 * kSecond)}),
                         opts);
  EXPECT_TRUE(result.violations.empty())
      << result.violations.front().render();
  EXPECT_EQ(result.run.files_requested, 3);  // disk files only, no tape
  EXPECT_EQ(result.run.completed, 3);
}

// ---------- shrinker ----------

namespace {

// A seeded known-minimal bug: the failure exists iff some service_crash on
// lbnl.host lasts >= 20 s.  The unique minimal schedule under the default
// ladders is that single crash at start 0 with exactly the 20 s duration.
bool crash_bug(const ex::FaultSchedule& sched) {
  return std::any_of(sched.faults.begin(), sched.faults.end(),
                     [](const es::FaultEvent& e) {
                       return e.kind == es::FaultKind::service_crash &&
                              e.target == "lbnl.host" &&
                              e.duration >= 20 * kSecond;
                     });
}

ex::FaultSchedule noisy_crash_schedule() {
  return schedule_of(
      {{es::FaultKind::brownout, "isi-uplink", 5 * kSecond, 45 * kSecond,
        0.25, ""},
       {es::FaultKind::loss_spike, "client-uplink", 10 * kSecond,
        20 * kSecond, 0.01, ""},
       {es::FaultKind::corruption, "client", 15 * kSecond, 0, 0.0, ""},
       crash("isi.host", 30 * kSecond, 10 * kSecond),
       crash("lbnl.host", 60 * kSecond, 45 * kSecond),  // the actual bug
       {es::FaultKind::stage_stall, "tape", 70 * kSecond, 30 * kSecond, 0.0,
        ""}});
}

}  // namespace

TEST(Shrink, ConvergesToTheKnownMinimalSchedule) {
  const auto input = noisy_crash_schedule();
  const auto result = ex::shrink_schedule(input, crash_bug);
  ASSERT_TRUE(result.reproduced);
  EXPECT_EQ(result.original_faults, 6u);
  ASSERT_EQ(result.minimal.faults.size(), 1u);
  const auto& f = result.minimal.faults[0];
  EXPECT_EQ(f.kind, es::FaultKind::service_crash);
  EXPECT_EQ(f.target, "lbnl.host");
  EXPECT_EQ(f.duration, 20 * kSecond);  // shortest ladder rung that violates
  EXPECT_EQ(f.start, 0);                // earliest snap (the bug is timeless)
  EXPECT_TRUE(crash_bug(result.minimal));
}

TEST(Shrink, IsDeterministic) {
  const auto input = noisy_crash_schedule();
  const auto a = ex::shrink_schedule(input, crash_bug);
  const auto b = ex::shrink_schedule(input, crash_bug);
  EXPECT_EQ(a.minimal.hash(), b.minimal.hash());
  EXPECT_EQ(a.minimal.to_json(), b.minimal.to_json());
  EXPECT_EQ(a.oracle_runs, b.oracle_runs);
}

TEST(Shrink, PairBugKeepsBothFaults) {
  // ddmin must not over-shrink: a bug needing BOTH replica crashes keeps
  // exactly the pair.
  auto needs_both = [](const ex::FaultSchedule& sched) {
    bool lbnl = false, isi = false;
    for (const auto& e : sched.faults) {
      if (e.kind != es::FaultKind::service_crash) continue;
      lbnl = lbnl || e.target == "lbnl.host";
      isi = isi || e.target == "isi.host";
    }
    return lbnl && isi;
  };
  auto input = noisy_crash_schedule();
  const auto result = ex::shrink_schedule(input, needs_both);
  ASSERT_TRUE(result.reproduced);
  ASSERT_EQ(result.minimal.faults.size(), 2u);
  std::set<std::string> targets = {result.minimal.faults[0].target,
                                   result.minimal.faults[1].target};
  EXPECT_EQ(targets, (std::set<std::string>{"isi.host", "lbnl.host"}));
}

TEST(Shrink, NonViolatingInputReturnsUnchanged) {
  const auto input = noisy_crash_schedule();
  const auto result =
      ex::shrink_schedule(input, [](const ex::FaultSchedule&) {
        return false;
      });
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.oracle_runs, 1);
  EXPECT_EQ(result.minimal.hash(), input.hash());
}

TEST(Shrink, RespectsTheOracleBudget) {
  ex::ShrinkOptions opts;
  opts.max_runs = 3;
  const auto result =
      ex::shrink_schedule(noisy_crash_schedule(), crash_bug, opts);
  EXPECT_TRUE(result.reproduced);
  EXPECT_LE(result.oracle_runs, opts.max_runs + 1);  // +1: the repro check
  EXPECT_TRUE(crash_bug(result.minimal));  // never hands back a non-repro
}

// ---------- corpus ----------

TEST(Corpus, SaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "esg-explore-corpus-test";
  fs::remove_all(dir);

  auto sched = schedule_of({crash("lbnl.host", 5 * kSecond, 20 * kSecond)},
                           "round-trip");
  auto saved = ex::save_seed(dir.string(), sched);
  ASSERT_TRUE(saved.ok()) << saved.error().to_string();
  EXPECT_EQ(fs::path(saved.value()).filename().string(),
            "seed-" + sched.hash_hex() + ".json");

  auto corpus = ex::load_corpus(dir.string());
  ASSERT_TRUE(corpus.ok()) << corpus.error().to_string();
  ASSERT_EQ(corpus.value().size(), 1u);
  EXPECT_EQ(corpus.value()[0].hash(), sched.hash());
  EXPECT_EQ(corpus.value()[0].name, "round-trip");
  fs::remove_all(dir);
}

TEST(Corpus, MissingDirectoryIsAnEmptyCorpus) {
  auto corpus = ex::load_corpus("/nonexistent/esg-explore-no-such-dir");
  ASSERT_TRUE(corpus.ok());
  EXPECT_TRUE(corpus.value().empty());
}

#ifdef ESG_EXPLORE_CORPUS_DIR
TEST(Corpus, CheckedInSeedsReplayGreen) {
  // The regression corpus under bench/baselines/explore: every seed is a
  // shrunk, since-fixed violation and must replay with the whole invariant
  // suite (determinism included) holding.
  auto replay = ex::replay_corpus(ESG_EXPLORE_CORPUS_DIR);
  ASSERT_TRUE(replay.ok()) << replay.error().to_string();
  EXPECT_GE(replay.value().seeds, 3u);
  EXPECT_EQ(replay.value().failed, 0u)
      << replay.value().violations.front().render();
}
#endif

// ---------- sweep driver ----------

TEST(Sweep, SmallSweepIsDeterministicAndGreen) {
  ex::SweepConfig config;
  config.enumeration.budget = 24;
  config.determinism_stride = 8;
  const auto a = ex::run_sweep(config);
  const auto b = ex::run_sweep(config);
  EXPECT_EQ(a.schedules_run, 24u);
  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(a.schedules_hash, b.schedules_hash);
  EXPECT_EQ(a.outcome_digest, b.outcome_digest);
  EXPECT_EQ(a.invariants_checked, b.invariants_checked);
}
