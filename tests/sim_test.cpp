// Unit tests for the discrete-event kernel (event order, cancellation, the
// lazily-cancelled-event purge, a randomized queue property against a
// reference model), failure scheduling, and kernel teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/failure.hpp"
#include "sim/simulation.hpp"

namespace es = esg::sim;
namespace ec = esg::common;

using ec::kMillisecond;
using ec::kSecond;

TEST(Simulation, EventsFireInTimeOrder) {
  es::Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, TiesFireInScheduleOrder) {
  es::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  es::Simulation sim;
  ec::SimTime inner_fire = -1;
  sim.schedule_at(50, [&] {
    sim.schedule_after(25, [&] { inner_fire = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fire, 75);
}

TEST(Simulation, CancelPreventsFiring) {
  es::Simulation sim;
  bool fired = false;
  auto h = sim.schedule_at(10, [&] { fired = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(h.pending());
}

TEST(Simulation, CancelDuringRunFromEarlierEvent) {
  es::Simulation sim;
  bool fired = false;
  auto h = sim.schedule_at(20, [&] { fired = true; });
  sim.schedule_at(10, [&] { h.cancel(); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, PeriodicRunsUntilFalse) {
  es::Simulation sim;
  int count = 0;
  sim.schedule_every(10, [&] { return ++count < 5; });
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulation, PeriodicCancelStopsSeries) {
  es::Simulation sim;
  int count = 0;
  auto h = sim.schedule_every(10, [&] {
    ++count;
    return true;
  });
  sim.schedule_at(35, [&] { h.cancel(); });
  sim.run();
  EXPECT_EQ(count, 3);  // fired at 10, 20, 30
}

TEST(Simulation, PeriodicReleasesCapturesWhenSeriesEnds) {
  es::Simulation sim;
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  sim.schedule_every(10, [s = std::move(sentinel)] { return ++*s < 3; });
  sim.run();
  // Once the callback returns false the series' closure must be destroyed,
  // not pinned by a self-referential cycle inside the scheduler.
  EXPECT_TRUE(watch.expired());
}

TEST(Simulation, PeriodicReleasesCapturesAfterCancelledInstanceDrains) {
  es::Simulation sim;
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  auto h = sim.schedule_every(10, [s = std::move(sentinel)] {
    ++*s;
    return true;
  });
  sim.schedule_at(25, [&] { h.cancel(); });
  sim.schedule_at(100, [] {});  // keeps the run going past the dead tick
  sim.run();
  EXPECT_TRUE(watch.expired());
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  es::Simulation sim;
  int count = 0;
  sim.schedule_every(10, [&] {
    ++count;
    return true;
  });
  sim.run_until(45);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), 45);
  sim.run_until(100);
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunUntilAdvancesTimeWithEmptyQueue) {
  es::Simulation sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulation, RunWhilePendingStopsOnPredicate) {
  es::Simulation sim;
  int count = 0;
  sim.schedule_every(10, [&] {
    ++count;
    return true;
  });
  const bool satisfied = sim.run_while_pending([&] { return count >= 3; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(count, 3);
}

TEST(Simulation, DeterministicRngFromSeed) {
  es::Simulation a(77), b(77);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  }
}

TEST(Simulation, LoggerCarriesSimTime) {
  es::Simulation sim;
  std::vector<std::string> lines;
  ec::set_log_sink([&](const std::string& l) { lines.push_back(l); });
  ec::set_global_log_level(ec::LogLevel::info);
  auto log = sim.make_logger("kernel");
  sim.schedule_at(2 * ec::kSecond + 500 * ec::kMillisecond,
                  [&] { log.info("tick"); });
  sim.run();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[2.500s]"), std::string::npos);
  ec::set_global_log_level(ec::LogLevel::warn);
  ec::set_log_sink(nullptr);
}

TEST(Simulation, HandleCopiesShareCancellation) {
  es::Simulation sim;
  bool fired = false;
  auto h1 = sim.schedule_at(10, [&] { fired = true; });
  es::EventHandle h2 = h1;  // copies share the cancellation flag
  h2.cancel();
  EXPECT_FALSE(h1.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, DefaultHandleIsInertNoop) {
  es::EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must be safe
}

TEST(Simulation, EventsFiredCounterAdvances) {
  es::Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

// ---------- event queue ----------

namespace {

// One scheduled series in the reference model below: a one-shot event, or
// a schedule_every series with `remaining` fires left.
struct ModelEvent {
  es::EventHandle handle;
  std::pair<ec::SimTime, std::uint64_t> key;  // (time, seq) while queued
  bool queued = false;
  ec::SimDuration period = 0;  // 0: one-shot
  int remaining = 1;
  ec::SimDuration spawn = -1;  // one-shot: child delay on fire, -1 for none
  bool cancels_on_fire = false;
};

// Drives one Simulation with random schedule_at calls (bursts of equal
// times included), schedule_every series, cancels (of fired handles too,
// and from inside firing events), run_until and run_while_pending, against
// a reference model: the live events keyed by (time, seq), with sequence
// numbers handed out in the kernel's order, one per push.  Every fire must
// be the model's minimum at the model's time.
class EventQueueProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueProperty, FireOrderIsLiveEventsSortedByTimeThenSeq) {
  es::Simulation sim;
  ec::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::map<std::pair<ec::SimTime, std::uint64_t>, int> live;
  std::uint64_t next_seq = 0;
  std::deque<ModelEvent> events;
  std::vector<int> fired, expected;

  auto enqueue = [&](int id, ec::SimTime at) {
    events[id].key = {at, next_seq++};
    events[id].queued = true;
    live.emplace(events[id].key, id);
  };
  auto cancel = [&](int id) {
    events[id].handle.cancel();
    events[id].remaining = 0;
    if (events[id].queued) {
      live.erase(events[id].key);
      events[id].queued = false;
    }
  };
  // Every firing event reports here first.
  auto on_fire = [&](int id) {
    fired.push_back(id);
    if (live.empty()) {
      expected.push_back(-1);
      return;
    }
    const auto first = live.begin();
    expected.push_back(first->second);
    EXPECT_EQ(sim.now(), first->first.first);
    events[first->second].queued = false;
    live.erase(first);
  };
  // Time offsets from a small grid so many events tie.
  auto delay = [&] {
    return static_cast<ec::SimDuration>(rng.uniform_int(40)) * kMillisecond;
  };
  std::function<void(ec::SimTime)> add_one_shot = [&](ec::SimTime at) {
    const int id = static_cast<int>(events.size());
    auto& e = events.emplace_back();
    if (rng.uniform() < 0.1) {
      e.spawn = static_cast<ec::SimDuration>(rng.uniform_int(3)) * kMillisecond;
    }
    e.cancels_on_fire = rng.uniform() < 0.05;
    e.handle = sim.schedule_at(at, [&, id] {
      on_fire(id);
      if (events[id].cancels_on_fire) {
        cancel(static_cast<int>(rng.uniform_int(events.size())));
      }
      if (events[id].spawn >= 0) add_one_shot(sim.now() + events[id].spawn);
    });
    enqueue(id, at);
  };
  auto add_series = [&] {
    const int id = static_cast<int>(events.size());
    auto& e = events.emplace_back();
    e.period = (1 + static_cast<ec::SimDuration>(rng.uniform_int(20))) *
               kMillisecond;
    e.remaining = 1 + static_cast<int>(rng.uniform_int(8));
    e.handle = sim.schedule_every(e.period, [&, id] {
      on_fire(id);
      if (--events[id].remaining <= 0) return false;
      enqueue(id, sim.now() + events[id].period);  // the kernel's re-arm
      return true;
    });
    enqueue(id, sim.now() + e.period);
  };

  for (int op = 0; op < 300; ++op) {
    const double r = rng.uniform();
    if (r < 0.30) {
      add_one_shot(sim.now() + delay());
    } else if (r < 0.40) {  // a burst at one instant
      const ec::SimTime at = sim.now() + delay();
      const int n = 1 + static_cast<int>(rng.uniform_int(200));
      for (int i = 0; i < n; ++i) add_one_shot(at);
    } else if (r < 0.50) {
      add_series();
    } else if (r < 0.72) {  // one cancel, or a storm over a run of handles
      if (events.empty()) continue;
      const auto from = rng.uniform_int(events.size());
      const std::uint64_t n =
          r < 0.65 ? 1
                   : std::min<std::uint64_t>(1 + rng.uniform_int(150),
                                             events.size() - from);
      for (std::uint64_t i = 0; i < n; ++i) {
        cancel(static_cast<int>(from + i));
      }
    } else if (r < 0.88) {
      const ec::SimTime deadline = sim.now() + delay();
      sim.run_until(deadline);
      EXPECT_EQ(sim.now(), deadline);
      EXPECT_TRUE(live.empty() || live.begin()->first.first > deadline);
    } else {
      const std::size_t target = fired.size() + 1 + rng.uniform_int(30);
      const bool met =
          sim.run_while_pending([&] { return fired.size() >= target; });
      EXPECT_EQ(met, fired.size() >= target);
      if (!met) {
        EXPECT_TRUE(live.empty());
      }
    }
    EXPECT_GE(sim.pending_events(), live.size());
  }
  sim.run();

  EXPECT_TRUE(live.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GT(sim.purges(), 0u) << "the op mix should exercise the purge";
  ASSERT_EQ(fired.size(), expected.size());
  const auto diverge = std::mismatch(fired.begin(), fired.end(),
                                     expected.begin());
  EXPECT_TRUE(diverge.first == fired.end())
      << "fire #" << (diverge.first - fired.begin()) << " was event "
      << *diverge.first << ", the model expected " << *diverge.second;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty, ::testing::Range(1, 9));

}  // namespace

TEST(Simulation, TelemetryStopsWhenOnlyCancelledEventsRemain) {
  es::Simulation sim;
  sim.schedule_at(5 * kSecond, [] {});
  sim.schedule_at(ec::kHour, [] {}).cancel();
  sim.start_telemetry(kSecond);
  sim.run();
  // The cancelled timer is still queued when the 5 s tick runs; it must
  // not keep the sampler re-arming until 1 h.
  EXPECT_GE(sim.now(), 5 * kSecond);
  EXPECT_LE(sim.now(), 6 * kSecond);
}

TEST(SimulationQueue, LazyCancelledEventsArePurged) {
  es::Simulation sim;
  std::vector<es::EventHandle> handles;
  handles.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(
        sim.schedule_at((i + 1) * kSecond, [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 1000u);
  for (auto& h : handles) h.cancel();
  // The next push notices dead events outnumber live 2:1 and compacts.
  sim.schedule_at(2000 * kSecond, [] {});
  EXPECT_LT(sim.pending_events(), 16u);
  // The survivor still fires.
  std::uint64_t fired_before = sim.events_fired();
  sim.run();
  EXPECT_EQ(sim.events_fired(), fired_before + 1);
  EXPECT_EQ(sim.now(), 2000 * kSecond);
}

TEST(SimulationQueue, PurgeKeepsLiveEventsAndOrder) {
  es::Simulation sim;
  std::vector<int> order;
  std::vector<es::EventHandle> dead;
  for (int i = 0; i < 300; ++i) {
    const int at = i + 1;
    if (i % 3 == 0) {
      sim.schedule_at(at * kMillisecond, [&order, at] { order.push_back(at); });
    } else {
      dead.push_back(sim.schedule_at(at * kMillisecond, [] { FAIL(); }));
    }
  }
  for (auto& h : dead) h.cancel();
  sim.schedule_at(400 * kMillisecond, [&order] { order.push_back(400); });
  sim.run();
  ASSERT_EQ(order.size(), 101u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.back(), 400);
}

TEST(SimulationQueue, PurgeWorkStaysLinearUnderCancelStorms) {
  // Telemetry/explorer-style workload: waves of events scheduled and then
  // cancelled wholesale, with a small set of long-lived survivors.  Total
  // compaction work must stay linear in the number of cancellations — about
  // one purge per wave, never one per cancel (the quadratic failure mode).
  es::Simulation sim;
  std::vector<es::EventHandle> survivors;
  for (int i = 0; i < 100; ++i) {
    survivors.push_back(sim.schedule_at((i + 1) * ec::kHour, [] {}));
  }
  constexpr int kWaves = 50;
  constexpr int kPerWave = 1000;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<es::EventHandle> doomed;
    doomed.reserve(kPerWave);
    for (int i = 0; i < kPerWave; ++i) {
      doomed.push_back(
          sim.schedule_at((wave * kPerWave + i + 1) * kMillisecond, [] {}));
    }
    for (auto& h : doomed) h.cancel();
  }
  EXPECT_LE(sim.purges(), static_cast<std::uint64_t>(kWaves + 5))
      << "purges must amortize to O(1) per wave of cancellations";
  EXPECT_GE(sim.purges(), 1u);
  EXPECT_LT(sim.pending_events(), 2u * kPerWave + 200)
      << "dead events must not accumulate across waves";
  // The survivors all still fire, in order.
  std::uint64_t fired_before = sim.events_fired();
  sim.run();
  EXPECT_EQ(sim.events_fired(), fired_before + 100);
}

// ---------- teardown ----------

TEST(SimulationTeardown, PendingEventMayEndASpanWhenTheKernelDies) {
  // A pending event holds the only reference to an object with an open
  // span.  Destroying the kernel destroys the event, and with it the
  // object: its span ends on a live tracer, and its destructor may still
  // schedule and cancel events.
  struct Holder {
    es::Simulation* sim = nullptr;
    esg::obs::Span span;
    ~Holder() { sim->schedule_after(kSecond, [] {}).cancel(); }
  };
  auto sim = std::make_unique<es::Simulation>();
  auto holder = std::make_shared<Holder>();
  holder->sim = sim.get();
  holder->span = sim->tracer().span("teardown.pending", "sim");
  const std::weak_ptr<Holder> watch = holder;
  sim->schedule_after(kSecond, [holder = std::move(holder)] { (void)holder; });
  EXPECT_FALSE(watch.expired());
  sim.reset();
  EXPECT_TRUE(watch.expired());
}

// ---------- failure schedule ----------

TEST(FailureSchedule, TogglesTargetDownAndUp) {
  es::Simulation sim;
  es::FailureSchedule sched;
  sched.add("hscc-backbone", 100, 50, "backbone problems");

  std::vector<std::pair<std::string, bool>> transitions;
  sched.arm(sim, [&](const std::string& t, bool down, const std::string&) {
    transitions.emplace_back(t, down);
  });
  sim.run();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(std::string("hscc-backbone"), true));
  EXPECT_EQ(transitions[1], std::make_pair(std::string("hscc-backbone"), false));
}

TEST(FailureSchedule, OverlappingOutagesRefCount) {
  es::Simulation sim;
  es::FailureSchedule sched;
  sched.add("link", 100, 100);  // [100, 200)
  sched.add("link", 150, 100);  // [150, 250)

  std::vector<std::pair<ec::SimTime, bool>> transitions;
  sched.arm(sim, [&](const std::string&, bool down, const std::string&) {
    transitions.emplace_back(sim.now(), down);
  });
  sim.run();
  // Down once at 100, up once at 250 — not bounced at 200.
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(ec::SimTime{100}, true));
  EXPECT_EQ(transitions[1], std::make_pair(ec::SimTime{250}, false));
}

TEST(FailureSchedule, IsDownQueriesIntervals) {
  es::FailureSchedule sched;
  sched.add("dns", 10, 20);
  EXPECT_FALSE(sched.is_down("dns", 9));
  EXPECT_TRUE(sched.is_down("dns", 10));
  EXPECT_TRUE(sched.is_down("dns", 29));
  EXPECT_FALSE(sched.is_down("dns", 30));
  EXPECT_FALSE(sched.is_down("other", 15));
}

TEST(FailureSchedule, ThreeWayOverlapComesUpOnce) {
  es::Simulation sim;
  es::FailureSchedule sched;
  sched.add("link", 100, 100);  // [100, 200)
  sched.add("link", 150, 100);  // [150, 250)
  sched.add("link", 240, 60);   // [240, 300) — chains onto the second
  std::vector<std::pair<ec::SimTime, bool>> transitions;
  sched.arm(sim, [&](const std::string&, bool down, const std::string&) {
    transitions.emplace_back(sim.now(), down);
  });
  sim.run();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(ec::SimTime{100}, true));
  EXPECT_EQ(transitions[1], std::make_pair(ec::SimTime{300}, false));
}

TEST(FailureSchedule, AdjacentOutagesAtEqualTimesStayDown) {
  // One outage ends exactly when the next begins: the end and begin events
  // tie at t=200.  Whatever the internal firing order, the target must be
  // down throughout [100, 300) and the toggle must not report up-then-down
  // at the seam as two net transitions beyond the outer pair.
  es::Simulation sim;
  es::FailureSchedule sched;
  sched.add("link", 100, 100);  // [100, 200)
  sched.add("link", 200, 100);  // [200, 300)
  std::vector<std::pair<ec::SimTime, bool>> transitions;
  sched.arm(sim, [&](const std::string&, bool down, const std::string&) {
    transitions.emplace_back(sim.now(), down);
  });
  sim.run();
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.front(), std::make_pair(ec::SimTime{100}, true));
  EXPECT_EQ(transitions.back(), std::make_pair(ec::SimTime{300}, false));
  // Any seam transitions happen at exactly t=200 and cancel out.
  for (std::size_t i = 1; i + 1 < transitions.size(); ++i) {
    EXPECT_EQ(transitions[i].first, ec::SimTime{200});
  }
}

TEST(FailureSchedule, IsDownSpansOverlappingIntervals) {
  es::FailureSchedule sched;
  sched.add("link", 100, 100);  // [100, 200)
  sched.add("link", 150, 100);  // [150, 250)
  EXPECT_FALSE(sched.is_down("link", 99));
  EXPECT_TRUE(sched.is_down("link", 125));
  EXPECT_TRUE(sched.is_down("link", 200));  // covered by the second outage
  EXPECT_TRUE(sched.is_down("link", 249));
  EXPECT_FALSE(sched.is_down("link", 250));
}

TEST(FailureSchedule, DistinctTargetsIndependent) {
  es::Simulation sim;
  es::FailureSchedule sched;
  sched.add("a", 10, 10);
  sched.add("b", 12, 10);
  int a_events = 0, b_events = 0;
  sched.arm(sim, [&](const std::string& t, bool, const std::string&) {
    (t == "a" ? a_events : b_events)++;
  });
  sim.run();
  EXPECT_EQ(a_events, 2);
  EXPECT_EQ(b_events, 2);
}
