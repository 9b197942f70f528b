// Discrete-event simulation kernel.
//
// A Simulation owns a queue of (time, sequence, callback) events.  Events at
// equal times fire in scheduling order, which — together with the
// per-simulation Rng — makes every experiment bit-reproducible from a seed.
// All grid components (GridFTP servers, catalogs, the request manager, NWS
// sensors) run as callbacks inside one kernel; the paper's "multi-threaded
// request manager" maps to concurrent sim processes, one per logical file.
//
// The queue is one std::vector kept as a binary heap (std::push_heap /
// std::pop_heap) under the strict (time, sequence) order.  Sequence numbers
// are unique, so no two events compare equal: the minimum is unique, and the
// dequeue order is fixed by the schedule calls alone, whatever the heap's
// internal layout.  That is what lets flight-recorder digests and manifest
// baselines replay byte-for-byte.  Push and pop cost O(log n), bursts of
// equal-time events included (DESIGN.md §13).
//
// Cancellation stays lazy: EventHandle::cancel flips a shared flag and the
// dead event is skipped when it reaches the top of the heap, or compacted
// away in bulk once dead events outnumber live ones 2:1.
//
// The kernel is deliberately single-threaded.  Parallelism in this codebase
// lives one level up: the benchmark harness runs many independent
// Simulations across a common::ThreadPool.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/alert.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace esg::sim {

using common::SimDuration;
using common::SimTime;

class Simulation;

/// Cancellable handle to a scheduled event.  Copies share the underlying
/// cancellation flag; cancelling any copy cancels the event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet.  Safe to call repeatedly.
  void cancel() {
    if (alive_ && *alive_) {
      *alive_ = false;
      // Tell the owning simulation a dead event is (probably) still queued
      // so it can purge when cancellations pile up.  The counter outlives
      // the simulation (shared ownership), so late cancels stay safe.
      if (cancelled_) ++*cancelled_;
    }
  }

  bool pending() const { return alive_ && *alive_; }

 private:
  friend class Simulation;
  EventHandle(std::shared_ptr<bool> alive,
              std::shared_ptr<std::uint64_t> cancelled)
      : alive_(std::move(alive)), cancelled_(std::move(cancelled)) {}
  std::shared_ptr<bool> alive_;
  std::shared_ptr<std::uint64_t> cancelled_;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  /// Destroys the pending events first, while the whole kernel is still
  /// alive: a destructor reached from an event's captures may end a span,
  /// record a metric, or schedule and cancel events.
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  common::Rng& rng() { return rng_; }

  /// Schedule `fn` at absolute simulated time `at` (>= now).
  EventHandle schedule_at(SimTime at, std::function<void()> fn);

  /// Schedule `fn` after a delay (>= 0).
  EventHandle schedule_after(SimDuration delay, std::function<void()> fn) {
    return schedule_at(now_ + std::max<SimDuration>(0, delay), std::move(fn));
  }

  /// Schedule a periodic event.  `fn` returning false stops the series.
  EventHandle schedule_every(SimDuration period, std::function<bool()> fn);

  /// Run until the event queue is empty.
  void run();

  /// Run until simulated time `deadline` (events at exactly `deadline` fire).
  void run_until(SimTime deadline);

  /// Run until `pred()` becomes true (checked after every event) or the
  /// queue drains.  Returns true if the predicate was satisfied.
  bool run_while_pending(const std::function<bool()>& pred);

  /// Events currently queued, including lazily-cancelled ones not yet
  /// dropped or purged.
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_fired() const { return fired_; }

  /// How many compaction passes the purge heuristic has run.
  std::uint64_t purges() const { return purges_; }

  /// A logger whose lines carry this simulation's timestamps.
  common::Logger make_logger(std::string component);

  /// Per-simulation observability: every component hanging off this kernel
  /// records into one registry / tracer, so a whole run snapshots and
  /// exports as a unit (and concurrent Simulations never share state).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  obs::FlightRecorder& flight_recorder() { return recorder_; }
  const obs::FlightRecorder& flight_recorder() const { return recorder_; }
  obs::TimeSeriesStore& telemetry() { return telemetry_; }
  const obs::TimeSeriesStore& telemetry() const { return telemetry_; }
  obs::AlertEngine& alerts() { return alerts_; }
  const obs::AlertEngine& alerts() const { return alerts_; }

  /// Start streaming telemetry: every `period` the metrics registry is
  /// sampled into telemetry() and alerts() evaluates its rules — so every
  /// instrumented subsystem emits history, and alerts fire *during* the
  /// run, with zero call-site changes.  The tick samples once immediately,
  /// then re-arms only while a live event is pending, so a drained
  /// workload still terminates run() even with cancelled timers still
  /// queued.  Cancel the handle to stop early.
  EventHandle start_telemetry(SimDuration period = common::kSecond);

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;
  };

  /// Heap comparator: true when `a` fires after `b` in the strict
  /// (time, sequence) order all dequeues follow.  std::push_heap/pop_heap
  /// keep the greatest element at the front, so the earliest event sits
  /// there.
  static bool fires_later(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  bool step();  // fire one event; false if no live event is queued
  void push_event(Event event);
  void purge_cancelled();
  /// Pop cancelled events off the top of the heap.  Returns false when no
  /// live event remains; after a `true` return `queue_.front()` is the next
  /// event to fire.
  bool drop_cancelled_head();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;

  std::vector<Event> queue_;  // binary heap under fires_later

  std::uint64_t purges_ = 0;
  // Dead events believed still queued; shared with every EventHandle.  An
  // over-count (cancel after fire) only triggers an early purge, which
  // resets it from ground truth.
  std::shared_ptr<std::uint64_t> cancelled_ =
      std::make_shared<std::uint64_t>(0);
  common::Rng rng_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_{[this] { return now_; }};
  obs::FlightRecorder recorder_{[this] { return now_; }};
  obs::TimeSeriesStore telemetry_;
  obs::AlertEngine alerts_{telemetry_, &recorder_};
  obs::Gauge* depth_gauge_ = nullptr;      // sim_queue_depth
  obs::Counter* purge_counter_ = nullptr;  // sim_queue_purges

  // Purge on push once the queue holds kPurgeMinQueue events and
  // kPurgeDeadWeight * dead > kPurgeSizeWeight * size, i.e. dead events
  // outnumber live ones 2:1.  Each purge needs a constant fraction of fresh
  // dead events since the last one, so total purge work stays linear in the
  // number of cancellations.
  static constexpr std::size_t kPurgeMinQueue = 64;
  static constexpr std::uint64_t kPurgeDeadWeight = 3;
  static constexpr std::uint64_t kPurgeSizeWeight = 2;
};

}  // namespace esg::sim
