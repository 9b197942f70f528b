// Sim-time span tracing.
//
// A Tracer is bound to a simulation clock and records nested spans — named
// intervals of simulated time with parent/child structure and per-span
// attributes — into a bounded in-memory buffer.  Spans live on *tracks*
// (one per logical thread of activity: the request manager gives every
// file worker its own track), and within a track spans nest: a span begun
// while another is open becomes its child unless an explicit parent is
// given.  That matches how the Chrome trace_event viewer (about:tracing /
// Perfetto) renders them — tracks map to tids, nesting shows as stacked
// slices.
//
// Two usage styles:
//
//   * RAII for synchronous scopes:
//       auto sp = tracer.span("rm.rank_replicas", "rm", track);
//   * begin()/end() ids for async state machines that outlive any C++
//     scope (GridFTP operations, fluid transfers); Span is movable and can
//     be parked in the state struct, ending on destruction.
//
// When the buffer fills, new spans are dropped (counted, never silently):
// the begin() returns id 0 and every operation on id 0 is a no-op, so
// instrumented code needs no capacity checks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace esg::obs {

using SpanId = std::uint64_t;   // 0 = invalid / dropped
using TrackId = std::uint64_t;  // 0 = the default track

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;
  TrackId track = 0;
  std::string name;
  std::string category;
  common::SimTime start = 0;
  common::SimTime end = -1;  // -1: still open
  /// Set on a copy taken while the span was open, whose `end` was then set
  /// to the capture clock; the tracer's own records never carry it.
  bool clamped = false;
  std::vector<std::pair<std::string, std::string>> attrs;

  bool open() const { return end < 0; }
  common::SimDuration duration() const { return open() ? 0 : end - start; }
  /// The clamp rule, for every reader at capture clock `at`: a span still
  /// open ends at `at` and reads as clamped, so truncated runs render with
  /// real durations instead of end = -1.
  common::SimTime end_at(common::SimTime at) const {
    return open() ? at : end;
  }
  bool reads_clamped() const { return open() || clamped; }
};

class Tracer;

/// Movable RAII handle; ends the span on destruction (once).
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { swap(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      swap(other);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  void end();
  void set_attr(std::string key, std::string value);
  /// Begin a child span on the same track.
  Span child(std::string name, std::string category = {});

  SpanId id() const { return id_; }
  TrackId track() const { return track_; }
  explicit operator bool() const { return tracer_ != nullptr && id_ != 0; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, SpanId id, TrackId track)
      : tracer_(tracer), id_(id), track_(track) {}
  void swap(Span& other) noexcept {
    std::swap(tracer_, other.tracer_);
    std::swap(id_, other.id_);
    std::swap(track_, other.track_);
  }

  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
  TrackId track_ = 0;
};

class Tracer {
 public:
  /// `clock` supplies the simulated now; `max_spans` bounds the buffer.
  explicit Tracer(std::function<common::SimTime()> clock,
                  std::size_t max_spans = 1 << 17);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Allocate a named track (a tid in the Chrome trace).
  TrackId new_track(std::string name);

  /// RAII span; parent inferred from the track's innermost open span.
  Span span(std::string name, std::string category = {}, TrackId track = 0);

  /// Raw API for async owners.  parent == 0 infers from the open stack.
  SpanId begin(std::string name, std::string category = {}, TrackId track = 0,
               SpanId parent = 0);
  void end(SpanId id);
  void set_attr(SpanId id, std::string key, std::string value);

  /// Grow (or shrink) the span buffer.  Shrinking never discards already
  /// recorded spans; it only lowers the ceiling for new ones.
  void set_capacity(std::size_t max_spans);

  /// Called (outside the tracer lock) whenever a span is dropped, with
  /// the running drop total — the simulation wires this to an
  /// `obs_trace_dropped` gauge so silent drops surface in every snapshot.
  void set_drop_hook(std::function<void(std::size_t)> hook);

  // ---- inspection / export ----
  std::vector<SpanRecord> spans() const;  // copy; includes open spans
  /// Calls `read(records, at)` with the span records in place, under the
  /// tracer's lock, where `at` is the capture clock; read a record's end
  /// through SpanRecord::end_at(at).  The lock is not re-entrant, so
  /// `read` must not call back into the tracer.
  template <typename Read>
  void read_spans(Read&& read) const {
    const common::SimTime at = clock_();
    std::scoped_lock lock(mu_);
    read(records_, at);
  }
  std::map<TrackId, std::string> tracks() const;
  std::size_t span_count() const;
  std::size_t dropped() const;
  std::size_t capacity() const { return max_spans_; }
  common::SimTime now() const { return clock_(); }

 private:
  std::function<common::SimTime()> clock_;
  std::size_t max_spans_;
  std::function<void(std::size_t)> drop_hook_;

  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;             // id = index + 1
  std::map<TrackId, std::string> track_names_;  // includes 0 ("main")
  // Per-track open-span stack; a track with no open span has no entry.
  std::map<TrackId, std::vector<SpanId>> open_;
  TrackId next_track_ = 1;
  std::size_t dropped_ = 0;
};

}  // namespace esg::obs
