// Streaming telemetry: a fixed-memory, in-sim time-series store.
//
// The metrics registry holds *current* values; every consumer so far — the
// SLO watchdog, the bench gate, postmortems — reads it after the run ends.
// Long-lived interactive sessions and fleet campaigns (the 7.3 PB ESGF
// replication case study in PAPERS.md) live or die on *in-flight*
// monitoring, which needs history: "what was the retry rate over the last
// minute", "how did goodput move since the brownout began".
//
// The TimeSeriesStore keeps that history with strictly bounded memory.  A
// series is (name, labels), the same identity the registry uses.  Each
// series owns three bounded rings:
//
//   * raw      — every sample as (sim-time, value);
//   * fine     — rollups of min/max/sum/count per 10 s bucket (default);
//   * coarse   — the same per 60 s bucket.
//
// Rings start empty, grow on demand up to their TimeSeriesConfig capacity
// and then overwrite oldest-first, so a series costs at most the same
// whether it holds ten samples or ten million (verified by a 1M-sample
// test), and a short-lived series costs only what it holds.  Queries that
// reach past the raw window fall back to the rollups, so windowed deltas
// and stats stay answerable for the whole retained horizon.
//
// Feeding the store is one call — `sample_registry(registry, now)` walks
// the registry's cells (obs/metrics.hpp) in id order and appends one sample
// per series for every instrumented subsystem (rm, gridftp, net, hrm,
// campaign, chaos) with zero call-site changes; histograms additionally
// emit derived `<name>:p50` / `<name>:p99` / `<name>:count` / `<name>:sum`
// series so quantiles become plottable over time.  A cell is resolved to
// its series once, on the first tick that sees it; every later tick only
// reads atomics and appends, and allocates nothing once the rings are
// full.  sim::Simulation schedules that call on the simulated clock
// (start_telemetry), which makes every sample — and every alert computed
// from them (obs/alert.hpp) — byte-deterministic across same-seed runs.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace esg::obs {

struct SeriesPoint {
  common::SimTime at = 0;
  double value = 0.0;
};

/// One closed rollup bucket: the aggregate of every raw sample whose time
/// fell in [start, start + width).
struct RollupPoint {
  common::SimTime start = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Aggregate of a window query (stats() below).
struct WindowStats {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Ring capacities and rollup widths; defaults retain ~10 min of raw
/// 1 s samples, ~1 h of 10 s rollups and ~4 h of 60 s rollups per series.
struct TimeSeriesConfig {
  std::size_t raw_capacity = 600;
  std::size_t fine_capacity = 360;
  std::size_t coarse_capacity = 240;
  common::SimDuration fine_width = 10 * common::kSecond;
  common::SimDuration coarse_width = 60 * common::kSecond;
};

/// One (name, labels) series: a raw ring plus two rollup rings.  Appends
/// must carry non-decreasing times (the sim clock guarantees it).  The
/// rings allocate as samples arrive, never past the configured capacities.
class TimeSeries {
 public:
  explicit TimeSeries(const TimeSeriesConfig& cfg);

  void append(common::SimTime at, double value);

  /// Retained raw samples, oldest first.
  std::vector<SeriesPoint> raw() const;
  /// Closed rollup buckets, oldest first (the still-open bucket excluded).
  std::vector<RollupPoint> fine() const;
  std::vector<RollupPoint> coarse() const;

  std::uint64_t samples() const { return samples_; }
  std::size_t raw_size() const { return raw_.size(); }
  std::size_t fine_size() const { return fine_.size(); }
  std::size_t coarse_size() const { return coarse_.size(); }
  /// Slots the three rings have allocated together; each ring allocates at
  /// most its configured capacity.
  std::size_t allocated_slots() const {
    return raw_.slots.capacity() + fine_.slots.capacity() +
           coarse_.slots.capacity();
  }

  /// Whole-life aggregates (never evicted).
  double life_min() const { return life_min_; }
  double life_max() const { return life_max_; }
  double life_sum() const { return life_sum_; }

  /// Latest sample at or before `t`.  When `t` precedes the raw window the
  /// rollup rings answer (the bucket covering `t` contributes its min —
  /// exact for the monotone counters windowed deltas are computed on).
  /// False when nothing at or before `t` is retained.
  bool value_at(common::SimTime t, double* out) const;

  /// Increase over (from, to] for cumulative counters, clamped at 0 so a
  /// gauge fed through here cannot produce a negative "rate".
  double delta(common::SimTime from, common::SimTime to) const;

  /// min/max/sum/count over samples in (from, to], folding raw samples and
  /// rollup buckets that fall inside the window.
  WindowStats stats(common::SimTime from, common::SimTime to) const;

 private:
  /// Grows one slot per push up to `capacity`, then overwrites the oldest.
  template <typename T>
  struct Ring {
    std::vector<T> slots;
    std::size_t capacity = 1;
    std::size_t head = 0;  // oldest slot (and next write) once full
    std::size_t size() const { return slots.size(); }
    void push(const T& p);
    const T& at(std::size_t i) const {  // i=0 oldest
      assert(i < slots.size());
      return slots[(head + i) % slots.size()];
    }
  };
  using RawRing = Ring<SeriesPoint>;
  using RollupRing = Ring<RollupPoint>;
  struct OpenBucket {
    common::SimTime start = -1;
    RollupPoint agg;
    bool open() const { return start >= 0; }
  };

  void roll(OpenBucket& bucket, RollupRing& ring, common::SimDuration width,
            common::SimTime at, double value);

  common::SimDuration fine_width_;
  common::SimDuration coarse_width_;
  RawRing raw_;
  RollupRing fine_;
  RollupRing coarse_;
  OpenBucket open_fine_;
  OpenBucket open_coarse_;
  std::uint64_t samples_ = 0;
  double life_min_ = 0.0;
  double life_max_ = 0.0;
  double life_sum_ = 0.0;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesConfig cfg = {});
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  const TimeSeriesConfig& config() const { return cfg_; }

  /// Find-or-create; the reference is stable for the store's lifetime.
  TimeSeries& series(std::string_view name, Labels labels = {});
  const TimeSeries* find(std::string_view name, const Labels& labels = {}) const;

  void append(std::string_view name, Labels labels, common::SimTime at,
              double value);

  /// The sampling hook: append one sample per series of every cell in
  /// `registry`, walking the cells in id order.  Counters and gauges sample
  /// their value; histograms sample derived `<name>:count`, `<name>:sum`,
  /// `<name>:p50` and `<name>:p99` series.  Instrumented code needs no
  /// changes to start emitting history.  The store keeps pointers into the
  /// registry, so it samples one registry, which must outlive it.
  void sample_registry(const MetricsRegistry& registry, common::SimTime at);

  /// Sum of delta(from, to] over every series whose name is `name` and
  /// whose labels contain `labels` as a subset (empty = whole family).
  double family_delta(std::string_view name, const Labels& labels,
                      common::SimTime from, common::SimTime to) const;
  /// Sum of the latest values (at or before `t`) across the same family
  /// selection; `found` (optional) reports whether any series matched.
  double family_value(std::string_view name, const Labels& labels,
                      common::SimTime t, bool* found = nullptr) const;

  /// Deterministic iteration, sorted by (name, labels).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, s] : series_) fn(key.first, key.second, *s);
  }

  std::size_t series_count() const { return series_.size(); }
  std::uint64_t samples_total() const { return samples_total_; }
  common::SimTime last_sample_at() const { return last_sample_at_; }

 private:
  using Key = std::pair<std::string, Labels>;

  /// A registry cell as the sampler reads it: the instrument and the series
  /// its samples land in (`:count`, `:sum`, `:p50`, `:p99` for a
  /// histogram, only series[0] otherwise).
  struct SampledCell {
    MetricCell cell;
    std::array<TimeSeries*, 4> series{};
  };
  SampledCell resolve(const MetricCell& cell);

  TimeSeriesConfig cfg_;
  std::map<Key, std::unique_ptr<TimeSeries>> series_;
  const MetricsRegistry* registry_ = nullptr;  // the one registry sampled
  std::vector<SampledCell> cells_;             // by registry cell id
  std::vector<std::uint64_t> buckets_;         // reused histogram read
  std::uint64_t samples_total_ = 0;
  common::SimTime last_sample_at_ = 0;
};

/// True when every (k, v) in `subset` appears in (sorted) `labels`.
bool labels_contain(const Labels& labels, const Labels& subset);

}  // namespace esg::obs
