// Metrics registry — the uniform instrumentation substrate for the grid
// stack (request manager, GridFTP channels, HRM staging, fluid network,
// NWS sensors).
//
// Three instrument kinds, Prometheus-flavoured:
//
//   * Counter   — monotonically increasing u64 (bytes moved, cache hits);
//   * Gauge     — instantaneous double (queue depth, link utilization);
//   * Histogram — fixed-boundary distribution (stage wait, forecast error).
//
// A series is (name, labels) where labels are a small sorted key/value set;
// `registry.counter("gridftp_channel_bytes_total", {{"server", host}})`
// returns a reference that stays valid for the registry's lifetime, so hot
// paths resolve the series once and then pay only a relaxed atomic op per
// update.  Registration takes a mutex; updates are lock-free — safe for the
// benchmark harness's per-thread simulations and checked under TSAN (see
// the `obs` ctest label).
//
// Every series (a *cell*) also gets a dense id in creation order, shared by
// all three kinds.  `cell(id)` hands out the cell's kind, identity and
// instrument, so a reader that walks ids 0..series_count()-1 once per tick —
// the telemetry sampler (obs/timeseries.hpp) — reads the atomics directly
// and needs no lookup, copy or sort.
//
// `snapshot(at)` captures every series at a simulated instant into a
// deterministic, sorted MetricsSnapshot that the exporters (obs/export.hpp)
// turn into Prometheus text or JSON; same-seed runs produce bit-identical
// snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace esg::obs {

/// Sorted key/value label set identifying one series of a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical form: sorted by key (labels compare element-wise).
Labels normalize_labels(Labels labels);

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Quantile estimate over fixed-boundary histogram data: locates the bucket
/// holding rank p*count and interpolates linearly inside it (Prometheus
/// `histogram_quantile` semantics).  The first bucket's lower edge is 0 for
/// positive boundaries; ranks landing in the overflow bucket clamp to the
/// last boundary.  p <= 0 and p >= 1 clamp exactly to the lower/upper edge
/// of the lowest/highest non-empty bucket (no rank interpolation, so large
/// counts cannot round the extreme quantiles into a neighbouring bucket).
/// An empty histogram yields 0.
double histogram_quantile(const std::vector<double>& boundaries,
                          const std::vector<std::uint64_t>& buckets,
                          double p);

/// Fixed upper boundaries (ascending); bucket i counts observations
/// <= boundaries[i], with one overflow bucket past the last boundary.
class Histogram {
 public:
  explicit Histogram(std::vector<double> boundaries);

  void observe(double v);

  const std::vector<double>& boundaries() const { return boundaries_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket counts, size boundaries().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  /// The same counts into `out`, reusing its storage.
  void read_buckets(std::vector<std::uint64_t>& out) const;
  /// Estimated p-quantile (see histogram_quantile below).
  double quantile(double p) const {
    return histogram_quantile(boundaries_, bucket_counts(), p);
  }

 private:
  std::vector<double> boundaries_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { counter, gauge, histogram };

/// One registered series, addressed by its dense cell id.  The pointers stay
/// valid for the registry's lifetime; exactly one instrument is set, the one
/// `kind` names.
struct MetricCell {
  MetricKind kind = MetricKind::counter;
  const std::string* name = nullptr;
  const Labels* labels = nullptr;  // normalized
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

/// One series captured at snapshot time.
struct SnapshotEntry {
  MetricKind kind = MetricKind::counter;
  std::string name;
  Labels labels;
  double value = 0.0;  // counter / gauge
  // Histogram payload:
  std::vector<double> boundaries;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate for a histogram entry (0 for other kinds).
  double quantile(double p) const {
    return histogram_quantile(boundaries, buckets, p);
  }
};

struct MetricsSnapshot {
  common::SimTime at = 0;
  /// Sorted by (name, labels, kind) — deterministic across same-seed runs.
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* find(std::string_view name,
                            const Labels& labels = {}) const;
  /// Counter/gauge value of a series, or `fallback` when absent.
  double value_or(std::string_view name, const Labels& labels,
                  double fallback = 0.0) const;
  /// Sum of counter/gauge values across every series of a family.
  double family_total(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; the returned reference is stable for the registry's
  /// lifetime.  Labels need not be pre-sorted.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  /// `boundaries` apply on first registration of the series; later calls
  /// with the same (name, labels) return the existing histogram.
  Histogram& histogram(std::string_view name, std::vector<double> boundaries,
                       Labels labels = {});

  MetricsSnapshot snapshot(common::SimTime at) const;
  /// Series (cells) registered so far; their ids are 0 .. series_count() - 1,
  /// in creation order.
  std::size_t series_count() const;
  /// The cell with id `id` (< series_count()).
  MetricCell cell(std::size_t id) const;

 private:
  using Key = std::pair<std::string, Labels>;

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
  std::vector<MetricCell> cells_;  // by cell id
};

/// Conventional boundaries for simulated-seconds durations (tape waits,
/// stage latencies): 1 s .. 1 h.
std::vector<double> duration_boundaries();
/// Conventional boundaries for relative errors (NWS forecast error).
std::vector<double> relative_error_boundaries();

}  // namespace esg::obs
