#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace esg::obs {

Labels normalize_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)) {
  assert(std::is_sorted(boundaries_.begin(), boundaries_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      boundaries_.size() + 1);
  for (std::size_t i = 0; i <= boundaries_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double v) {
  const auto it =
      std::lower_bound(boundaries_.begin(), boundaries_.end(), v);
  const auto idx = static_cast<std::size_t>(it - boundaries_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double histogram_quantile(const std::vector<double>& boundaries,
                          const std::vector<std::uint64_t>& buckets,
                          double p) {
  std::uint64_t count = 0;
  for (const std::uint64_t b : buckets) count += b;
  if (count == 0 || buckets.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // The extreme quantiles clamp to the observed bucket bounds, computed with
  // integer bucket scans rather than rank interpolation: p=0 is the lower
  // edge of the lowest non-empty bucket, p=1 the upper edge of the highest
  // one (the overflow bucket clamps both to the last finite boundary).
  // Interpolating at these ranks is fragile — `p * count` rounds in floating
  // point for large counts, and a rank of exactly 0 used to extrapolate
  // down the first occupied bucket regardless of where its mass sits.
  if (p <= 0.0) {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      if (i >= boundaries.size()) break;  // only overflow occupied
      if (i > 0) return boundaries[i - 1];
      return boundaries[0] > 0.0 ? 0.0 : boundaries[0];
    }
    return boundaries.empty() ? 0.0 : boundaries.back();
  }
  if (p >= 1.0) {
    if (buckets.size() > boundaries.size() && buckets[boundaries.size()] > 0) {
      return boundaries.empty() ? 0.0 : boundaries.back();  // max in overflow
    }
    for (std::size_t i = std::min(buckets.size(), boundaries.size()); i-- > 0;) {
      if (buckets[i] > 0) return boundaries[i];
    }
    return boundaries.empty() ? 0.0 : boundaries.back();
  }
  const double rank = p * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < boundaries.size() && i < buckets.size(); ++i) {
    const double prev = cumulative;
    cumulative += static_cast<double>(buckets[i]);
    if (cumulative >= rank && buckets[i] > 0) {
      const double upper = boundaries[i];
      // Positive-valued histograms (durations, rates) start at zero; a
      // first boundary at or below zero leaves nothing to interpolate over.
      const double lower =
          i > 0 ? boundaries[i - 1] : (upper > 0.0 ? 0.0 : upper);
      return lower +
             (upper - lower) * (rank - prev) / static_cast<double>(buckets[i]);
    }
  }
  // Rank lands in the overflow bucket: clamp to the largest finite edge.
  return boundaries.empty() ? 0.0 : boundaries.back();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  read_buckets(out);
  return out;
}

void Histogram::read_buckets(std::vector<std::uint64_t>& out) const {
  out.resize(boundaries_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
}

const SnapshotEntry* MetricsSnapshot::find(std::string_view name,
                                           const Labels& labels) const {
  const Labels sorted = normalize_labels(labels);
  for (const auto& e : entries) {
    if (e.name == name && e.labels == sorted) return &e;
  }
  return nullptr;
}

double MetricsSnapshot::value_or(std::string_view name, const Labels& labels,
                                 double fallback) const {
  const SnapshotEntry* e = find(name, labels);
  return e == nullptr ? fallback : e->value;
}

double MetricsSnapshot::family_total(std::string_view name) const {
  double total = 0.0;
  for (const auto& e : entries) {
    if (e.name == name && e.kind != MetricKind::histogram) total += e.value;
  }
  return total;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  Key key{std::string(name), normalize_labels(std::move(labels))};
  std::scoped_lock lock(mu_);
  const auto [it, fresh] = counters_.try_emplace(std::move(key));
  if (fresh) {
    it->second = std::make_unique<Counter>();
    cells_.push_back({.kind = MetricKind::counter,
                      .name = &it->first.first,
                      .labels = &it->first.second,
                      .counter = it->second.get()});
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  Key key{std::string(name), normalize_labels(std::move(labels))};
  std::scoped_lock lock(mu_);
  const auto [it, fresh] = gauges_.try_emplace(std::move(key));
  if (fresh) {
    it->second = std::make_unique<Gauge>();
    cells_.push_back({.kind = MetricKind::gauge,
                      .name = &it->first.first,
                      .labels = &it->first.second,
                      .gauge = it->second.get()});
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> boundaries,
                                      Labels labels) {
  Key key{std::string(name), normalize_labels(std::move(labels))};
  std::scoped_lock lock(mu_);
  const auto [it, fresh] = histograms_.try_emplace(std::move(key));
  if (fresh) {
    it->second = std::make_unique<Histogram>(std::move(boundaries));
    cells_.push_back({.kind = MetricKind::histogram,
                      .name = &it->first.first,
                      .labels = &it->first.second,
                      .histogram = it->second.get()});
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot(common::SimTime at) const {
  MetricsSnapshot snap;
  snap.at = at;
  std::scoped_lock lock(mu_);
  snap.entries.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  // std::map iteration gives (name, labels) order within each kind; the
  // final sort's (name, labels, kind) key is a total order over series, so
  // exporter output — and every digest built on it — is byte-stable no
  // matter how registration interleaved.
  for (const auto& [key, c] : counters_) {
    SnapshotEntry e;
    e.kind = MetricKind::counter;
    e.name = key.first;
    e.labels = key.second;
    e.value = static_cast<double>(c->value());
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, g] : gauges_) {
    SnapshotEntry e;
    e.kind = MetricKind::gauge;
    e.name = key.first;
    e.labels = key.second;
    e.value = g->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, h] : histograms_) {
    SnapshotEntry e;
    e.kind = MetricKind::histogram;
    e.name = key.first;
    e.labels = key.second;
    e.boundaries = h->boundaries();
    e.buckets = h->bucket_counts();
    e.count = h->count();
    e.sum = h->sum();
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.labels != b.labels) return a.labels < b.labels;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return snap;
}

std::size_t MetricsRegistry::series_count() const {
  std::scoped_lock lock(mu_);
  return cells_.size();
}

MetricCell MetricsRegistry::cell(std::size_t id) const {
  std::scoped_lock lock(mu_);
  assert(id < cells_.size());
  return cells_[id];
}

std::vector<double> duration_boundaries() {
  return {0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0};
}

std::vector<double> relative_error_boundaries() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0};
}

}  // namespace esg::obs
