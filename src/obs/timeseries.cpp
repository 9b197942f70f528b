#include "obs/timeseries.hpp"

#include <algorithm>
#include <cassert>

namespace esg::obs {

bool labels_contain(const Labels& labels, const Labels& subset) {
  for (const auto& want : subset) {
    bool found = false;
    for (const auto& have : labels) {
      if (have == want) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// ---- rings ----

template <typename T>
void TimeSeries::Ring<T>::push(const T& p) {
  if (slots.size() < capacity) {
    // Double from a small start, clamped so the ring never allocates past
    // its configured capacity (std::vector's own growth would).
    if (slots.size() == slots.capacity()) {
      constexpr std::size_t kFirstSlots = 16;
      slots.reserve(
          std::min(capacity, std::max(kFirstSlots, 2 * slots.size())));
    }
    slots.push_back(p);
    return;
  }
  slots[head] = p;
  head = (head + 1) % capacity;
}

// ---- series ----

TimeSeries::TimeSeries(const TimeSeriesConfig& cfg)
    : fine_width_(cfg.fine_width), coarse_width_(cfg.coarse_width) {
  raw_.capacity = std::max<std::size_t>(1, cfg.raw_capacity);
  fine_.capacity = std::max<std::size_t>(1, cfg.fine_capacity);
  coarse_.capacity = std::max<std::size_t>(1, cfg.coarse_capacity);
}

void TimeSeries::roll(OpenBucket& bucket, RollupRing& ring,
                      common::SimDuration width, common::SimTime at,
                      double value) {
  const common::SimTime start = at - (at % width);
  if (bucket.open() && bucket.start != start) {
    ring.push(bucket.agg);
    bucket.start = -1;
  }
  if (!bucket.open()) {
    bucket.start = start;
    bucket.agg = RollupPoint{start, value, value, 0.0, 0};
  }
  bucket.agg.min = std::min(bucket.agg.min, value);
  bucket.agg.max = std::max(bucket.agg.max, value);
  bucket.agg.sum += value;
  ++bucket.agg.count;
}

void TimeSeries::append(common::SimTime at, double value) {
  if (samples_ == 0) {
    life_min_ = life_max_ = value;
  } else {
    life_min_ = std::min(life_min_, value);
    life_max_ = std::max(life_max_, value);
  }
  life_sum_ += value;
  ++samples_;
  raw_.push({at, value});
  roll(open_fine_, fine_, fine_width_, at, value);
  roll(open_coarse_, coarse_, coarse_width_, at, value);
}

std::vector<SeriesPoint> TimeSeries::raw() const {
  std::vector<SeriesPoint> out;
  out.reserve(raw_.size());
  for (std::size_t i = 0; i < raw_.size(); ++i) out.push_back(raw_.at(i));
  return out;
}

std::vector<RollupPoint> TimeSeries::fine() const {
  std::vector<RollupPoint> out;
  out.reserve(fine_.size());
  for (std::size_t i = 0; i < fine_.size(); ++i) out.push_back(fine_.at(i));
  return out;
}

std::vector<RollupPoint> TimeSeries::coarse() const {
  std::vector<RollupPoint> out;
  out.reserve(coarse_.size());
  for (std::size_t i = 0; i < coarse_.size(); ++i) {
    out.push_back(coarse_.at(i));
  }
  return out;
}

bool TimeSeries::value_at(common::SimTime t, double* out) const {
  // Raw ring first: binary search over the monotone retained window.
  if (raw_.size() > 0 && raw_.at(0).at <= t) {
    std::size_t lo = 0, hi = raw_.size();  // first index with at > t
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (raw_.at(mid).at <= t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    *out = raw_.at(lo - 1).value;
    return true;
  }
  // Before the raw window: the rollup bucket covering (or preceding) t.
  // For the cumulative counters windowed deltas read, a bucket's min is the
  // value at its first retained sample — the best available stand-in.
  auto from_ring = [t, out](const RollupRing& ring,
                            common::SimDuration width) {
    for (std::size_t i = ring.size(); i-- > 0;) {
      const RollupPoint& p = ring.at(i);
      if (p.start <= t) {
        *out = (t < p.start + width) ? p.min : p.max;
        return true;
      }
    }
    return false;
  };
  if (from_ring(fine_, fine_width_)) return true;
  return from_ring(coarse_, coarse_width_);
}

double TimeSeries::delta(common::SimTime from, common::SimTime to) const {
  double v_from = 0.0;
  double v_to = 0.0;
  if (!value_at(to, &v_to)) return 0.0;
  if (!value_at(from, &v_from)) {
    // Window opens before anything retained: count from the oldest known
    // value (the series may have started mid-window).
    if (coarse_.size() > 0) {
      v_from = coarse_.at(0).min;
    } else if (fine_.size() > 0) {
      v_from = fine_.at(0).min;
    } else if (raw_.size() > 0) {
      v_from = raw_.at(0).value;
    } else {
      return 0.0;
    }
  }
  return std::max(0.0, v_to - v_from);
}

WindowStats TimeSeries::stats(common::SimTime from, common::SimTime to) const {
  WindowStats w;
  auto fold = [&w](double mn, double mx, double sum, std::uint64_t n) {
    if (n == 0) return;
    if (w.count == 0) {
      w.min = mn;
      w.max = mx;
    } else {
      w.min = std::min(w.min, mn);
      w.max = std::max(w.max, mx);
    }
    w.sum += sum;
    w.count += n;
  };
  // Raw samples cover the newest span; rollup buckets answer for the part
  // of the window older than the oldest retained raw sample.
  const common::SimTime raw_begin =
      raw_.size() > 0 ? raw_.at(0).at : to + 1;
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const SeriesPoint& p = raw_.at(i);
    if (p.at <= from || p.at > to) continue;
    fold(p.value, p.value, p.value, 1);
  }
  for (std::size_t i = 0; i < fine_.size(); ++i) {
    const RollupPoint& p = fine_.at(i);
    if (p.start + fine_width_ <= from || p.start > to) continue;
    if (p.start + fine_width_ > raw_begin) continue;  // raw already counted
    fold(p.min, p.max, p.sum, p.count);
  }
  const common::SimTime fine_begin =
      fine_.size() > 0 ? fine_.at(0).start : raw_begin;
  for (std::size_t i = 0; i < coarse_.size(); ++i) {
    const RollupPoint& p = coarse_.at(i);
    if (p.start + coarse_width_ <= from || p.start > to) continue;
    if (p.start + coarse_width_ > std::min(raw_begin, fine_begin)) continue;
    fold(p.min, p.max, p.sum, p.count);
  }
  return w;
}

// ---- store ----

TimeSeriesStore::TimeSeriesStore(TimeSeriesConfig cfg) : cfg_(cfg) {}

TimeSeries& TimeSeriesStore::series(std::string_view name, Labels labels) {
  Key key{std::string(name), normalize_labels(std::move(labels))};
  auto& slot = series_[std::move(key)];
  if (!slot) slot = std::make_unique<TimeSeries>(cfg_);
  return *slot;
}

const TimeSeries* TimeSeriesStore::find(std::string_view name,
                                        const Labels& labels) const {
  const auto it = series_.find(Key{std::string(name),
                                   normalize_labels(labels)});
  return it == series_.end() ? nullptr : it->second.get();
}

void TimeSeriesStore::append(std::string_view name, Labels labels,
                             common::SimTime at, double value) {
  series(name, std::move(labels)).append(at, value);
  ++samples_total_;
  last_sample_at_ = at;
}

TimeSeriesStore::SampledCell TimeSeriesStore::resolve(const MetricCell& cell) {
  SampledCell sampled{cell, {}};
  if (cell.kind == MetricKind::histogram) {
    static constexpr std::array<const char*, 4> kDerived = {
        ":count", ":sum", ":p50", ":p99"};
    for (std::size_t i = 0; i < kDerived.size(); ++i) {
      sampled.series[i] = &series(*cell.name + kDerived[i], *cell.labels);
    }
  } else {
    sampled.series[0] = &series(*cell.name, *cell.labels);
  }
  return sampled;
}

void TimeSeriesStore::sample_registry(const MetricsRegistry& registry,
                                      common::SimTime at) {
  assert(registry_ == nullptr || registry_ == &registry);
  registry_ = &registry;
  for (std::size_t id = cells_.size(), n = registry.series_count(); id < n;
       ++id) {
    cells_.push_back(resolve(registry.cell(id)));
  }
  for (const SampledCell& c : cells_) {
    switch (c.cell.kind) {
      case MetricKind::counter:
        c.series[0]->append(at, static_cast<double>(c.cell.counter->value()));
        ++samples_total_;
        break;
      case MetricKind::gauge:
        c.series[0]->append(at, c.cell.gauge->value());
        ++samples_total_;
        break;
      case MetricKind::histogram: {
        const Histogram& h = *c.cell.histogram;
        h.read_buckets(buckets_);
        c.series[0]->append(at, static_cast<double>(h.count()));
        c.series[1]->append(at, h.sum());
        c.series[2]->append(at,
                            histogram_quantile(h.boundaries(), buckets_, 0.50));
        c.series[3]->append(at,
                            histogram_quantile(h.boundaries(), buckets_, 0.99));
        samples_total_ += 4;
        break;
      }
    }
  }
  if (!cells_.empty()) last_sample_at_ = at;
}

double TimeSeriesStore::family_delta(std::string_view name,
                                     const Labels& labels,
                                     common::SimTime from,
                                     common::SimTime to) const {
  const Labels want = normalize_labels(labels);
  double total = 0.0;
  for (const auto& [key, s] : series_) {
    if (key.first != name || !labels_contain(key.second, want)) continue;
    total += s->delta(from, to);
  }
  return total;
}

double TimeSeriesStore::family_value(std::string_view name,
                                     const Labels& labels, common::SimTime t,
                                     bool* found) const {
  const Labels want = normalize_labels(labels);
  double total = 0.0;
  bool any = false;
  for (const auto& [key, s] : series_) {
    if (key.first != name || !labels_contain(key.second, want)) continue;
    double v = 0.0;
    if (s->value_at(t, &v)) {
      total += v;
      any = true;
    }
  }
  if (found != nullptr) *found = any;
  return total;
}

}  // namespace esg::obs
