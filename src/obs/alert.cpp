#include "obs/alert.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace esg::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_at(common::SimTime t) {
  return common::format_time(t);
}

}  // namespace

const char* alert_kind_name(AlertKind kind) {
  switch (kind) {
    case AlertKind::burn_rate: return "burn_rate";
    case AlertKind::anomaly: return "anomaly";
  }
  return "?";
}

AlertEngine::AlertEngine(const TimeSeriesStore& store,
                         FlightRecorder* recorder)
    : store_(store), recorder_(recorder) {}

void AlertEngine::add(BurnRateRule rule) {
  burns_.push_back({std::move(rule), false, 0});
}

void AlertEngine::add(AnomalyRule rule) {
  AnomalyState s;
  s.rule = std::move(rule);
  anomalies_.push_back(std::move(s));
}

double AlertEngine::burn_rate(const BurnRateRule& rule, common::SimTime now,
                              common::SimDuration window) const {
  const common::SimTime from = std::max<common::SimTime>(0, now - window);
  if (from >= now) return 0.0;
  const double bad =
      store_.family_delta(rule.bad_metric, rule.bad_labels, from, now);
  if (!rule.good_metric.empty()) {
    const double good =
        store_.family_delta(rule.good_metric, rule.good_labels, from, now);
    const double budget = 1.0 - rule.objective;
    if (budget <= 0.0) return bad > 0.0 ? 1e9 : 0.0;
    // No traffic in the window: errors against zero attempts burn at full
    // tilt, silence burns nothing.
    const double ratio = good > 0.0 ? bad / good : (bad > 0.0 ? 1.0 : 0.0);
    return ratio / budget;
  }
  if (rule.budget_per_hour <= 0.0) return bad > 0.0 ? 1e9 : 0.0;
  const double hours = common::to_seconds(now - from) / 3600.0;
  return (bad / hours) / rule.budget_per_hour;
}

void AlertEngine::fire(AlertKind kind, const std::string& rule,
                       const std::string& metric, common::SimTime now,
                       double value, double threshold, std::size_t* record) {
  AlertRecord r;
  r.rule = rule;
  r.kind = kind;
  r.metric = metric;
  r.fired_at = now;
  r.value = value;
  r.threshold = threshold;
  *record = history_.size();
  history_.push_back(std::move(r));
  if (recorder_ != nullptr) {
    recorder_->record("alert", "alert.fired", rule,
                      {{"kind", alert_kind_name(kind)},
                       {"metric", metric},
                       {"value", fmt_double(value)},
                       {"threshold", fmt_double(threshold)}});
  }
}

void AlertEngine::resolve(AlertKind kind, common::SimTime now,
                          std::size_t record) {
  AlertRecord& r = history_[record];
  r.resolved = true;
  r.resolved_at = now;
  if (recorder_ != nullptr) {
    recorder_->record("alert", "alert.resolved", r.rule,
                      {{"kind", alert_kind_name(kind)},
                       {"metric", r.metric},
                       {"active_seconds",
                        fmt_double(common::to_seconds(now - r.fired_at))}});
  }
}

void AlertEngine::evaluate(common::SimTime now) {
  for (BurnState& s : burns_) {
    const double burn_long = burn_rate(s.rule, now, s.rule.long_window);
    const double burn_short = burn_rate(s.rule, now, s.rule.short_window);
    if (!s.firing) {
      if (burn_long >= s.rule.threshold && burn_short >= s.rule.threshold) {
        s.firing = true;
        fire(AlertKind::burn_rate, s.rule.name, s.rule.bad_metric, now,
             std::max(burn_long, burn_short), s.rule.threshold, &s.record);
      }
    } else if (burn_short < s.rule.threshold) {
      s.firing = false;
      resolve(AlertKind::burn_rate, now, s.record);
    }
  }

  for (AnomalyState& s : anomalies_) {
    const AnomalyRule& rule = s.rule;
    double value = 0.0;
    if (rule.rate_window > 0) {
      bool found = false;
      store_.family_value(rule.metric, rule.labels, now, &found);
      if (!found) continue;  // series not born yet — no baseline to learn
      const common::SimTime from =
          std::max<common::SimTime>(0, now - rule.rate_window);
      if (from >= now) continue;
      value = store_.family_delta(rule.metric, rule.labels, from, now) /
              common::to_seconds(now - from);
    } else {
      bool found = false;
      value = store_.family_value(rule.metric, rule.labels, now, &found);
      if (!found) continue;
    }

    if (s.samples < rule.warmup_samples) {
      // Baseline learning: plain EWMA of mean and variance.
      if (s.samples == 0) {
        s.mean = value;
        s.var = 0.0;
      } else {
        const double d = value - s.mean;
        s.mean += rule.ewma_alpha * d;
        s.var = (1.0 - rule.ewma_alpha) * (s.var + rule.ewma_alpha * d * d);
      }
      ++s.samples;
      continue;
    }

    const double sigma = std::max(std::sqrt(s.var), rule.min_sigma);
    const double z = (value - s.mean) / sigma;
    // Saturate the accumulators so a long incident still resolves in a
    // bounded number of quiet samples.
    const double cap = 2.0 * rule.cusum_h;
    s.pos = std::clamp(s.pos + z - rule.cusum_k, 0.0, cap);
    s.neg = std::clamp(s.neg - z - rule.cusum_k, 0.0, cap);
    const double stat = std::max(s.pos, s.neg);

    if (!s.firing) {
      // Keep adapting the baseline only while healthy; freezing it during
      // an incident lets the alert resolve at the *old* normal.
      const double d = value - s.mean;
      s.mean += rule.ewma_alpha * d;
      s.var = (1.0 - rule.ewma_alpha) * (s.var + rule.ewma_alpha * d * d);
      ++s.samples;
      if (stat >= rule.cusum_h) {
        s.firing = true;
        fire(AlertKind::anomaly, rule.name, rule.metric, now, stat,
             rule.cusum_h, &s.record);
      }
    } else if (stat < rule.cusum_h / 2.0) {
      s.firing = false;
      s.pos = s.neg = 0.0;
      resolve(AlertKind::anomaly, now, s.record);
    }
  }
}

std::size_t AlertEngine::firing_count() const {
  std::size_t n = 0;
  for (const auto& r : history_) {
    if (!r.resolved) ++n;
  }
  return n;
}

std::string AlertEngine::render(common::SimTime now) const {
  std::string out = "-- alerts ";
  out += "(" + std::to_string(firing_count()) + " firing, " +
         std::to_string(history_.size()) + " fired) --\n";
  for (const auto& r : history_) {
    if (r.resolved) continue;
    out += "  FIRING   " + std::string(alert_kind_name(r.kind)) + "  " +
           r.rule + "  on " + r.metric + "  since " + fmt_at(r.fired_at) +
           " (" + common::format_time(now - r.fired_at) + " ago, " +
           fmt_double(r.value) + " vs " + fmt_double(r.threshold) + ")\n";
  }
  // The most recent resolutions give the pane short-term memory.
  int shown = 0;
  for (auto it = history_.rbegin(); it != history_.rend() && shown < 3; ++it) {
    if (!it->resolved) continue;
    out += "  resolved " + std::string(alert_kind_name(it->kind)) + "  " +
           it->rule + "  " + fmt_at(it->fired_at) + " -> " +
           fmt_at(it->resolved_at) + "\n";
    ++shown;
  }
  return out;
}

std::string render_alerts(const std::vector<AlertRecord>& alerts) {
  if (alerts.empty()) return "no alerts fired\n";
  std::string out;
  for (const auto& r : alerts) {
    out += "  " + std::string(r.resolved ? "resolved" : "FIRING  ") + "  " +
           std::string(alert_kind_name(r.kind)) + "  " + r.rule + "  on " +
           r.metric + "  fired " + fmt_at(r.fired_at);
    if (r.resolved) {
      out += "  resolved " + fmt_at(r.resolved_at) + " (active " +
             common::format_time(r.resolved_at - r.fired_at) + ")";
    }
    out += "  value " + fmt_double(r.value) + " vs " +
           fmt_double(r.threshold) + "\n";
  }
  return out;
}

}  // namespace esg::obs
