// Online alerting over the streaming telemetry store.
//
// The SLO rules in obs/slo.hpp answer "did the run keep its promises" after
// the fact; operating a long-lived session needs the question answered
// *while it runs*.  Two detector families, both evaluated at the telemetry
// sampling tick on the simulated clock (so firings are byte-deterministic
// across same-seed runs):
//
//   * Burn-rate rules — SRE-style multi-window error-budget alerts.  A rule
//     names a "bad" counter family and either a "good" (total) family with
//     an objective ("99% of attempts succeed") or a flat event budget per
//     hour.  The burn rate is how many times faster than budget the errors
//     arrive; the rule fires when BOTH a long and a short window exceed the
//     threshold (the long window proves it is sustained, the short window
//     proves it is still happening) and resolves when the short window
//     recovers — the standard fast-burn page shape.
//
//   * Anomaly rules — an EWMA baseline with variance tracking feeds a
//     two-sided CUSUM; a sustained shift of the watched signal (a gauge, or
//     the windowed rate of a counter) beyond `cusum_h` sigmas fires.  The
//     baseline freezes while firing so the alert resolves when the signal
//     returns to the *pre-incident* level rather than chasing the fault.
//
// Firings and resolutions are recorded as `alert.fired` / `alert.resolved`
// flight-recorder events (category "alert"), which lands them in run
// manifests, postmortem timelines and the bench gate.  The injected chaos
// fault behind a firing is obs::attribute_fault(events, fired_at)
// (obs/postmortem.hpp), the same rule the per-file postmortems use.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "obs/recorder.hpp"
#include "obs/timeseries.hpp"

namespace esg::obs {

enum class AlertKind { burn_rate, anomaly };

const char* alert_kind_name(AlertKind kind);

struct BurnRateRule {
  std::string name;            // alert name ("gridftp-error-burn")
  std::string bad_metric;      // counter family of bad events
  Labels bad_labels;           // subset selector (empty = whole family)
  std::string good_metric;     // total family; empty = budget mode
  Labels good_labels;
  /// Ratio mode: promised fraction of good outcomes (0.99 = 1% budget).
  double objective = 0.99;
  /// Budget mode (good_metric empty): allowed bad events per hour.
  double budget_per_hour = 1.0;
  /// Fire when burn >= threshold on BOTH windows.
  double threshold = 2.0;
  common::SimDuration long_window = 60 * common::kSecond;
  common::SimDuration short_window = 15 * common::kSecond;
};

struct AnomalyRule {
  std::string name;
  std::string metric;          // series (or family, summed) to watch
  Labels labels;
  /// > 0: watch the windowed rate of a counter (delta/window seconds)
  /// instead of the raw value — "goodput fell off a cliff".
  common::SimDuration rate_window = 0;
  double ewma_alpha = 0.2;     // baseline adaptation rate
  double cusum_k = 0.5;        // slack, in sigmas
  double cusum_h = 5.0;        // decision threshold, in sigmas
  double min_sigma = 1e-9;     // sigma floor (flat baselines)
  int warmup_samples = 8;      // no verdicts until the baseline settles
};

/// One firing (and its resolution, once it happens).
struct AlertRecord {
  std::string rule;
  AlertKind kind = AlertKind::burn_rate;
  std::string metric;          // the watched series/family
  common::SimTime fired_at = 0;
  common::SimTime resolved_at = 0;  // meaningful when resolved
  bool resolved = false;
  double value = 0.0;          // burn rate / cusum stat at fire time
  double threshold = 0.0;
};

class AlertEngine {
 public:
  /// `recorder` may be null (no flight events); must outlive the engine.
  AlertEngine(const TimeSeriesStore& store, FlightRecorder* recorder);
  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  void add(BurnRateRule rule);
  void add(AnomalyRule rule);
  std::size_t rule_count() const { return burns_.size() + anomalies_.size(); }

  /// Evaluate every rule against the store at sim-time `now`.  Called from
  /// the telemetry sampling tick; safe to call ad hoc.
  void evaluate(common::SimTime now);

  /// Every firing so far, in fire order (unresolved ones flagged).
  const std::vector<AlertRecord>& history() const { return history_; }
  std::size_t firing_count() const;
  std::size_t fired_total() const { return history_.size(); }

  /// Live pane: currently-firing alerts plus the most recent resolutions.
  std::string render(common::SimTime now) const;

 private:
  struct BurnState {
    BurnRateRule rule;
    bool firing = false;
    std::size_t record = 0;  // index into history_ while firing
  };
  struct AnomalyState {
    AnomalyRule rule;
    double mean = 0.0;
    double var = 0.0;
    double pos = 0.0;  // one-sided CUSUM accumulators (in sigmas)
    double neg = 0.0;
    int samples = 0;
    bool firing = false;
    std::size_t record = 0;
  };

  double burn_rate(const BurnRateRule& rule, common::SimTime now,
                   common::SimDuration window) const;
  void fire(AlertKind kind, const std::string& rule,
            const std::string& metric, common::SimTime now, double value,
            double threshold, std::size_t* record);
  void resolve(AlertKind kind, common::SimTime now, std::size_t record);

  const TimeSeriesStore& store_;
  FlightRecorder* recorder_;
  std::vector<BurnState> burns_;
  std::vector<AnomalyState> anomalies_;
  std::vector<AlertRecord> history_;
};

/// Render an alert table from records (esg-report alerts, live pane).
std::string render_alerts(const std::vector<AlertRecord>& alerts);

}  // namespace esg::obs
