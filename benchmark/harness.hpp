// esg-bench harness: the metric catalogue, the wall-clock span recorder and
// the host counters (heap allocations, peak RSS) shared by the workloads.
//
// Everything here measures the benchmark's own calls into the library from
// the outside — public getters, metrics snapshots and wall-clock spans —
// so the library itself is unchanged by being measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esg::bench {

/// The seed a bare `esg-bench` uses; the fleet fingerprint is pinned at it.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Rounds in one run.  Each round builds a fresh world from its own seed,
/// runs it and checks it.  The run pools the simulated results of all its
/// rounds, so one unlucky draw of arrivals or faults moves them less, and
/// its set-up and run times are medians over the rounds.
inline constexpr int kRounds = 3;

/// The seed of round `round` of a run: round 0 uses the run's seed itself.
std::uint64_t round_seed(std::uint64_t seed, int round);

/// How repeated runs of one seed must agree: wall metrics (host time and
/// memory) vary and are judged by their spread; exact metrics (simulated
/// times, counts and ratios of counts) must repeat bit for bit.
enum class Kind { wall, exact };

/// Where a metric is reported in the result JSON (`--json`): with the
/// end-to-end metrics of an untraced pass, with the per-layer metrics of a
/// traced pass, or only in the printed table.
enum class Report { end_to_end, layer, table };

struct MetricDef {
  const char* name;
  const char* unit;
  bool lower_is_better;
  /// Regression bound as a share of the median (end-to-end metrics only).
  /// It must also cover how far the metric moves from seed to seed.
  double bound;
  Kind kind;
  Report report;
};

/// Every metric esg-bench can print, in print order.
const std::vector<MetricDef>& metric_catalogue();
const MetricDef* find_metric(std::string_view name);

/// The four workloads, in the order a full pass runs them.
const std::vector<std::string>& workload_names();

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Multiplies every workload size (files, requests, schedules).
  double scale = 1.0;
  /// Record wall spans, write TRACE_<workload>.json, report layer timings.
  bool trace = false;
  /// fleet-traced only: per-task spans on (the workload as defined) or off
  /// (the traced pass's rerun that prices task tracing).
  bool task_tracing = true;
  std::string out_dir = ".";
};

/// Scale a size, never below `floor`.
int scaled(int n, double scale, int floor = 1);

/// Wall-clock span recorder around the benchmark's calls.  Spans nest by
/// scope: a span opened while another is open records it as its parent.
/// Disabled, it records nothing and costs one branch per scope.
class WallTrace {
 public:
  using Clock = std::chrono::steady_clock;

  explicit WallTrace(bool enabled);

  class Scope {
   public:
    Scope(WallTrace* trace, std::size_t index) : trace_(trace), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    WallTrace* trace_;
    std::size_t index_;
  };

  Scope span(const char* name);
  bool enabled() const { return enabled_; }

  /// Durations in seconds of every closed span called `name`, in order.
  std::vector<double> durations(std::string_view name) const;

  /// Write the spans as a Chrome trace (about:tracing / Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double start_us = 0.0;
    double end_us = -1.0;
    long parent = -1;  // index into records_, -1 = root
  };
  double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// Heap allocations made through global operator new so far.
std::uint64_t allocations();
/// This process image's peak resident set, in MB.
double peak_rss_mb();

/// Seconds elapsed since `t0` on the steady clock.
double seconds_since(WallTrace::Clock::time_point t0);

/// Median of `v` (0 when empty); `v` is taken by value and reordered.
double median(std::vector<double> v);
/// Nearest-rank quantile of `v` (0 when empty).
double quantile(std::vector<double> v, double p);

/// One workload run's outcome: its metrics, the work attempted and failed,
/// and every correctness check that did not hold.
class RunResult {
 public:
  void set(std::string name, double value);
  double get(std::string_view name) const;
  bool has(std::string_view name) const;
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

  /// Record a correctness check; a false one is kept as an error.
  void check(bool ok, std::string what);
  const std::vector<std::string>& errors() const { return errors_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::string> errors_;
};

/// The end-to-end metrics of a run, gathered round by round.
struct EndToEnd {
  std::vector<double> setup_s;    // wall time of each round's world build
  std::vector<double> run_s;      // wall time of each round's run + report
  std::vector<double> latency_s;  // every round's latency samples, pooled
  double makespan_s = 0.0;        // simulated, summed over rounds
  double bytes = 0.0;             // delivered, summed over rounds
  /// The process's peak resident set when round 0 ended.  Later rounds
  /// reuse a heap the earlier ones fragmented, so their peaks depend on the
  /// allocator's history more than on the workload.
  double peak_rss_mb = 0.0;
  int rounds = 0;

  /// Call while the round's world is still alive.
  void add_round(double round_setup_s, double round_run_s,
                 double round_makespan_s, double round_bytes,
                 const std::vector<double>& round_latency_s);
  /// setup_s and run_s as medians over the rounds, makespan_s as their
  /// mean, goodput over all rounds, latency percentiles over all samples.
  void emit(RunResult& out) const;
};

}  // namespace esg::bench
