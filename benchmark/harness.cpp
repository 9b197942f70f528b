#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/units.hpp"

// Global allocation counter: every heap allocation the benchmark process
// makes, library included.  esg-bench is single-threaded.
namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace esg::bench {

namespace {
constexpr Kind W = Kind::wall;
constexpr Kind X = Kind::exact;
constexpr Report E2E = Report::end_to_end;
constexpr Report L = Report::layer;
constexpr Report T = Report::table;
constexpr bool kLower = true;
constexpr bool kHigher = false;
}  // namespace

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> kMetrics = {
      // End to end: what a user of the grid, or of the simulator, sees.
      // A bound has to hold across seeds, so each is about three times the
      // widest spread (IQR/median over ten seeds) of any workload, capped
      // at 0.25; README "Bounds" has the measurements.  Simulated metrics
      // are exact for a seed and move only between seeds.  Host speed on a
      // shared machine drifts for minutes at a time, which no repetition
      // inside a run averages out; that drift sets the wall bounds.
      {"setup_s", "s", kLower, 0.25, W, E2E},
      {"run_s", "s", kLower, 0.25, W, E2E},
      {"peak_rss_mb", "MB", kLower, 0.05, W, E2E},
      {"makespan_s", "s", kLower, 0.10, X, E2E},
      {"goodput_mbps", "Mb/s", kHigher, 0.10, X, E2E},
      {"latency_p50_s", "s", kLower, 0.15, X, E2E},
      {"latency_p99_s", "s", kLower, 0.25, X, E2E},
      {"latency_samples", "count", kHigher, 0.0, X, T},
      {"failed_frac", "frac", kLower, 0.0, X, T},
      {"attempted", "count", kHigher, 0.0, X, T},
      {"failed", "count", kLower, 0.0, X, T},
      // sim: the event kernel.
      {"sim.events", "count", kLower, 0.0, X, L},
      {"sim.events_per_file", "count", kLower, 0.0, X, L},
      {"sim.us_per_event", "us", kLower, 0.0, W, T},
      {"sim.purges", "count", kLower, 0.0, X, L},
      {"sim.queue_depth_max", "count", kLower, 0.0, X, L},
      // net: the fluid solver.
      {"net.touches", "count", kLower, 0.0, X, L},
      {"net.reallocations", "count", kLower, 0.0, X, L},
      {"net.component_solves", "count", kLower, 0.0, X, L},
      {"net.flows_per_solve", "count", kLower, 0.0, X, L},
      {"net.max_solve_flows", "count", kLower, 0.0, X, L},
      // gridftp: transfers, retries, integrity.
      {"gridftp.transfers_started", "count", kLower, 0.0, X, L},
      {"gridftp.success_ratio", "frac", kHigher, 0.0, X, L},
      {"gridftp.retries", "count", kLower, 0.0, X, L},
      {"gridftp.attempt_timeouts", "count", kLower, 0.0, X, L},
      {"gridftp.restarts", "count", kLower, 0.0, X, L},
      {"gridftp.backoff_s", "s", kLower, 0.0, X, L},
      {"gridftp.checksum_failures", "count", kLower, 0.0, X, L},
      {"gridftp.corruption_refetches", "count", kLower, 0.0, X, L},
      {"gridftp.channel_reuse_ratio", "frac", kHigher, 0.0, X, L},
      {"gridftp.auth_handshakes", "count", kLower, 0.0, X, L},
      // hrm + tape.
      {"hrm.cache_hit_ratio", "frac", kHigher, 0.0, X, L},
      {"hrm.stage_wait_p50_s", "s", kLower, 0.0, X, T},
      {"hrm.stage_wait_p99_s", "s", kLower, 0.0, X, T},
      {"hrm.tape_mounts", "count", kLower, 0.0, X, L},
      {"hrm.stages_completed", "count", kLower, 0.0, X, L},
      // rm: the request manager and its breakers.
      {"rm.files_submitted", "count", kLower, 0.0, X, L},
      {"rm.retries", "count", kLower, 0.0, X, L},
      {"rm.stage_retries", "count", kLower, 0.0, X, L},
      {"rm.replica_switches", "count", kLower, 0.0, X, L},
      {"rm.breaker_opens", "count", kLower, 0.0, X, L},
      {"rm.breaker_short_circuits", "count", kLower, 0.0, X, L},
      // replica/directory/mds/rpc and storage set-up.
      {"catalog.seed_s", "s", kLower, 0.0, W, T},
      {"storage.populate_s", "s", kLower, 0.0, W, T},
      // campaign.
      {"campaign.catalog_s", "s", kLower, 0.0, W, T},
      {"campaign.plan_s", "s", kLower, 0.0, W, T},
      {"campaign.retries", "count", kLower, 0.0, X, L},
      {"campaign.failures", "count", kLower, 0.0, X, L},
      // obs: recording and reporting.
      {"obs.spans", "count", kLower, 0.0, X, L},
      {"obs.spans_dropped", "count", kLower, 0.0, X, L},
      {"obs.flight_events", "count", kLower, 0.0, X, L},
      {"obs.telemetry_samples", "count", kLower, 0.0, X, L},
      {"obs.manifest_s", "s", kLower, 0.0, W, T},
      {"obs.profile_s", "s", kLower, 0.0, W, T},
      {"obs.json_s", "s", kLower, 0.0, W, T},
      {"obs.manifest_kb", "KiB", kLower, 0.0, X, L},
      {"obs.task_tracing_s", "s", kLower, 0.0, W, T},
      {"obs.task_tracing_mb", "MB", kLower, 0.0, W, T},
      // obs profile: where the simulated time of each file went.
      {"profile.queue_wait_s", "s", kLower, 0.0, X, T},
      {"profile.breaker_wait_s", "s", kLower, 0.0, X, T},
      {"profile.backoff_s", "s", kLower, 0.0, X, T},
      {"profile.stage_s", "s", kLower, 0.0, X, T},
      {"profile.network_s", "s", kLower, 0.0, X, T},
      {"profile.checksum_s", "s", kLower, 0.0, X, T},
      {"profile.overhead_s", "s", kLower, 0.0, X, T},
      // sim/explore: the schedule sweep.
      {"explore.schedules", "count", kHigher, 0.0, X, L},
      {"explore.invariants_checked", "count", kHigher, 0.0, X, L},
      {"explore.replays", "count", kHigher, 0.0, X, L},
      {"explore.enumerate_s", "s", kLower, 0.0, W, T},
      {"explore.check_p50_ms", "ms", kLower, 0.0, W, T},
      {"explore.check_p99_ms", "ms", kLower, 0.0, W, T},
      // host: what the simulator costs per simulated file.
      {"host.us_per_file", "us", kLower, 0.0, W, L},
      {"host.allocs_per_file", "count", kLower, 0.0, X, L},
      {"host.setup_allocs", "count", kLower, 0.0, X, L},
      {"host.run_allocs", "count", kLower, 0.0, X, L},
      {"host.report_allocs", "count", kLower, 0.0, X, L},
      // The traced pass itself.
      {"trace.overhead_frac", "frac", kLower, 0.0, W, L},
  };
  return kMetrics;
}

const MetricDef* find_metric(std::string_view name) {
  for (const auto& m : metric_catalogue()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"fleet", "fleet-traced",
                                                  "archive", "explore"};
  return kNames;
}

int scaled(int n, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(n * scale)));
}

std::uint64_t round_seed(std::uint64_t seed, int round) {
  // Golden-ratio steps (wrapping) keep the rounds of nearby seeds apart.
  return seed + static_cast<std::uint64_t>(round) * 0x9e3779b97f4a7c15ULL;
}

// ---- EndToEnd ----

void EndToEnd::add_round(double round_setup_s, double round_run_s,
                         double round_makespan_s, double round_bytes,
                         const std::vector<double>& round_latency_s) {
  setup_s.push_back(round_setup_s);
  run_s.push_back(round_run_s);
  makespan_s += round_makespan_s;
  bytes += round_bytes;
  latency_s.insert(latency_s.end(), round_latency_s.begin(),
                   round_latency_s.end());
  if (rounds == 0) peak_rss_mb = bench::peak_rss_mb();
  ++rounds;
}

void EndToEnd::emit(RunResult& out) const {
  out.set("setup_s", median(setup_s));
  out.set("run_s", median(run_s));
  out.set("peak_rss_mb", peak_rss_mb);
  out.set("makespan_s", rounds > 0 ? makespan_s / rounds : 0.0);
  out.set("goodput_mbps",
          makespan_s > 0 ? common::to_mbps(bytes / makespan_s) : 0.0);
  out.set("latency_p50_s", quantile(latency_s, 0.50));
  out.set("latency_p99_s", quantile(latency_s, 0.99));
  out.set("latency_samples", static_cast<double>(latency_s.size()));
}

// ---- WallTrace ----

WallTrace::WallTrace(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

double WallTrace::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

WallTrace::Scope WallTrace::span(const char* name) {
  if (!enabled_) return Scope(nullptr, 0);
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  r.start_us = now_us();
  records_.push_back(r);
  open_.push_back(records_.size() - 1);
  return Scope(this, records_.size() - 1);
}

WallTrace::Scope::~Scope() {
  if (trace_ == nullptr) return;
  trace_->records_[index_].end_us = trace_->now_us();
  // Scopes are strictly nested, so the closing one is the innermost.
  trace_->open_.pop_back();
}

std::vector<double> WallTrace::durations(std::string_view name) const {
  std::vector<double> out;
  for (const auto& r : records_) {
    if (name == r.name && r.end_us >= 0) {
      out.push_back((r.end_us - r.start_us) / 1e6);
    }
  }
  return out;
}

bool WallTrace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const char* parent =
        r.parent < 0 ? "" : records_[static_cast<std::size_t>(r.parent)].name;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"esg-bench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent_id\":%ld,\"parent\":\"%s\"}}",
                 i == 0 ? "" : ",\n", r.name, r.start_us,
                 r.end_us - r.start_us, i + 1,
                 r.parent < 0 ? 0L : r.parent + 1, parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---- host counters ----

std::uint64_t allocations() { return g_allocations; }

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark.  getrusage's
  // ru_maxrss survives execve, so a child would report its parent's peak
  // whenever that is larger; it is the fallback only.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(WallTrace::Clock::time_point t0) {
  return std::chrono::duration<double>(WallTrace::Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// ---- RunResult ----

void RunResult::set(std::string name, double value) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(std::move(name), value);
}

double RunResult::get(std::string_view name) const {
  for (const auto& [n, v] : metrics_) {
    if (n == name) return v;
  }
  return 0.0;
}

bool RunResult::has(std::string_view name) const {
  for (const auto& [n, v] : metrics_) {
    if (n == name) return true;
  }
  return false;
}

void RunResult::check(bool ok, std::string what) {
  if (!ok) errors_.push_back(std::move(what));
}

}  // namespace esg::bench
