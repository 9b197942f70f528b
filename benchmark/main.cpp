// esg-bench: what the ESG grid reproduction costs to simulate, and what the
// simulated grid delivers, on four workloads.
//
//   esg-bench [--workload W] [--seed N] [--scale X]
//             [--repeat N | --seconds T] [--trace] [--json] [--out DIR]
//
// runs each workload (all four by default) in its own child process, one
// child at a time, and prints every metric as `workload metric value unit`.
// Each run plays kRounds rounds of its workload (see harness.hpp).
// --repeat N runs each workload N times and prints medians with their
// spread, flagging wall metrics whose IQR exceeds their bound and
// deterministic metrics that differ between runs.  --seconds T repeats
// until T seconds have passed.  --trace adds a traced rerun per run: it
// writes TRACE_<workload>.json (Chrome trace of the benchmark's calls into
// each layer) to --out and reports the per-layer metrics.  --json (with one
// --workload) ends the output with one JSON object holding the end-to-end
// metrics, or with --trace the per-layer ones, each the median over the
// runs.  The exit code is non-zero when any correctness check fails.
//
//   esg-bench --once --workload W [--seed N] [--scale X] [--trace]
//             [--task-tracing off] [--out DIR]
//
// is one in-process run, the child the modes above spawn.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace esg::bench {
namespace {

struct Cli {
  Options options;
  bool once = false;
  int repeat = 1;
  double seconds = 0.0;
  bool json = false;
};

int usage() {
  std::fputs(
      "usage: esg-bench [--workload W] [--seed N] [--scale X]\n"
      "                 [--repeat N | --seconds T] [--trace] [--json]"
      " [--out DIR]\n"
      "       esg-bench --once --workload W [--seed N] [--scale X] [--trace]\n"
      "                 [--task-tracing on|off] [--out DIR]\n"
      "workloads: fleet, fleet-traced, archive, explore\n",
      stderr);
  return 2;
}

bool known_workload(const std::string& w) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), w) != names.end();
}

bool parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--once") {
      cli.once = true;
    } else if (arg == "--trace") {
      cli.options.trace = true;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--scale" ||
               arg == "--repeat" || arg == "--seconds" || arg == "--out" ||
               arg == "--task-tracing") {
      const char* v = value();
      if (v == nullptr || *v == '\0') return false;
      char* end = nullptr;
      if (arg == "--workload") {
        cli.options.workload = v;
        if (!known_workload(v)) return false;
      } else if (arg == "--seed") {
        cli.options.seed = std::strtoull(v, &end, 10);
        if (*end != '\0') return false;
      } else if (arg == "--scale") {
        cli.options.scale = std::strtod(v, &end);
        if (*end != '\0' || !(cli.options.scale > 0.0)) return false;
      } else if (arg == "--repeat") {
        cli.repeat = static_cast<int>(std::strtol(v, &end, 10));
        if (*end != '\0' || cli.repeat < 1) return false;
      } else if (arg == "--seconds") {
        cli.seconds = std::strtod(v, &end);
        if (*end != '\0' || !(cli.seconds > 0.0)) return false;
      } else if (arg == "--out") {
        cli.options.out_dir = v;
      } else {
        if (std::strcmp(v, "on") != 0 && std::strcmp(v, "off") != 0) {
          return false;
        }
        cli.options.task_tracing = std::strcmp(v, "on") == 0;
      }
    } else {
      return false;
    }
  }
  if (cli.once && cli.options.workload.empty()) return false;
  if (cli.json && cli.options.workload.empty()) return false;
  if (cli.repeat > 1 && cli.seconds > 0) return false;
  return true;
}

std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- one in-process run ----

int run_once(const Options& o) {
  WallTrace trace(o.trace);
  RunResult r;
  if (o.workload == "fleet") {
    r = run_fleet(o, false, trace);
  } else if (o.workload == "fleet-traced") {
    r = run_fleet(o, true, trace);
  } else if (o.workload == "archive") {
    r = run_archive(o, trace);
  } else {
    r = run_explore(o, trace);
  }
  r.set("attempted", static_cast<double>(r.attempted));
  r.set("failed", static_cast<double>(r.failed));
  r.set("failed_frac", r.attempted > 0 ? static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted)
                                       : 1.0);
  // A per-layer metric reads 0 on a workload that does not exercise the
  // layer or cannot see it; trace.* comes from the orchestrator.
  for (const auto& m : metric_catalogue()) {
    if (m.report == Report::layer && !r.has(m.name) &&
        std::strncmp(m.name, "trace.", 6) != 0) {
      r.set(m.name, 0.0);
    }
  }
  for (const auto& [name, value] : r.metrics()) {
    if (find_metric(name) == nullptr) {
      std::fprintf(stderr, "esg-bench: %s: metric %s is not catalogued\n",
                   o.workload.c_str(), name.c_str());
      return 2;
    }
  }
  for (const auto& m : metric_catalogue()) {
    if (!r.has(m.name)) continue;
    std::printf("%s %s %s %s\n", o.workload.c_str(), m.name,
                format_value(r.get(m.name)).c_str(), m.unit);
  }
  std::fflush(stdout);
  if (o.trace) {
    const std::string path = o.out_dir + "/TRACE_" + o.workload + ".json";
    if (!trace.write_chrome(path)) {
      std::fprintf(stderr, "esg-bench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  for (const auto& e : r.errors()) {
    std::fprintf(stderr, "esg-bench: %s: check failed: %s\n",
                 o.workload.c_str(), e.c_str());
  }
  return r.errors().empty() ? 0 : 1;
}

// ---- orchestration: one child process per run ----

struct Sample {
  bool ok = false;
  std::map<std::string, double> metrics;
};

std::string self_path() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "esg-bench";
  buf[n] = '\0';
  return buf;
}

Sample spawn_once(const Options& o, bool traced, bool task_tracing) {
  std::vector<std::string> args = {self_path(),
                                   "--once",
                                   "--workload",
                                   o.workload,
                                   "--seed",
                                   std::to_string(o.seed),
                                   "--scale",
                                   format_value(o.scale),
                                   "--out",
                                   o.out_dir,
                                   "--task-tracing",
                                   task_tracing ? "on" : "off"};
  if (traced) args.push_back("--trace");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  Sample s;
  int fds[2];
  if (pipe(fds) != 0) return s;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (rc != 0) return s;
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  s.ok = waited == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string workload, name, value;
    if (fields >> workload >> name >> value && workload == o.workload) {
      s.metrics[name] = std::strtod(value.c_str(), nullptr);
    }
  }
  return s;
}

/// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 2) return {v.empty() ? 0.0 : v[0], v.empty() ? 0.0 : v[0],
                     v.empty() ? 0.0 : v[0]};
  std::vector<double> q;
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i < 4; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q.push_back((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0);
  }
  return q;
}

struct Aggregate {
  std::string workload;
  bool ok = true;
  double attempted = 0;
  double failed = 0;
  int runs = 0;
  std::map<std::string, std::vector<double>> values;  // per metric, per run
  std::map<std::string, double> medians;               // what --json reports
};

double median_of(const std::vector<Sample>& set, const char* name) {
  std::vector<double> v;
  for (const auto& s : set) {
    auto it = s.metrics.find(name);
    if (it != s.metrics.end()) v.push_back(it->second);
  }
  return median(v);
}

Aggregate run_workload(const Cli& cli, const std::string& workload) {
  Options o = cli.options;
  o.workload = workload;
  Aggregate agg;
  agg.workload = workload;
  std::vector<Sample> plain, traced, untasked;
  const auto t0 = WallTrace::Clock::now();
  for (;;) {
    plain.push_back(spawn_once(o, false, true));
    if (o.trace) {
      traced.push_back(spawn_once(o, true, true));
      if (workload == "fleet-traced") {
        untasked.push_back(spawn_once(o, false, false));
      }
    }
    ++agg.runs;
    const bool more = cli.seconds > 0 ? seconds_since(t0) < cli.seconds
                                      : agg.runs < cli.repeat;
    if (!more) break;
  }
  for (const auto* set : {&plain, &traced, &untasked}) {
    for (const auto& s : *set) {
      agg.ok = agg.ok && s.ok;
      auto it = s.metrics.find("attempted");
      agg.attempted += it == s.metrics.end() ? 0 : it->second;
      it = s.metrics.find("failed");
      agg.failed += it == s.metrics.end() ? 0 : it->second;
    }
  }
  // End-to-end metrics come from the untraced runs, everything else from
  // the traced runs when there are any.
  for (const auto& m : metric_catalogue()) {
    const auto& from =
        o.trace && m.report != Report::end_to_end ? traced : plain;
    std::vector<double> v;
    for (const auto& s : from) {
      auto it = s.metrics.find(m.name);
      if (it != s.metrics.end()) v.push_back(it->second);
    }
    if (v.size() == from.size() && !v.empty()) {
      agg.values[m.name] = v;
      agg.medians[m.name] = median(v);
    }
  }
  // The traced pass's own costs, each a difference of medians.
  if (o.trace) {
    const double untraced_run = median_of(plain, "run_s");
    agg.medians["trace.overhead_frac"] =
        untraced_run > 0 ? median_of(traced, "run_s") / untraced_run - 1.0
                         : 0.0;
    if (workload == "fleet-traced") {
      agg.medians["obs.task_tracing_s"] =
          untraced_run - median_of(untasked, "run_s");
      agg.medians["obs.task_tracing_mb"] = median_of(plain, "peak_rss_mb") -
                                           median_of(untasked, "peak_rss_mb");
    }
  }
  return agg;
}

void print_aggregate(const Aggregate& agg, const Cli& cli) {
  std::vector<std::string> flags;
  for (const auto& m : metric_catalogue()) {
    auto it = agg.medians.find(m.name);
    if (it == agg.medians.end()) continue;
    auto vit = agg.values.find(m.name);
    if (agg.runs == 1 || vit == agg.values.end()) {
      std::printf("%s %s %s %s\n", agg.workload.c_str(), m.name,
                  format_value(it->second).c_str(), m.unit);
      continue;
    }
    const auto q = quartiles(vit->second);
    const double iqr = q[2] - q[0];
    const double spread = it->second != 0 ? iqr / std::fabs(it->second) : 0.0;
    std::printf("%s %s %s %s iqr=%.6g (%.2f%%) n=%zu\n",
                agg.workload.c_str(), m.name,
                format_value(it->second).c_str(), m.unit, iqr,
                100.0 * spread, vit->second.size());
    const auto& v = vit->second;
    if (m.kind == Kind::wall && m.bound > 0 && spread > m.bound) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %s: IQR/median %.4f > bound %.4f",
                    agg.workload.c_str(), m.name, spread, m.bound);
      flags.push_back(buf);
    }
    if (m.kind == Kind::exact &&
        std::any_of(v.begin(), v.end(), [&](double x) { return x != v[0]; })) {
      flags.push_back(agg.workload + " " + m.name +
                      ": exact metric differs between runs");
    }
  }
  if (cli.options.trace) {
    std::printf("# %s: spans in %s/TRACE_%s.json\n", agg.workload.c_str(),
                cli.options.out_dir.c_str(), agg.workload.c_str());
  }
  for (const auto& f : flags) std::printf("FLAG %s\n", f.c_str());
  if (!agg.ok) {
    std::printf("FAILED %s: a correctness check failed (see stderr)\n",
                agg.workload.c_str());
  }
  std::fflush(stdout);
}

/// The result line: correctness, work counts and the selected metrics.
bool print_json(const Aggregate& agg, bool traced) {
  const Report want = traced ? Report::layer : Report::end_to_end;
  std::string metrics;
  bool complete = true;
  for (const auto& m : metric_catalogue()) {
    if (m.report != want) continue;
    auto it = agg.medians.find(m.name);
    if (it == agg.medians.end()) {
      std::fprintf(stderr, "esg-bench: %s: no value for %s\n",
                   agg.workload.c_str(), m.name);
      complete = false;
      continue;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + format_value(it->second) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
      "\"metrics\": {%s}}\n",
      agg.ok && complete ? "true" : "false", std::max(1.0, agg.attempted),
      agg.failed, metrics.c_str());
  std::fflush(stdout);
  return complete;
}

}  // namespace
}  // namespace esg::bench

int main(int argc, char** argv) {
  using namespace esg::bench;
  Cli cli;
  if (!parse(argc, argv, cli)) return usage();
  if (cli.once) return run_once(cli.options);

  std::vector<std::string> workloads =
      cli.options.workload.empty()
          ? workload_names()
          : std::vector<std::string>{cli.options.workload};
  bool ok = true;
  for (const auto& w : workloads) {
    const Aggregate agg = run_workload(cli, w);
    print_aggregate(agg, cli);
    ok = ok && agg.ok;
    if (cli.json && !print_json(agg, cli.options.trace)) ok = false;
  }
  return ok ? 0 : 1;
}
