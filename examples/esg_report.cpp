// esg-report: offline analysis of run manifests (DESIGN.md §9, §11).
//
// A RunManifest (written by the benches, or by any code calling
// obs::capture_manifest) carries the whole identity of a simulated run:
// seed, topology, fault-plan fingerprint, flight-recorder events, final
// metrics snapshot, headline bench numbers — and, when the run streamed
// telemetry, the alert timeline and condensed per-series history.  This
// tool retells that story without re-running anything:
//
//   esg-report summary       MANIFEST.json
//   esg-report postmortem    MANIFEST.json [file...]
//   esg-report slo           MANIFEST.json 'rule' ['rule'...]
//   esg-report timeline      MANIFEST.json [series-substr...]
//   esg-report alerts        MANIFEST.json
//   esg-report critical-path MANIFEST.json [file...]
//   esg-report flame         MANIFEST.json [file] [--out FILE]
//   esg-report diff          BASELINE.json CURRENT.json [--tolerance F]
//                            [--ignore SUBSTR]... [--exact]
//
// `critical-path` renders the time-where table plus each file's critical
// path from the manifest's profile section (no file arguments = the tail
// exemplars' files).  `flame` emits collapsed stacks (flamegraph.pl /
// speedscope format) for the whole run — or, with a file argument, just
// that request's critical path — on stdout or into --out.
//
// `postmortem` with no file argument reports every failed or degraded
// transfer.  `slo` rules look like "rm_files_failed_total == 0" or
// "p99(rm_file_duration_seconds) < 300".  `timeline` renders the retained
// rollup history of each telemetry series (filtered by name substring) as
// per-bucket rows and a sparkline; `alerts` prints every firing with its
// root-cause correlation against the injected fault events.  `diff` is the
// regression watchdog: identity fields and the alert timeline compare
// exactly, metrics and bench values under the tolerance; any drift (or
// failed SLO) exits nonzero so the bench gate can fail a build.
//
// Every subcommand validates its arguments the same way: a bad subcommand,
// a missing operand or an unreadable manifest prints a one-line error plus
// the usage text and exits 2 (analysis findings — failed SLOs, drift —
// exit 1; only a clean run exits 0).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/alert.hpp"
#include "obs/flame.hpp"
#include "obs/manifest.hpp"
#include "obs/postmortem.hpp"
#include "obs/slo.hpp"

namespace {

const char kUsage[] =
    "usage:\n"
    "  esg-report summary       MANIFEST.json\n"
    "  esg-report postmortem    MANIFEST.json [file...]\n"
    "  esg-report slo           MANIFEST.json RULE [RULE...]\n"
    "  esg-report timeline      MANIFEST.json [series-substr...]\n"
    "  esg-report alerts        MANIFEST.json\n"
    "  esg-report critical-path MANIFEST.json [file...]\n"
    "  esg-report flame         MANIFEST.json [file] [--out FILE]\n"
    "  esg-report diff          BASELINE.json CURRENT.json [--tolerance F]\n"
    "                           [--ignore SUBSTR]... [--exact]\n";

int usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "esg-report: %s\n", error.c_str());
  std::fputs(kUsage, stderr);
  return 2;
}

esg::obs::RunManifest load_or_die(const std::string& path) {
  auto m = esg::obs::load_manifest(path);
  if (!m) {
    std::fprintf(stderr, "esg-report: %s: %s\n", path.c_str(),
                 m.error().to_string().c_str());
    std::exit(2);
  }
  return std::move(*m);
}

int cmd_summary(const std::string& path) {
  const auto m = load_or_die(path);
  std::printf("manifest   %s\n", m.name.c_str());
  std::printf("seed       %llu\n", static_cast<unsigned long long>(m.seed));
  std::printf("topology   %s\n", m.topology.c_str());
  std::printf("faults     timeline_hash=%016llx\n",
              static_cast<unsigned long long>(m.fault_timeline_hash));
  std::printf("flight     digest=%016llx recorded=%llu evicted=%llu\n",
              static_cast<unsigned long long>(m.flight_digest),
              static_cast<unsigned long long>(m.events_recorded),
              static_cast<unsigned long long>(m.events_evicted));
  std::printf("metrics    %zu series\n", m.metrics.entries.size());
  std::printf("telemetry  %zu series, %zu alerts\n", m.series.size(),
              m.alerts.size());
  for (const auto& b : m.bench) {
    std::printf("bench      %s = %g\n", b.name.c_str(), b.value);
  }
  const auto degraded = esg::obs::degraded_files(m.events);
  std::printf("transfers  %zu tracked, %zu failed/degraded\n",
              esg::obs::postmortem_files(m.events).size(), degraded.size());
  for (const auto& f : degraded) std::printf("  degraded: %s\n", f.c_str());
  if (m.has_profile) {
    std::printf("profile    %s: %llu files, total %.3fs\n",
                m.profile.root_span.c_str(),
                static_cast<unsigned long long>(m.profile.files_profiled),
                esg::common::to_seconds(m.profile.total));
  }
  // Dropped spans silently invalidate profiles and traces — shout.
  double dropped = 0.0;
  for (const auto& e : m.metrics.entries) {
    if (e.name == "obs_trace_dropped") dropped = std::max(dropped, e.value);
  }
  if (m.has_profile) {
    dropped = std::max(dropped, static_cast<double>(m.profile.dropped_spans));
  }
  if (dropped > 0) {
    std::printf(
        "\n*** WARNING: %.0f trace spans were DROPPED (tracer buffer full) "
        "***\n*** traces, profiles and flame exports from this run are "
        "incomplete — raise Tracer::set_capacity ***\n",
        dropped);
  }
  return 0;
}

int cmd_critical_path(const std::string& path,
                      std::vector<std::string> files) {
  const auto m = load_or_die(path);
  if (!m.has_profile) {
    std::fprintf(stderr, "esg-report: %s has no profile section\n",
                 path.c_str());
    return 2;
  }
  std::fputs(m.profile.render().c_str(), stdout);
  if (files.empty()) {
    // Default to the tail exemplars' files, slowest categories first.
    for (const auto& ex : m.profile.exemplars) {
      if (std::find(files.begin(), files.end(), ex.file) == files.end()) {
        files.push_back(ex.file);
      }
    }
  }
  int missing = 0;
  for (const auto& f : files) {
    const esg::obs::FileProfile* fp = m.profile.find(f);
    if (fp == nullptr) {
      std::printf("\n%s: no per-file profile row in the manifest "
                  "(condensed to exemplars?)\n",
                  f.c_str());
      ++missing;
      continue;
    }
    std::fputs("\n", stdout);
    std::fputs(esg::obs::render_critical_path(*fp).c_str(), stdout);
  }
  return missing == 0 ? 0 : 1;
}

int cmd_flame(const std::vector<std::string>& args) {
  std::string path, file, out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) return usage("--out needs a value");
      out_path = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage("unknown flame option '" + args[i] + "'");
    } else if (path.empty()) {
      path = args[i];
    } else if (file.empty()) {
      file = args[i];
    } else {
      return usage("flame takes one manifest and at most one file");
    }
  }
  if (path.empty()) return usage("flame needs a manifest");
  const auto m = load_or_die(path);
  if (!m.has_profile) {
    std::fprintf(stderr, "esg-report: %s has no profile section\n",
                 path.c_str());
    return 2;
  }
  std::string flame;
  if (file.empty()) {
    flame = esg::obs::to_collapsed_stacks(m.profile);
  } else {
    const esg::obs::FileProfile* fp = m.profile.find(file);
    if (fp == nullptr) {
      std::fprintf(stderr,
                   "esg-report: no per-file profile row for '%s' in %s\n",
                   file.c_str(), path.c_str());
      return 1;
    }
    flame = esg::obs::to_collapsed_stacks(*fp, m.profile.root_span);
  }
  if (out_path.empty()) {
    std::fputs(flame.c_str(), stdout);
    return 0;
  }
  if (!esg::obs::write_file(out_path, flame)) {
    std::fprintf(stderr, "esg-report: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote collapsed stacks to %s\n", out_path.c_str());
  return 0;
}

int cmd_postmortem(const std::string& path, std::vector<std::string> files) {
  const auto m = load_or_die(path);
  if (files.empty()) files = esg::obs::degraded_files(m.events);
  if (files.empty()) {
    std::printf("no failed or degraded transfers in %s\n", path.c_str());
    return 0;
  }
  for (const auto& f : files) {
    const auto pm = esg::obs::build_postmortem(m, f);
    std::fputs(pm.render().c_str(), stdout);
    std::fputs("\n", stdout);
  }
  return 0;
}

int cmd_slo(const std::string& path, const std::vector<std::string>& exprs) {
  const auto m = load_or_die(path);
  std::vector<esg::obs::SloRule> rules;
  for (const auto& e : exprs) {
    auto rule = esg::obs::parse_slo_rule(e);
    if (!rule) {
      std::fprintf(stderr, "esg-report: bad rule '%s': %s\n", e.c_str(),
                   rule.error().to_string().c_str());
      return 2;
    }
    rules.push_back(std::move(*rule));
  }
  const auto report = esg::obs::evaluate_slos(rules, m.metrics);
  std::fputs(report.render().c_str(), stdout);
  return report.all_pass ? 0 : 1;
}

// One telemetry series: life aggregates, then the retained rollup buckets
// as rows plus a min-max-scaled sparkline of the bucket means.
void print_series(const esg::obs::SeriesSummary& s) {
  std::string label = s.name;
  if (!s.labels.empty()) {
    label += "{";
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
      if (i) label += ",";
      label += s.labels[i].first + "=" + s.labels[i].second;
    }
    label += "}";
  }
  std::printf("%s\n", label.c_str());
  std::printf("  life: %llu samples, min %g, max %g, mean %g\n",
              static_cast<unsigned long long>(s.samples), s.min, s.max,
              s.samples ? s.sum / static_cast<double>(s.samples) : 0.0);
  if (s.points.empty()) return;
  double lo = s.points.front().mean();
  double hi = lo;
  for (const auto& p : s.points) {
    lo = std::min(lo, p.mean());
    hi = std::max(hi, p.mean());
  }
  static const char kRamp[] = " _.-=+*#%@";
  std::string spark;
  for (const auto& p : s.points) {
    const double f = hi > lo ? (p.mean() - lo) / (hi - lo) : 0.5;
    spark += kRamp[std::max(0, std::min(9, static_cast<int>(f * 9.0 + 0.5)))];
  }
  std::printf("  |%s|  (%g .. %g)\n", spark.c_str(), lo, hi);
  for (const auto& p : s.points) {
    std::printf("  [%8s] min %-12g max %-12g mean %-12g n=%llu\n",
                esg::common::format_time(p.start).c_str(), p.min, p.max,
                p.mean(), static_cast<unsigned long long>(p.count));
  }
}

int cmd_timeline(const std::string& path,
                 const std::vector<std::string>& filters) {
  const auto m = load_or_die(path);
  std::size_t shown = 0;
  for (const auto& s : m.series) {
    if (!filters.empty() &&
        std::none_of(filters.begin(), filters.end(), [&](const auto& f) {
          return s.name.find(f) != std::string::npos;
        })) {
      continue;
    }
    print_series(s);
    ++shown;
  }
  if (shown == 0) {
    std::printf("no telemetry series%s in %s\n",
                filters.empty() ? "" : " matching the filters", path.c_str());
  }
  if (!m.alerts.empty()) {
    std::printf("\nalert timeline:\n%s",
                esg::obs::render_alerts(m.alerts).c_str());
  }
  return 0;
}

int cmd_alerts(const std::string& path) {
  const auto m = load_or_die(path);
  if (m.alerts.empty()) {
    std::printf("no alerts fired in %s\n", path.c_str());
    return 0;
  }
  std::fputs(esg::obs::render_alerts(m.alerts).c_str(), stdout);
  std::printf("\nroot-cause correlation:\n");
  for (const auto& a : m.alerts) {
    const auto* fault = esg::obs::attribute_fault(m.events, a.fired_at);
    if (fault != nullptr) {
      std::printf("  %-24s <- %s %s (%s, at %s)\n", a.rule.c_str(),
                  fault->name.c_str(), fault->target.c_str(),
                  std::string(fault->attr("description")).c_str(),
                  esg::common::format_time(fault->at).c_str());
    } else {
      std::printf("  %-24s <- no injected fault in the recency window\n",
                  a.rule.c_str());
    }
  }
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  std::string baseline_path, current_path;
  esg::obs::DriftTolerance tolerance;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--tolerance") {
      if (i + 1 >= args.size()) return usage("--tolerance needs a value");
      tolerance.relative = std::atof(args[++i].c_str());
    } else if (a == "--ignore") {
      if (i + 1 >= args.size()) return usage("--ignore needs a value");
      tolerance.ignore.push_back(args[++i]);
    } else if (a == "--exact") {
      tolerance.relative = 0.0;
      tolerance.absolute = 0.0;
    } else if (!a.empty() && a[0] == '-') {
      return usage("unknown diff option '" + a + "'");
    } else if (baseline_path.empty()) {
      baseline_path = a;
    } else if (current_path.empty()) {
      current_path = a;
    } else {
      return usage("diff takes exactly two manifests");
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    return usage("diff needs BASELINE.json and CURRENT.json");
  }
  const auto baseline = load_or_die(baseline_path);
  const auto current = load_or_die(current_path);
  const auto report = esg::obs::diff_manifests(baseline, current, tolerance);
  std::fputs(report.render().c_str(), stdout);
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("no subcommand given");
  const std::string cmd = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);
  if (cmd == "summary") {
    if (rest.size() != 1) return usage("summary takes exactly one manifest");
    return cmd_summary(rest[0]);
  }
  if (cmd == "postmortem") {
    if (rest.empty()) return usage("postmortem needs a manifest");
    const std::string path = rest.front();
    rest.erase(rest.begin());
    return cmd_postmortem(path, std::move(rest));
  }
  if (cmd == "slo") {
    if (rest.size() < 2) return usage("slo needs a manifest and a rule");
    const std::string path = rest.front();
    rest.erase(rest.begin());
    return cmd_slo(path, rest);
  }
  if (cmd == "timeline") {
    if (rest.empty()) return usage("timeline needs a manifest");
    const std::string path = rest.front();
    rest.erase(rest.begin());
    return cmd_timeline(path, rest);
  }
  if (cmd == "alerts") {
    if (rest.size() != 1) return usage("alerts takes exactly one manifest");
    return cmd_alerts(rest[0]);
  }
  if (cmd == "critical-path") {
    if (rest.empty()) return usage("critical-path needs a manifest");
    const std::string path = rest.front();
    rest.erase(rest.begin());
    return cmd_critical_path(path, std::move(rest));
  }
  if (cmd == "flame") return cmd_flame(rest);
  if (cmd == "diff") return cmd_diff(rest);
  return usage("unknown subcommand '" + cmd + "'");
}
