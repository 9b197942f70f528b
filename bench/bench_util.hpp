// Shared helpers for the reproduction benches: paper-vs-measured table
// printing, series sparklines, BENCH_<name>.json output, and SimpleWorld,
// the minimal two-site scenario::Grid the ablation benches run on.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/grid.hpp"

namespace esg::bench {

/// A bench must not measure a half-seeded world: exit non-zero when any
/// catalog, MDS or storage seeding step failed.
inline void require_seeded(const common::Status& seeding) {
  if (seeding.ok()) return;
  std::printf("\nRUN FAILED: seeding the world: %s\n",
              seeding.error().to_string().c_str());
  std::exit(1);
}

/// One GridFTP server "server" at site "src", one client host "client" at
/// site "dst", a single WAN link "wan" between them, all on the grid-wide
/// 1 Gb/s host rates.  Each bench tweaks rates/latency/loss.
struct SimpleWorld : scenario::Grid {
  net::Link& wan;
  // The one server and client; they hide Grid's server(host) and client()
  // lookups, which find the same two objects.
  gridftp::GridFtpServer& server;
  gridftp::GridFtpClient& client;

  SimpleWorld(common::Rate link_rate, common::SimDuration one_way_latency,
              double loss = 0.0)
      : Grid(7),
        wan(add_wan(link_rate, one_way_latency, loss)),
        server(add_server("server", "src")),
        client(add_client("client", "dst")) {}

  void add_file(const std::string& name, common::Bytes size) {
    (void)server.storage().put(storage::FileObject::synthetic(name, size));
  }

  /// Fetch a file and return the elapsed simulated seconds (or -1 on error).
  double timed_get(const std::string& name, gridftp::TransferOptions opts) {
    bool done = false;
    bool ok = false;
    const auto t0 = sim.now();
    client.get({"server", name}, "local/" + name +
                   std::to_string(fetch_seq_++), opts, nullptr,
               [&](gridftp::TransferResult r) {
                 ok = r.status.ok();
                 done = true;
               });
    sim.run_while_pending([&] { return done; });
    return ok ? common::to_seconds(sim.now() - t0) : -1.0;
  }

 private:
  net::Link& add_wan(common::Rate link_rate, common::SimDuration latency,
                     double loss) {
    net.add_site("src");
    net.add_site("dst");
    return *net.add_link({.name = "wan", .site_a = "src", .site_b = "dst",
                          .capacity = link_rate, .latency = latency,
                          .loss = loss});
  }

  std::uint64_t fetch_seq_ = 0;
};

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

struct Row {
  std::string metric;
  std::string paper;
  std::string measured;
};

inline void print_table(const std::vector<Row>& rows) {
  std::size_t w0 = 6, w1 = 5;
  for (const auto& r : rows) {
    w0 = std::max(w0, r.metric.size());
    w1 = std::max(w1, r.paper.size());
  }
  std::printf("%-*s | %-*s | %s\n", static_cast<int>(w0), "metric",
              static_cast<int>(w1), "paper", "measured");
  std::printf("%s\n", std::string(w0 + w1 + 16, '-').c_str());
  for (const auto& r : rows) {
    std::printf("%-*s | %-*s | %s\n", static_cast<int>(w0), r.metric.c_str(),
                static_cast<int>(w1), r.paper.c_str(), r.measured.c_str());
  }
}

/// Condense telemetry series into a JSON array for the BENCH file: one
/// object per series whose name contains any `include` substring (empty =
/// all), carrying the coarse rollup buckets as (start_s, min, max, mean)
/// rows — "p99 per-file latency over time" as data, not a sparkline.
inline std::string telemetry_series_json(
    const obs::TimeSeriesStore& store,
    const std::vector<std::string>& include) {
  auto fmt = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  std::string out = "[";
  bool first_series = true;
  store.for_each([&](const std::string& name, const obs::Labels& labels,
                     const obs::TimeSeries& s) {
    if (!include.empty()) {
      bool keep = false;
      for (const auto& needle : include) {
        if (name.find(needle) != std::string::npos) {
          keep = true;
          break;
        }
      }
      if (!keep) return;
    }
    if (!first_series) out += ",";
    first_series = false;
    out += "\n    {\"name\":\"" + obs::json_escape(name) +
           "\",\"labels\":{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i) out += ",";
      out += "\"" + obs::json_escape(labels[i].first) + "\":\"" +
             obs::json_escape(labels[i].second) + "\"";
    }
    out += "},\"points\":[";
    const auto points = s.coarse();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i) out += ",";
      out += "{\"start_s\":" + fmt(common::to_seconds(points[i].start)) +
             ",\"min\":" + fmt(points[i].min) +
             ",\"max\":" + fmt(points[i].max) +
             ",\"mean\":" + fmt(points[i].mean()) + "}";
    }
    out += "]}";
  });
  out += "\n  ]";
  return out;
}

/// Write BENCH_<name>.json: the paper-vs-measured rows plus the full obs
/// metrics snapshot — and, when `series_json` (telemetry_series_json) is
/// non-empty, the condensed telemetry history, and when `profile_json`
/// (obs::profile_to_json) is non-empty, the time-where profile — so
/// downstream tooling can diff runs without scraping the printed tables.
inline void write_bench_json(const std::string& name,
                             const std::vector<Row>& rows,
                             const obs::MetricsSnapshot& snapshot,
                             const std::string& series_json = "",
                             const std::string& profile_json = "") {
  std::string out = "{\n  \"bench\": \"" + obs::json_escape(name) +
                    "\",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"metric\":\"" + obs::json_escape(rows[i].metric) +
           "\",\"paper\":\"" + obs::json_escape(rows[i].paper) +
           "\",\"measured\":\"" + obs::json_escape(rows[i].measured) +
           "\"}";
  }
  out += "\n  ],\n  \"metrics\": " + obs::to_json(snapshot);
  if (!series_json.empty()) out += ",\n  \"series\": " + series_json;
  if (!profile_json.empty()) out += ",\n  \"profile\": " + profile_json;
  out += "\n}\n";
  const std::string path = "BENCH_" + name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s (%zu metric series)\n", path.c_str(),
                snapshot.entries.size());
  }
}

/// Print a (time, rate) series as minute-resolution rows plus an ASCII
/// sparkline — the Figure 8 shape at a glance.
inline void print_series(
    const std::vector<std::pair<common::SimTime, common::Rate>>& series,
    common::SimDuration bucket, double full_scale_mbps) {
  static const char kRamp[] = " _.-=+*#%@";
  std::string line;
  for (const auto& [t, r] : series) {
    (void)t;
    const double f = common::to_mbps(r) / full_scale_mbps;
    const int idx = std::max(0, std::min(9, static_cast<int>(f * 9.0 + 0.5)));
    line += kRamp[idx];
  }
  std::printf("bandwidth sparkline (one char per %s, full scale %.0f Mb/s):\n",
              common::format_time(bucket).c_str(), full_scale_mbps);
  // Wrap at 100 chars.
  for (std::size_t i = 0; i < line.size(); i += 100) {
    std::printf("  |%s|\n", line.substr(i, 100).c_str());
  }
}

/// Aggregate a fine-grained sampler series into coarser buckets.
inline std::vector<std::pair<common::SimTime, common::Rate>> coarsen(
    const std::vector<std::pair<common::SimTime, common::Rate>>& series,
    common::SimDuration from_bucket, common::SimDuration to_bucket) {
  std::vector<std::pair<common::SimTime, common::Rate>> out;
  if (series.empty() || to_bucket <= from_bucket) return series;
  const auto factor =
      static_cast<std::size_t>(to_bucket / from_bucket);
  for (std::size_t i = 0; i < series.size(); i += factor) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t j = i; j < std::min(i + factor, series.size()); ++j) {
      sum += series[j].second;
      ++n;
    }
    out.emplace_back(series[i].first, n ? sum / n : 0.0);
  }
  return out;
}

}  // namespace esg::bench
