// Figure 8 reproduction: 14 hours of fault-tolerant parallel transfers
// between Dallas and Chicago (ANL) over commodity internet.
//
// Paper setup (§7): a Linux workstation with a 100 Mb/s NIC repeatedly
// transferring a 2 GB file to a similar workstation at ANL, with parallel
// TCP streams at varying levels up to eight.  Reported behaviour:
//
//   * aggregate bandwidth reaches ~80 Mb/s — below the NIC, "most likely
//     due to disk bandwidth limitations";
//   * drops to zero during real outages (a SCinet power failure, DNS
//     problems, backbone problems on the exhibit floor), with interrupted
//     transfers continuing "as soon as the network was restored" thanks to
//     GridFTP restart;
//   * frequent short dips because that era's GridFTP destroyed and rebuilt
//     its TCP connections between consecutive transfers (the observation
//     that motivated data-channel caching);
//   * visible steps up in aggregate bandwidth when parallelism increases
//     toward the end of the run.
#include <memory>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "gridftp/reliability.hpp"
#include "scenario/grid.hpp"
#include "sim/failure.hpp"

using namespace esg;
using common::Bytes;
using common::kHour;
using common::kMillisecond;
using common::kMinute;
using common::kSecond;
using common::Rate;
using common::SimTime;

namespace {

constexpr Bytes kFileSize = 2 * common::kGB;
constexpr common::SimDuration kRunLength = 14 * kHour;

// Parallelism schedule over the 14 hours (paper: varying, up to 8, with
// increases toward the right side of the graph).
int parallelism_at(SimTime t) {
  const double h = common::to_seconds(t) / 3600.0;
  if (h < 4.0) return 2;
  if (h < 8.0) return 4;
  if (h < 11.0) return 6;
  return 8;
}

struct Fig8World : scenario::Grid {
  common::BandwidthSampler sampler{kSecond};
  int transfers_completed = 0;
  int attempts_total = 0;

  Fig8World() : Grid(1107) {  // November 7, 2000
    net.add_site("dcc");
    net.add_site("chi");
    net.add_site("anl");
    // Commodity internet: moderate loss (this is what makes parallel
    // streams pay off), WAN latency Dallas->Chicago.
    net.add_link({.name = "commodity-backbone", .site_a = "dcc",
                  .site_b = "chi", .capacity = common::mbps(622),
                  .latency = 20 * kMillisecond, .loss = 2.5e-4});
    net.add_link({.name = "anl-tail", .site_a = "chi", .site_b = "anl",
                  .capacity = common::mbps(155), .latency = 5 * kMillisecond,
                  .loss = 0.5e-4});
    // 100 Mb/s NICs; the receiving workstation's disk is the ~80 Mb/s
    // ceiling the paper observed.
    (void)add_server("sender.dcc", "dcc",
                     scenario::HostRates{.nic = common::mbps(100),
                                         .cpu = common::mbps(95),
                                         .disk = common::mbps(90)})
        .storage()
        .put(storage::FileObject::synthetic("climate-2gb.ncx", kFileSize));
    add_client("receiver.anl", "anl",
               scenario::HostRates{.nic = common::mbps(100),
                                   .cpu = common::mbps(95),
                                   .disk = common::mbps(82)});
  }

  void start_next_transfer() {
    if (sim.now() >= kRunLength) return;
    gridftp::TransferOptions opts;
    opts.buffer_size = common::kMiB;
    opts.parallelism = parallelism_at(sim.now());
    opts.use_channel_cache = false;  // the SC'2000-era teardown/rebuild
    opts.stall_timeout = 30 * kSecond;
    gridftp::ReliabilityOptions rel;
    rel.retry_backoff = 30 * kSecond;
    rel.max_attempts = 500;

    auto last = std::make_shared<SimTime>(sim.now());
    const std::string local =
        "in/climate-2gb." + std::to_string(transfers_completed);
    gridftp::ReliableGet::start(
        client(), {{"sender.dcc", "climate-2gb.ncx"}}, local, opts, rel,
        [this, last](Bytes delta, Bytes, SimTime now) {
          sampler.record_interval(*last, now, delta);
          *last = now;
        },
        [this](gridftp::ReliableResult r) {
          attempts_total += r.attempts;
          if (r.status.ok()) ++transfers_completed;
          // Old local copy is discarded; start over immediately, exactly
          // like the paper's repeated-transfer workload.
          start_next_transfer();
        });
  }
};

}  // namespace

int main() {
  bench::print_header(
      "Figure 8 — 14-hour fault-tolerant parallel transfer, Dallas -> ANL");
  std::printf(
      "2 GB file transferred repeatedly, 100 Mb/s NICs, commodity internet,\n"
      "parallelism 2/4/6/8 over the day, restart via the reliability plugin,\n"
      "no data-channel caching (teardown dips between consecutive files).\n");

  Fig8World world;

  // The outages the paper attributes its Figure 8 gaps to.
  sim::FailureSchedule outages;
  outages.add("sender.dcc", 90 * kMinute, 25 * kMinute,
              "SCinet power failure");
  outages.add("commodity-backbone", 5 * kHour + 40 * kMinute, 12 * kMinute,
              "DNS problems");
  outages.add("commodity-backbone", 9 * kHour + 10 * kMinute, 18 * kMinute,
              "backbone problems on the exhibition floor");
  outages.arm(world.sim, [&world](const std::string& target, bool down,
                                  const std::string& what) {
    world.net.apply_outage(target, down);
    std::printf("  [%s] %s %s\n",
                common::format_time(world.sim.now()).c_str(), what.c_str(),
                down ? "BEGINS" : "ends");
  });

  world.start_next_transfer();
  world.sim.run_until(kRunLength);

  const auto& s = world.sampler;
  // Plateau estimate: 95th percentile of one-minute average rates.
  const auto minute_series = bench::coarsen(s.series(), kSecond, kMinute);
  std::vector<double> minute_rates;
  for (const auto& [t, r] : minute_series) minute_rates.push_back(r);
  const double plateau = common::quantile(minute_rates, 0.95);

  // Count near-zero minutes (outage coverage) and completed files.
  int dead_minutes = 0;
  for (double r : minute_rates) dead_minutes += (r < common::mbps(1));

  std::vector<bench::Row> rows = {
      {"run length", "~14 hours",
       common::format_time(world.sim.now())},
      {"peak aggregate bandwidth", "~80 Mb/s (disk-limited)",
       common::format_rate(plateau)},
      {"mean bandwidth over the day", "(not reported)",
       common::format_rate(s.average_rate(0, kRunLength))},
      {"2 GB files completed", "(many)",
       std::to_string(world.transfers_completed)},
      {"transfer attempts (restarts incl.)", "(several restarts)",
       std::to_string(world.attempts_total)},
      {"minutes at ~zero bandwidth", "3 outages",
       std::to_string(dead_minutes)},
  };
  bench::print_table(rows);
  bench::write_bench_json("fig8", rows,
                          world.sim.metrics().snapshot(world.sim.now()));

  bench::print_series(bench::coarsen(s.series(), kSecond, 5 * kMinute),
                      5 * kMinute, 100.0);

  // Zoomed inset: thirty minutes at 10 s resolution, where the per-file
  // teardown/rebuild dips (connect + GSI re-auth + slow start between
  // consecutive transfers) are visible — the observation that led to data
  // channel caching.
  std::vector<std::pair<SimTime, Rate>> inset;
  for (const auto& [t, r] : bench::coarsen(s.series(), kSecond, 2 * kSecond)) {
    if (t >= 12 * kHour && t < 12 * kHour + 10 * kMinute) {
      inset.emplace_back(t, r);
    }
  }
  std::printf("\nzoom on 12h00-12h10 (per-file teardown dips):\n");
  bench::print_series(inset, 2 * kSecond, 100.0);

  std::printf(
      "\nexpected shape: steps up at parallelism changes (4h/8h/11h), gaps\n"
      "at the three outages, dips between consecutive transfers, plateau\n"
      "below the 100 Mb/s NIC because of receiver disk bandwidth.\n");
  return 0;
}
