// transfer_monitor — Figure 4, live.
//
// "a transfer-monitoring tool was developed to show the status of the
// request transfer dynamically ... The top part of the screen shows for
// each file the amount transferred relative to the total file size.  The
// middle part shows which replica locations have been selected based on
// the bandwidth and latency measurements provided by NWS.  At the bottom,
// messages about the initiation of replica selection and file transfer."
//
// This example submits a six-file request, prints monitor frames every few
// simulated seconds, and injects a mid-transfer outage at the preferred
// site so the alternate-replica failover shows up in the message log.
#include <cstdio>

#include "esg/client.hpp"
#include "esg/testbed.hpp"
#include "obs/alert.hpp"
#include "obs/export.hpp"

using namespace esg;
using common::kSecond;

int main() {
  std::printf("== transfer monitor demo (Fig 4) ==\n");

  ::esg::esg::TestbedConfig cfg;
  cfg.grid = climate::GridSpec{180, 360};  // ~9 MB chunks, visible progress
  ::esg::esg::EsgTestbed testbed(cfg);

  ::esg::esg::DatasetSpec spec;
  spec.name = "pcmdi-amip-r3";
  spec.start_month = 24;
  spec.n_months = 72;
  spec.months_per_file = 12;
  spec.replica_hosts = {"pdsf.lbl.gov", "jupiter.isi.edu"};
  if (auto st = testbed.publish_dataset(spec); !st.ok()) {
    std::printf("publish failed: %s\n", st.error().to_string().c_str());
    return 1;
  }
  // Congest the coastal OC-48 toward Dallas so ISI is clearly the
  // preferred replica, then take ISI down mid-request to show failover.
  auto* nton = testbed.net.find_link("nton");
  testbed.net.fluid().set_background(nton->backward(), common::gbps(2.35));
  auto* isi_uplink = testbed.net.find_link("isi-uplink");
  testbed.net.fluid().set_background(isi_uplink->backward(),
                                     common::mbps(850));
  testbed.start_sensors(2);

  // Six files, fetched concurrently by the request manager.
  std::vector<rm::FileRequest> files;
  metadata::DatasetInfo info;
  info.name = spec.name;
  info.start_month = spec.start_month;
  info.n_months = spec.n_months;
  info.months_per_file = spec.months_per_file;
  for (int c = 0; c < info.chunk_count(); ++c) {
    files.push_back(rm::FileRequest{spec.name, info.file_name(c)});
  }

  rm::RequestOptions options;
  options.transfer.parallelism = 2;
  options.transfer.buffer_size = 2 * common::kMiB;
  options.transfer.stall_timeout = 3 * kSecond;
  options.reliability.retry_backoff = 2 * kSecond;
  options.poll_interval = kSecond;

  // Streaming telemetry + online alerting: the pane below each frame shows
  // burn-rate pages (failed attempts burning the 99% success budget) and
  // goodput anomalies as they fire — Fig 4 grown a during-run watchdog.
  obs::BurnRateRule burn;
  burn.name = "transfer-failure-burn";
  burn.bad_metric = "gridftp_transfers_failed_total";
  burn.good_metric = "gridftp_transfers_started_total";
  burn.objective = 0.99;
  burn.threshold = 2.0;
  burn.long_window = 20 * kSecond;
  burn.short_window = 5 * kSecond;
  testbed.sim.alerts().add(burn);
  obs::AnomalyRule cliff;
  cliff.name = "goodput-cliff";
  cliff.metric = "gridftp_channel_bytes_total";
  cliff.rate_window = 5 * kSecond;
  testbed.sim.alerts().add(cliff);
  testbed.sim.start_telemetry(kSecond);

  bool done = false;
  rm::RequestResult result;
  testbed.request_manager().submit(files, options, [&](rm::RequestResult r) {
    result = std::move(r);
    done = true;
  });

  // Kill the preferred site mid-request; the reliability plugin reroutes.
  testbed.sim.schedule_at(testbed.sim.now() + 1 * kSecond, [&] {
    std::printf("\n*** injecting outage: jupiter.isi.edu goes down ***\n");
    testbed.net.set_host_down(*testbed.net.find_host("jupiter.isi.edu"), true);
  });
  testbed.sim.schedule_at(testbed.sim.now() + 30 * kSecond, [&] {
    std::printf("\n*** jupiter.isi.edu restored ***\n");
    testbed.net.set_host_down(*testbed.net.find_host("jupiter.isi.edu"),
                              false);
  });

  // Print a monitor frame every 4 simulated seconds until done.
  while (!done) {
    const auto next = testbed.sim.now() + 4 * kSecond;
    testbed.sim.run_while_pending(
        [&] { return done || testbed.sim.now() >= next; });
    // Render from a registry snapshot so the frame carries the live
    // queue-depth / cache / per-server byte counters (Fig 4 + metrics pane).
    const auto snap = testbed.sim.metrics().snapshot(testbed.sim.now());
    std::printf("\n%s",
                testbed.monitor().render(testbed.sim.now(), snap).c_str());
    std::printf("%s", testbed.sim.alerts().render(testbed.sim.now()).c_str());
    if (testbed.sim.pending_events() == 0) break;
  }

  std::printf("\n=== request complete ===\n");
  for (const auto& f : result.files) {
    std::printf("  %-28s %-8s %s from %s (attempts %d, switches %d)\n",
                f.request.filename.c_str(),
                f.status.ok() ? "OK" : "FAILED",
                common::format_bytes(f.bytes).c_str(), f.chosen_host.c_str(),
                f.attempts, f.replica_switches);
  }
  std::printf("total: %s in %s (%s aggregate)\n",
              common::format_bytes(result.total_bytes).c_str(),
              common::format_time(result.finished - result.started).c_str(),
              common::format_rate(result.aggregate_rate()).c_str());

  // Prometheus-style dump of everything the run recorded.
  const std::string prom = obs::to_prometheus_text(
      testbed.sim.metrics().snapshot(testbed.sim.now()));
  if (std::FILE* f = std::fopen("transfer_monitor_metrics.prom", "w")) {
    std::fwrite(prom.data(), 1, prom.size(), f);
    std::fclose(f);
    std::printf("wrote transfer_monitor_metrics.prom\n");
  }
  return 0;
}
