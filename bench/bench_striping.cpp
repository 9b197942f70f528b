// Ablation A3 — striped transfers (paper §6.1).
//
// "Striped data transfer that increases parallelism by allowing data to be
// striped across multiple hosts."  Endpoint hosts are interrupt-limited
// (the paper's GbE boxes pegged their CPUs), so a single host pair cannot
// fill the OC-48; striping across k pairs multiplies the endpoint ceiling
// until the WAN caps out — the reason SC'2000 used 8x8 servers.
#include "bench_util.hpp"
#include "gridftp/striped.hpp"
#include "gridftp/striped_volume.hpp"
#include "scenario/grid.hpp"

using namespace esg;
using common::Bytes;
using common::kMillisecond;

int main() {
  bench::print_header(
      "A3 — striping across host pairs (CPU-limited endpoints, OC-48 WAN)");
  std::printf("%-8s | %-14s | %-14s | %s\n", "stripes", "aggregate",
              "per-pair", "limited by");
  std::printf("%s\n", std::string(60, '-').c_str());

  const Bytes kTotal = 2 * common::kGB;
  for (int stripes : {1, 2, 4, 8}) {
    // Interrupt-limited endpoint CPUs.
    scenario::Grid grid(11,
                        {.cpu = common::mbps(450), .disk = common::mbps(700)});
    grid.net.add_site("src");
    grid.net.add_site("dst");
    grid.net.add_link({.name = "oc48", .site_a = "src", .site_b = "dst",
                       .capacity = common::gbps(2.5),
                       .latency = 8 * kMillisecond});

    std::vector<gridftp::StripeEndpoint> endpoints;
    const Bytes per_stripe = kTotal / stripes;
    for (int i = 0; i < stripes; ++i) {
      const std::string n = std::to_string(i);
      (void)grid.add_server("s" + n, "src")
          .storage()
          .put(storage::FileObject::synthetic("part" + n, per_stripe));
      grid.add_server("d" + n, "dst");
      endpoints.push_back(gridftp::StripeEndpoint{{"s" + n, "part" + n},
                                                  "d" + n, "part" + n});
    }
    // A controller host issues the third-party stripe transfers.
    auto& controller = grid.add_client("ctrl", "dst");

    gridftp::TransferOptions opts;
    opts.buffer_size = 2 * common::kMiB;
    opts.parallelism = 4;
    bool done = false;
    gridftp::StripedResult result;
    gridftp::StripedTransfer transfer(controller, endpoints, opts,
                                      [&](gridftp::StripedResult r) {
                                        result = std::move(r);
                                        done = true;
                                      });
    grid.sim.run_while_pending([&] { return done; });
    const double secs =
        common::to_seconds(result.finished - result.started);
    const double rate = static_cast<double>(kTotal) / secs;
    const double per_pair = rate / stripes;
    const char* limiter =
        per_pair < common::mbps(440) ? "WAN share" : "endpoint CPU";
    std::printf("%-8d | %-14s | %-14s | %s\n", stripes,
                common::format_rate(rate).c_str(),
                common::format_rate(per_pair).c_str(), limiter);
  }
  std::printf(
      "\nexpected shape: aggregate scales ~linearly with stripe count while\n"
      "endpoint CPUs are the bottleneck (450 Mb/s/pair), bending as the\n"
      "stripes begin to share the 2.5 Gb/s WAN.\n");

  // Server-side striping (one logical file block-striped across nodes,
  // SPAS-style): the same scaling from a single client.
  std::printf("\nserver-side striped volume (one 2 GB file, 4 MB blocks):\n");
  std::printf("%-8s | %-14s\n", "nodes", "aggregate");
  std::printf("%s\n", std::string(28, '-').c_str());
  for (int node_count : {1, 2, 4, 8}) {
    bench::SimpleWorld world(common::gbps(2.5), 8 * kMillisecond);
    // A beefier sink so the stripe nodes' CPUs stay the bottleneck.
    const net::Host& sink = world.client.local_host();
    world.net.fluid().set_capacity(sink.nic(), common::gbps(4));
    world.net.fluid().set_capacity(sink.cpu(), common::gbps(4));
    world.net.fluid().set_capacity(sink.disk(), common::gbps(4));
    std::vector<gridftp::GridFtpServer*> nodes;
    for (int i = 0; i < node_count; ++i) {
      nodes.push_back(&world.add_server(
          "vol" + std::to_string(i), "src",
          scenario::HostRates{.cpu = common::mbps(450),
                              .disk = common::mbps(700)}));
    }
    gridftp::StripedVolume volume(world.orb, world.server.host(), nodes);
    (void)volume.store(storage::FileObject::synthetic("big", kTotal));
    gridftp::TransferOptions opts;
    opts.buffer_size = 2 * common::kMiB;
    opts.parallelism = 4;
    bool done = false;
    const auto t0 = world.sim.now();
    gridftp::striped_volume_get(world.client, world.server.host(), "big",
                                "local", opts, {},
                                [&](gridftp::StripedGetResult r) {
                                  done = r.status.ok();
                                });
    world.sim.run_while_pending([&] { return done; });
    const double secs = common::to_seconds(world.sim.now() - t0);
    std::printf("%-8d | %s\n", node_count,
                common::format_rate(static_cast<double>(kTotal) / secs)
                    .c_str());
  }
  return 0;
}
