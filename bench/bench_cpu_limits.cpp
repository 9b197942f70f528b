// Ablation A7 — interrupt-limited endpoints (paper §7).
//
// "Earlier work had shown (and the pattern repeated itself here) that the
// CPU was running at near 100% capacity.  This high CPU usage is common
// with Gigabit Ethernet and is caused by the numerous interrupts that must
// be serviced.  Interrupt coalescing ... can help reduce this problem.  A
// second way of reducing the CPU load is by using Jumbo Frames ...
// however, one of the routers did not support jumbo frames, so we were
// unable to evaluate the impact of this mechanism."
//
// The emulator models the per-host interrupt ceiling as a byte-processing
// resource on every data path.  This bench sweeps that ceiling on an
// otherwise clean GbE path and adds the jumbo-frames rows the paper could
// not measure (6x fewer interrupts per byte modeled as a 1.5x effective
// ceiling — conservative, since other per-byte costs remain).
#include "bench_util.hpp"

using namespace esg;
using common::Bytes;
using common::kMillisecond;

namespace {

double throughput_with_cpu(common::Rate cpu_rate) {
  bench::SimpleWorld world(common::gbps(1), 5 * kMillisecond);
  for (const net::Host* host :
       {&world.server.host(), &world.client.local_host()}) {
    world.net.fluid().set_capacity(host->cpu(), cpu_rate);
  }
  const Bytes kFile = 250 * common::kMB;
  world.add_file("f", kFile);
  gridftp::TransferOptions opts;
  opts.buffer_size = 4 * common::kMiB;
  opts.parallelism = 4;
  const double secs = world.timed_get("f", opts);
  return static_cast<double>(kFile) / secs;
}

}  // namespace

int main() {
  bench::print_header(
      "A7 — interrupt-limited hosts on GbE (and the jumbo-frames what-if)");
  std::printf("%-28s | %-12s | %s\n", "host CPU ceiling", "throughput",
              "limited by");
  std::printf("%s\n", std::string(60, '-').c_str());
  for (double mbits : {300.0, 450.0, 620.0, 750.0, 950.0}) {
    const double rate = throughput_with_cpu(common::mbps(mbits));
    const bool cpu_bound = rate < common::mbps(mbits) * 1.02 &&
                           rate < common::gbps(1) * 0.9;
    std::printf("%-28s | %-12s | %s\n",
                (common::format_rate(common::mbps(mbits)) +
                 " (interrupt-limited)")
                    .c_str(),
                common::format_rate(rate).c_str(),
                cpu_bound ? "host CPU" : "NIC/link");
  }
  // Jumbo frames: same silicon, ~1.5x effective processing ceiling.
  for (double mbits : {450.0, 620.0}) {
    const double rate = throughput_with_cpu(common::mbps(mbits * 1.5));
    std::printf("%-28s | %-12s | %s\n",
                (common::format_rate(common::mbps(mbits)) + " + jumbo frames")
                    .c_str(),
                common::format_rate(rate).c_str(),
                rate < common::gbps(1) * 0.9 ? "host CPU" : "NIC/link");
  }
  std::printf(
      "\nexpected shape: throughput tracks the CPU ceiling while it is below\n"
      "the NIC; jumbo frames shift the ceiling up, the measurement the paper\n"
      "wanted but could not take at SC'2000.\n");
  return 0;
}
