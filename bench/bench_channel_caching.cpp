// Ablation A4 — data-channel caching (paper §7).
//
// "The frequent drop in bandwidth to relatively low levels occurs because
// the GridFTP implementation used at SC'2000 destroys and rebuilds its TCP
// connections between consecutive transfers.  Based on this observation,
// we identified the need for and have since implemented data channel
// caching ... without requiring costly breakdown, restart, and
// re-authentication operations."
//
// This bench moves a sequence of files back-to-back with and without the
// cache and reports per-file time, aggregate throughput, and the handshake
// counters — the post-SC'2000 improvement, quantified.
#include "bench_util.hpp"

using namespace esg;
using common::Bytes;
using common::kMillisecond;

namespace {

struct Outcome {
  double total_seconds = 0.0;
  double first_file_seconds = 0.0;
  std::uint64_t auths = 0;
  std::uint64_t setups = 0;
  std::uint64_t reused = 0;
};

Outcome run(bool cache, int files, Bytes file_size) {
  bench::SimpleWorld world(common::mbps(622), 25 * kMillisecond);
  for (int i = 0; i < files; ++i) {
    world.add_file("f" + std::to_string(i), file_size);
  }
  gridftp::TransferOptions opts;
  opts.buffer_size = 4 * common::kMiB;
  opts.use_channel_cache = cache;
  Outcome out;
  const auto t0 = world.sim.now();
  for (int i = 0; i < files; ++i) {
    const double secs = world.timed_get("f" + std::to_string(i), opts);
    if (i == 0) out.first_file_seconds = secs;
  }
  out.total_seconds = common::to_seconds(world.sim.now() - t0);
  out.auths = world.client.stats().auth_handshakes;
  out.setups = world.client.stats().data_channel_setups;
  out.reused = world.client.stats().channels_reused;
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "A4 — data-channel caching vs teardown/rebuild (post-SC'2000 fix)");
  constexpr int kFiles = 32;
  constexpr Bytes kSize = 8 * common::kMB;  // short files make setup visible
  std::printf("moving %d files of %s back-to-back, 622 Mb/s @ 50 ms RTT\n\n",
              kFiles, common::format_bytes(kSize).c_str());

  const Outcome cold = run(false, kFiles, kSize);
  const Outcome warm = run(true, kFiles, kSize);

  const double total_bytes = static_cast<double>(kFiles) * kSize;
  std::vector<bench::Row> rows = {
      {"GSI authentications", std::to_string(cold.auths) + " (rebuilt)",
       std::to_string(warm.auths) + " (cached)"},
      {"data channel setups", std::to_string(cold.setups),
       std::to_string(warm.setups)},
      {"warm channels reused", std::to_string(cold.reused),
       std::to_string(warm.reused)},
      {"total time", std::to_string(cold.total_seconds) + " s",
       std::to_string(warm.total_seconds) + " s"},
      {"aggregate throughput",
       common::format_rate(total_bytes / cold.total_seconds),
       common::format_rate(total_bytes / warm.total_seconds)},
  };
  // Reuse the table printer with "paper"=no-cache, "measured"=cache.
  std::printf("%-22s | %-18s | %s\n", "metric", "no caching (SC'00)",
              "with caching");
  std::printf("%s\n", std::string(64, '-').c_str());
  for (const auto& r : rows) {
    std::printf("%-22s | %-18s | %s\n", r.metric.c_str(), r.paper.c_str(),
                r.measured.c_str());
  }
  std::printf(
      "\nexpected shape: caching removes per-file connect + %d-RTT GSI\n"
      "re-auth + slow start; throughput improves by the dead-time share.\n"
      "speedup measured: %.2fx\n",
      esg::security::kAuthRounds, cold.total_seconds / warm.total_seconds);
  return 0;
}
