// Ablation A6 — HRM staging overlap (paper §4).
//
// "HRM is a component that sits in front of the MSS ... and stages files
// from the MSS to its local disk cache.  After this action is complete,
// the RM uses GridFTP to move the file securely over the wide-area network."
//
// The win of the architecture is pipelining: while one file crosses the
// WAN, the tape drives stage the next.  This bench requests a batch of
// archived files (a) strictly sequentially (stage f, transfer f, repeat)
// and (b) with the stage/transfer pipeline the request manager's concurrent
// workers create, and reports the makespan plus the cache-hit effect of a
// re-run.
#include "bench_util.hpp"
#include "hrm/hrm.hpp"

using namespace esg;
using common::Bytes;
using common::kMillisecond;
using common::kSecond;

namespace {

constexpr int kFiles = 6;
constexpr Bytes kFileSize = 300 * common::kMB;

struct HrmWorld {
  bench::SimpleWorld base{common::mbps(622), 15 * kMillisecond};

  HrmWorld() {
    hrm::HrmConfig cfg;
    cfg.cache_capacity = 4 * common::kGB;
    cfg.tape.drives = 2;
    cfg.tape.mount_time = 40 * kSecond;
    cfg.tape.avg_seek = 15 * kSecond;
    cfg.tape.read_rate = common::mbps(120);
    auto& hrm_service = base.add_hrm(base.server, cfg);
    for (int i = 0; i < kFiles; ++i) {
      hrm_service.archive(storage::FileObject::synthetic(
          "archive/f" + std::to_string(i), kFileSize));
    }
  }
};

double run_sequential(HrmWorld& world) {
  hrm::HrmClient hrm_client(world.base.orb, world.base.client.local_host(),
                            world.base.server.host());
  const auto t0 = world.base.sim.now();
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = "archive/f" + std::to_string(i);
    bool staged = false;
    hrm_client.stage(name, [&](common::Result<Bytes>) { staged = true; });
    world.base.sim.run_while_pending([&] { return staged; });
    gridftp::TransferOptions opts;
    opts.buffer_size = 2 * common::kMiB;
    opts.parallelism = 2;
    (void)world.base.timed_get(name, opts);
    hrm_client.release(name, [](common::Status) {});
  }
  return common::to_seconds(world.base.sim.now() - t0);
}

double run_pipelined(HrmWorld& world) {
  hrm::HrmClient hrm_client(world.base.orb, world.base.client.local_host(),
                            world.base.server.host());
  const auto t0 = world.base.sim.now();
  int completed = 0;
  // All stage requests issued up front (the RM's per-file workers); each
  // transfer starts the moment its file reaches the disk cache.
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = "archive/f" + std::to_string(i);
    hrm_client.stage(name, [&world, &hrm_client, &completed, name](
                               common::Result<Bytes> r) {
      if (!r) {
        ++completed;
        return;
      }
      gridftp::TransferOptions opts;
      opts.buffer_size = 2 * common::kMiB;
      opts.parallelism = 2;
      world.base.client.get(
          {"server", name}, "pipelined/" + name, opts, nullptr,
          [&completed, &hrm_client, name](gridftp::TransferResult) {
            hrm_client.release(name, [](common::Status) {});
            ++completed;
          });
    });
  }
  world.base.sim.run_while_pending([&] { return completed == kFiles; });
  return common::to_seconds(world.base.sim.now() - t0);
}

}  // namespace

int main() {
  bench::print_header("A6 — HRM: tape staging overlapped with WAN transfer");
  std::printf(
      "%d files of %s on tape (2 drives, 40 s mount, 15 s seek, 120 Mb/s\n"
      "read), transferred over a 622 Mb/s WAN after staging.\n\n",
      kFiles, common::format_bytes(kFileSize).c_str());

  double sequential, pipelined, cached;
  {
    HrmWorld world;
    sequential = run_sequential(world);
  }
  {
    HrmWorld world;
    pipelined = run_pipelined(world);
    // Re-run against the warm cache: staging returns immediately and the
    // mass-storage system stays out of the path.
    hrm::HrmClient hrm_client(world.base.orb, world.base.client.local_host(),
                              world.base.server.host());
    const auto t0 = world.base.sim.now();
    for (int i = 0; i < kFiles; ++i) {
      const std::string name = "archive/f" + std::to_string(i);
      bool staged = false;
      hrm_client.stage(name, [&](common::Result<Bytes>) { staged = true; });
      world.base.sim.run_while_pending([&] { return staged; });
      gridftp::TransferOptions opts;
      opts.buffer_size = 2 * common::kMiB;
      opts.parallelism = 2;
      (void)world.base.timed_get(name, opts);
      hrm_client.release(name, [](common::Status) {});
    }
    cached = common::to_seconds(world.base.sim.now() - t0);
    std::printf("cache hits on the re-run: %llu of %d\n\n",
                static_cast<unsigned long long>(world.base.hrm().cache_hits()),
                kFiles);
  }

  std::printf("%-38s | %s\n", "strategy", "makespan");
  std::printf("%s\n", std::string(54, '-').c_str());
  std::printf("%-38s | %8.1f s\n", "sequential stage->transfer per file",
              sequential);
  std::printf("%-38s | %8.1f s\n", "pipelined (RM-style workers)", pipelined);
  std::printf("%-38s | %8.1f s\n", "warm cache re-run (no tape at all)",
              cached);
  std::printf(
      "\nexpected shape: pipelining hides most tape latency behind the WAN\n"
      "transfers (%.2fx over sequential); the warm-cache re-run shows the\n"
      "disk cache removing the mass-storage system from the path entirely.\n",
      sequential / pipelined);
  return 0;
}
