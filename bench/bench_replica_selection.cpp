// Ablation A5 — NWS-based replica selection (paper §4/§5).
//
// "The current implementation of the request manager selects the 'best'
// replica based on the highest bandwidth between the candidate replica and
// the destination of the data transfer."  This bench compares three
// policies fetching the same dataset from three unevenly-connected replica
// sites: NWS-forecast-best (live MDS queries, the paper's policy), uniform
// random, and static primary-first.  The NWS policy should win because it
// routes around the congested Abilene path.
#include <algorithm>

#include "bench_util.hpp"
#include "esg/testbed.hpp"

using namespace esg;
using common::kSecond;
using common::Rate;

namespace {

enum class Policy { nws_best, random_pick, static_first };

struct PolicyResult {
  double makespan_seconds = 0.0;
  std::map<std::string, int> picks;
};

PolicyResult run_policy(Policy policy) {
  ::esg::esg::TestbedConfig cfg;
  cfg.grid = climate::GridSpec{72, 144};  // ~3 MB chunks
  cfg.sensor_period = 30 * kSecond;
  ::esg::esg::EsgTestbed testbed(cfg);

  ::esg::esg::DatasetSpec spec;
  spec.name = "selection-bench";
  spec.n_months = 96;
  spec.months_per_file = 24;
  spec.replica_hosts = {"pitcairn.mcs.anl.gov", "sprite.llnl.gov",
                        "srb.sdsc.edu"};
  if (!testbed.publish_dataset(spec).ok()) return {};

  // Congestion: Abilene almost saturated, SDSC uplink heavily loaded,
  // LLNL clean.
  auto* abilene = testbed.net.find_link("abilene");
  testbed.net.fluid().set_background(abilene->backward(), common::mbps(612));
  auto* sdsc = testbed.net.find_link("sdsc-uplink");
  testbed.net.fluid().set_background(sdsc->backward(), common::mbps(500));
  testbed.start_sensors(3);

  auto mds_client = testbed.make_mds_client();
  common::Rng rng(99);

  const auto t0 = testbed.sim.now();
  metadata::DatasetInfo info;
  info.name = spec.name;
  info.start_month = spec.start_month;
  info.n_months = spec.n_months;
  info.months_per_file = spec.months_per_file;

  PolicyResult result;
  for (int c = 0; c < info.chunk_count(); ++c) {
    const std::string file = info.file_name(c);
    std::string host;
    switch (policy) {
      case Policy::static_first:
        host = spec.replica_hosts[0];
        break;
      case Policy::random_pick:
        host = spec.replica_hosts[rng.uniform_int(spec.replica_hosts.size())];
        break;
      case Policy::nws_best: {
        // Live MDS query, exactly what the request manager's step 2 does.
        bool answered = false;
        std::map<std::string, Rate> forecast;
        mds_client.query_paths_to(
            testbed.client().local_host().name(),
            [&](common::Result<std::vector<mds::NetworkRecord>> r) {
              if (r) {
                for (const auto& rec : *r) {
                  forecast[rec.src_host] =
                      rec.probe_failed ? -1.0 : rec.bandwidth;
                }
              }
              answered = true;
            });
        testbed.run_until_flag(answered);
        host = spec.replica_hosts[0];
        Rate best = -2.0;
        for (const auto& candidate : spec.replica_hosts) {
          auto it = forecast.find(candidate);
          const Rate bw = it == forecast.end() ? 0.0 : it->second;
          if (bw > best) {
            best = bw;
            host = candidate;
          }
        }
        break;
      }
    }
    ++result.picks[host];
    gridftp::TransferOptions opts;
    opts.buffer_size = 2 * common::kMiB;
    opts.parallelism = 2;
    bool done = false;
    testbed.client().get({host, spec.name + "/" + file}, "bench/" + file,
                         opts, nullptr,
                         [&](gridftp::TransferResult) { done = true; });
    testbed.run_until_flag(done);
  }
  result.makespan_seconds =
      common::to_seconds(testbed.sim.now() - t0);
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "A5 — replica selection policy: NWS-best vs random vs static");
  std::printf(
      "dataset replicated at ANL (congested Abilene), SDSC (half-loaded)\n"
      "and LLNL (clean); four 6-month chunks fetched to the Dallas client.\n\n");

  const PolicyResult nws = run_policy(Policy::nws_best);
  const PolicyResult random_result = run_policy(Policy::random_pick);
  const PolicyResult static_result = run_policy(Policy::static_first);

  std::printf("%-22s | %-12s | %s\n", "policy", "makespan", "picks");
  std::printf("%s\n", std::string(70, '-').c_str());
  auto print = [](const char* name, const PolicyResult& r) {
    std::string picks;
    for (const auto& [h, n] : r.picks) {
      picks += h.substr(0, h.find('.')) + ":" + std::to_string(n) + " ";
    }
    std::printf("%-22s | %9.1f s  | %s\n", name, r.makespan_seconds,
                picks.c_str());
  };
  print("NWS forecast-best", nws);
  print("uniform random", random_result);
  print("static primary-first", static_result);

  std::printf(
      "\nexpected shape: NWS-best avoids the congested replica and finishes\n"
      "first; random pays on ~1/3 of fetches; static primary-first is worst\n"
      "because the primary (ANL) sits behind the loaded Abilene path.\n"
      "speedup NWS vs static: %.2fx, NWS vs random: %.2fx\n",
      static_result.makespan_seconds / nws.makespan_seconds,
      random_result.makespan_seconds / nws.makespan_seconds);
  return 0;
}
