#include "scenario/star.hpp"

#include <utility>

namespace esg::scenario {

EsgStar::EsgStar(std::uint64_t seed, const storage::TapeConfig& tape)
    : Grid(seed) {
  for (const char* site : {"client-site", "hub", "lbnl", "isi"}) {
    net.add_site(site);
  }
  net.add_link({.name = "client-uplink", .site_a = "client-site",
                .site_b = "hub", .capacity = common::mbps(200),
                .latency = 5 * common::kMillisecond});
  net.add_link({.name = "lbnl-uplink", .site_a = "lbnl", .site_b = "hub",
                .capacity = common::mbps(150),
                .latency = 5 * common::kMillisecond});
  net.add_link({.name = "isi-uplink", .site_a = "isi", .site_b = "hub",
                .capacity = common::mbps(150),
                .latency = 5 * common::kMillisecond});
  add_client("client", "client-site");
  add_catalog("catalog.host", "lbnl");
  add_mds("mds.host", "lbnl");
  add_server("lbnl.host", "lbnl");
  add_server("isi.host", "isi");
  add_hrm(add_server("hpss.lbl.gov", "lbnl"), {.tape = tape});
}

Publication esg_star_publication(const std::string& collection,
                                 int disk_files, int tape_files,
                                 common::Bytes file_size) {
  Publication out;
  out.collection = collection;
  replica::LocationInfo lbnl;
  lbnl.name = "lbnl-disk";
  lbnl.hostname = "lbnl.host";
  lbnl.path = "co2";
  replica::LocationInfo mss;
  mss.name = "lbnl-hpss";
  mss.hostname = "hpss.lbl.gov";
  mss.path = "archive";
  mss.storage_type = "mss";
  for (int i = 0; i < disk_files; ++i) {
    out.files.push_back({"month." + std::to_string(i) + ".ncx", file_size});
    lbnl.files.push_back(out.files.back().name);
  }
  for (int i = 0; i < tape_files; ++i) {
    out.files.push_back({"deep." + std::to_string(i) + ".ncx", file_size});
    mss.files.push_back(out.files.back().name);
  }
  replica::LocationInfo isi = lbnl;
  isi.name = "isi-disk";
  isi.hostname = "isi.host";
  out.locations = {std::move(lbnl), std::move(isi)};
  if (tape_files > 0) out.locations.push_back(std::move(mss));
  for (const auto& [src, bw] :
       {std::pair{"lbnl.host", common::mbps(120)},
        std::pair{"isi.host", common::mbps(80)},
        std::pair{"hpss.lbl.gov", common::mbps(100)}}) {
    mds::NetworkRecord rec;
    rec.src_host = src;
    rec.dst_host = "client";
    rec.bandwidth = bw;
    rec.latency = 10 * common::kMillisecond;
    out.network.push_back(std::move(rec));
  }
  return out;
}

obs::BurnRateRule gridftp_failure_burn() {
  obs::BurnRateRule burn;
  burn.name = "gridftp-failure-burn";
  burn.bad_metric = "gridftp_transfers_failed_total";
  burn.good_metric = "gridftp_transfers_started_total";
  burn.objective = 0.99;
  burn.threshold = 2.0;
  return burn;
}

UniformStar::UniformStar(const std::vector<std::string>& server_sites,
                         common::Rate link_rate) {
  constexpr common::SimDuration kUplinkLatency = 5 * common::kMillisecond;
  net.add_site("client-site");
  net.add_site("hub");
  net.add_link({.name = "client-uplink", .site_a = "client-site",
                .site_b = "hub", .capacity = link_rate,
                .latency = kUplinkLatency});
  add_client("client", "client-site");
  for (const auto& site : server_sites) {
    net.add_site(site);
    net.add_link({.name = site + "-uplink", .site_a = site, .site_b = "hub",
                  .capacity = link_rate, .latency = kUplinkLatency});
    add_server(site + ".host", site);
  }
  const std::string catalog_site =
      server_sites.empty() ? "client-site" : server_sites.front();
  add_catalog("catalog.host", catalog_site);
  add_mds("mds.host", catalog_site);
}

}  // namespace esg::scenario
