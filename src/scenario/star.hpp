// Shared worlds on the scenario builder.
//
// EsgStar is the ESG star that bench_chaos and the fault explorer run on:
// a client site and two replica sites around a hub, with an HPSS host
// co-located at lbnl behind an HRM.  UniformStar is the test suites' small
// grid: a client site and any number of single-server sites on identical
// uplinks.  Both are Grids whose constructor lays the topology down, so a
// world declares one as a value or a member and then publishes into it.
#pragma once

#include <string>
#include <vector>

#include "obs/alert.hpp"
#include "scenario/grid.hpp"

namespace esg::scenario {

/// The EsgStar topology as run manifests record it.
inline constexpr const char* kEsgStarTopology =
    "star: client-site/hub/lbnl/isi, 3 uplinks";

/// client-site, lbnl and isi around "hub" (uplinks of 200, 150 and
/// 150 Mb/s); the client "client"; the catalog and MDS on catalog.host and
/// mds.host at lbnl; GridFTP servers lbnl.host, isi.host and hpss.lbl.gov,
/// the last fronted by an HRM whose tape library is `tape`.
class EsgStar : public Grid {
 public:
  EsgStar(std::uint64_t seed, const storage::TapeConfig& tape);
};

/// Seeding for an EsgStar: `disk_files` files month.<i>.ncx replicated at
/// lbnl and isi under co2/, then `tape_files` files deep.<i>.ncx archived
/// in HPSS (no HPSS location when there are none), all of `file_size`,
/// plus MDS forecasts to the client of 120, 80 and 100 Mb/s from lbnl, isi
/// and HPSS.
Publication esg_star_publication(const std::string& collection,
                                 int disk_files, int tape_files,
                                 common::Bytes file_size);

/// The page every EsgStar world arms: GridFTP attempts failing fast enough
/// to burn a 99% success objective at more than twice the sustainable rate.
obs::BurnRateRule gridftp_failure_burn();

/// "client-site" plus one site per entry of `server_sites`, each with a
/// GridFTP server "<site>.host", around "hub" on uplinks of `link_rate`
/// and 5 ms; the client "client"; the catalog and MDS on catalog.host and
/// mds.host at the first server site (the client site when there is none).
class UniformStar : public Grid {
 public:
  explicit UniformStar(
      const std::vector<std::string>& server_sites = {"lbnl", "isi"},
      common::Rate link_rate = common::mbps(100));
};

}  // namespace esg::scenario
