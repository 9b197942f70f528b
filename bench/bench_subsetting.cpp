// Ablation A9 — ESG-II server-side subsetting (paper §9, future work).
//
// "(1) distribution of data analysis and visualization pipelines, so that
// some data analysis operations (at least extraction and subsetting,
// similar to those available with DODS) can be performed local to the
// data before it is transferred over the network."
//
// A scientist wants one variable over a tropical band for one season, out
// of a multi-variable multi-year dataset.  ESG-I moves whole chunk files;
// ESG-II subsets at the server.  The bench reports bytes on the wire and
// end-to-end time for both, across three region sizes.
#include "bench_util.hpp"
#include "esg/client.hpp"
#include "esg/testbed.hpp"

using namespace esg;
using common::kSecond;

namespace {

struct Outcome {
  double seconds = 0.0;
  common::Bytes bytes = 0;
};

Outcome run(bool subset, std::optional<std::pair<double, double>> lat_box) {
  ::esg::esg::TestbedConfig cfg;
  cfg.grid = climate::GridSpec{90, 180};  // 2-degree grid, ~2.3 MB/chunk
  ::esg::esg::EsgTestbed testbed(cfg);
  ::esg::esg::DatasetSpec spec;
  spec.name = "esg2-bench";
  spec.start_month = 0;
  spec.n_months = 48;
  spec.months_per_file = 12;
  spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov"};
  if (!testbed.publish_dataset(spec).ok()) return {};
  // A modest WAN share makes transfer time meaningful.
  auto* nton = testbed.net.find_link("nton");
  testbed.net.fluid().set_background(nton->backward(), common::gbps(2.4));
  testbed.start_sensors(2);

  ::esg::esg::EsgClient client(testbed);
  ::esg::esg::AnalysisRequest req;
  req.dataset = spec.name;
  req.variable = "temperature";
  req.month_start = 12;
  req.month_end = 18;  // one season + shoulder months
  req.server_side_subset = subset;
  req.lat_box = lat_box;

  const auto t0 = testbed.sim.now();
  auto result = client.analyze_blocking(req);
  if (!result.status.ok()) {
    std::printf("analysis failed: %s\n",
                result.status.error().to_string().c_str());
    return {};
  }
  return Outcome{common::to_seconds(testbed.sim.now() - t0),
                 result.transfer.total_bytes};
}

}  // namespace

int main() {
  bench::print_header(
      "A9 — ESG-II server-side subsetting vs whole-file transfer");
  std::printf(
      "request: temperature, 6 months, from a 48-month 3-variable dataset\n"
      "(12-month chunk files, 90x180 grid) over a ~100 Mb/s WAN share.\n\n");

  const Outcome whole = run(false, std::nullopt);
  const Outcome var_months = run(true, std::nullopt);
  const Outcome tropics = run(true, std::make_pair(-30.0, 30.0));

  std::printf("%-34s | %-10s | %-10s | %s\n", "mode", "bytes", "time",
              "reduction");
  std::printf("%s\n", std::string(74, '-').c_str());
  auto row = [&](const char* name, const Outcome& o) {
    std::printf("%-34s | %-10s | %7.2f s  | %5.1fx\n", name,
                common::format_bytes(o.bytes).c_str(), o.seconds,
                static_cast<double>(whole.bytes) /
                    static_cast<double>(std::max<common::Bytes>(1, o.bytes)));
  };
  row("ESG-I: whole chunk files", whole);
  row("ESG-II: variable + months", var_months);
  row("ESG-II: + tropical lat band", tropics);

  std::printf(
      "\nexpected shape: extraction at the data cuts wire bytes by the\n"
      "variable count x month fraction (~6x here), and the regional box by\n"
      "another ~3x; end-to-end time follows bytes once past fixed costs.\n");
  return 0;
}
