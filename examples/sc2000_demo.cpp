// sc2000_demo — the paper's §7 end-to-end demonstration, replayed.
//
// "we demonstrated the end-to-end functionality of the ESG prototype by
// performing visualizations of climate attributes such as precipitation
// and cloud cover using data sets that were distributed over several
// locations around the United States, including LBNL, LLNL, ISI, ANL and
// NCAR."
//
// The dataset here is *scattered*: every location holds a partial
// collection (two chunks each), so a multi-year request necessarily draws
// from several sites at once — the request manager's concurrent workers
// fetch from whichever site NWS ranks best per file.
#include <cstdio>
#include <set>

#include "climate/render.hpp"
#include "esg/client.hpp"
#include "esg/testbed.hpp"
#include "obs/export.hpp"

using namespace esg;

int main() {
  std::printf("== SC'2000 floor demo: distributed visualization ==\n\n");

  ::esg::esg::TestbedConfig cfg;
  cfg.grid = climate::GridSpec{36, 72};
  ::esg::esg::EsgTestbed testbed(cfg);

  ::esg::esg::DatasetSpec spec;
  spec.name = "pcmdi-ipcc-demo";
  spec.start_month = 36;
  spec.n_months = 60;  // five years, ten 6-month chunks
  spec.months_per_file = 6;
  spec.replica_hosts = {"pdsf.lbl.gov", "sprite.llnl.gov",
                        "jupiter.isi.edu", "pitcairn.mcs.anl.gov",
                        "dataportal.ncar.edu"};
  spec.layout = ::esg::esg::ReplicaLayout::scattered;
  if (auto st = testbed.publish_dataset(spec); !st.ok()) {
    std::printf("publish failed: %s\n", st.error().to_string().c_str());
    return 1;
  }
  std::printf(
      "dataset scattered across 5 sites (each location holds a partial\n"
      "collection, every chunk replicated at exactly two sites)\n");
  testbed.start_sensors(2);

  ::esg::esg::EsgClient client(testbed);
  for (const std::string variable : {"precipitation", "cloud_fraction"}) {
    ::esg::esg::AnalysisRequest req;
    req.dataset = spec.name;
    req.variable = variable;
    req.month_start = 36;
    req.month_end = 96;
    auto result = client.analyze_blocking(req);
    if (!result.status.ok()) {
      std::printf("%s failed: %s\n", variable.c_str(),
                  result.status.error().to_string().c_str());
      return 1;
    }
    std::set<std::string> sites_used;
    for (const auto& f : result.transfer.files) {
      sites_used.insert(f.chosen_host);
    }
    std::printf(
        "\n--- %s: %zu files (%s) fetched from %zu different sites ---\n",
        variable.c_str(), result.transfer.files.size(),
        common::format_bytes(result.transfer.total_bytes).c_str(),
        sites_used.size());
    for (const auto& f : result.transfer.files) {
      std::printf("  %-30s <- %s\n", f.request.filename.c_str(),
                  f.chosen_host.c_str());
    }
    std::printf("\n%s\n", climate::render_ascii(result.mean).c_str());
    const std::string ppm = "sc2000_" + variable + ".ppm";
    if (climate::write_ppm(result.mean, ppm).ok()) {
      std::printf("wrote %s\n", ppm.c_str());
    }
  }

  std::printf("\nFig 4-style monitor at completion:\n%s",
              testbed.monitor().render(testbed.sim.now()).c_str());

  // Observability artifacts: a Chrome/Perfetto trace of the whole run
  // (rm -> gridftp -> net spans per file, flight events such as each
  // GridFTP attempt as markers on them) and the metrics snapshot.
  auto write_file = [](const char* path, const std::string& body) {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", path);
    }
  };
  write_file("sc2000_trace.json",
             obs::to_chrome_trace(testbed.sim.tracer(),
                                  testbed.sim.flight_recorder()));
  write_file("sc2000_metrics.json",
             obs::to_json(testbed.sim.metrics().snapshot(testbed.sim.now())));
  std::printf(
      "open sc2000_trace.json in https://ui.perfetto.dev (or\n"
      "chrome://tracing) to see per-file rm/gridftp/net span nesting.\n");
  return 0;
}
