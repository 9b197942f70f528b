// Quickstart — the shortest path through the public API.
//
// Builds the ESG testbed (Fig 1/Fig 7 topology), publishes a small
// synthetic climate dataset replicated at two sites, then performs the
// paper's end-to-end flow once: select data by attributes, translate to
// logical files, let the request manager pick replicas and move the data,
// and compute a time mean on the client.
#include <cstdio>

#include "climate/render.hpp"
#include "esg/client.hpp"
#include "esg/testbed.hpp"

using namespace esg;

int main() {
  common::set_global_log_level(common::LogLevel::warn);
  std::printf("== ESG quickstart ==\n\n");

  // 1. Bring up the testbed: seven data sites, catalogs, MDS, HRM, RM.
  ::esg::esg::EsgTestbed testbed;
  std::printf("testbed up: %zu data hosts, client at %s\n",
              testbed.data_hosts().size(),
              testbed.client().local_host().name().c_str());

  // 2. Publish a dataset: 2 years of monthly output, 6-month chunk files,
  //    replicated at LLNL (primary) and LBNL.
  ::esg::esg::DatasetSpec spec;
  spec.name = "pcmdi-ocean-r1";
  spec.start_month = 36;  // January 1998
  spec.n_months = 24;
  spec.months_per_file = 6;
  spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov"};
  if (auto st = testbed.publish_dataset(spec); !st.ok()) {
    std::printf("publish failed: %s\n", st.error().to_string().c_str());
    return 1;
  }
  std::printf("published %s: %d months in %d-month chunks at 2 sites\n",
              spec.name.c_str(), spec.n_months, spec.months_per_file);

  // 3. Warm the NWS sensors so replica selection has forecasts.
  testbed.start_sensors(2);
  std::printf("NWS sensors warm (2 measurement rounds)\n");

  // 4. The Fig 2 step: browse the metadata catalog by attributes — this is
  //    what VCDAT's selection screen queries.
  ::esg::esg::EsgClient client(testbed);
  bool browsed = false;
  client.metadata().lookup_dataset(
      "pcmdi-ocean-r1", [&](common::Result<metadata::DatasetInfo> r) {
        if (r) {
          std::printf("\ncatalog entry %s (%s, %s):\n", r->name.c_str(),
                      r->model.c_str(), r->institution.c_str());
          for (const auto& v : r->variables) {
            std::printf("  variable %-16s [%s] %s\n", v.name.c_str(),
                        v.units.c_str(), v.long_name.c_str());
          }
          std::printf("  coverage: months %d..%d in %d-month files\n",
                      r->start_month, r->start_month + r->n_months,
                      r->months_per_file);
        }
        browsed = true;
      });
  testbed.run_until_flag(browsed);

  // 5. The CDAT flow: attributes -> logical files -> RM -> analysis.
  ::esg::esg::AnalysisRequest request;
  request.dataset = "pcmdi-ocean-r1";
  request.variable = "temperature";
  request.month_start = 36;
  request.month_end = 48;  // calendar year 1998
  auto result = client.analyze_blocking(request);
  if (!result.status.ok()) {
    std::printf("analysis failed: %s\n",
                result.status.error().to_string().c_str());
    return 1;
  }

  std::printf("\nfetched %s in %s (%zu files)\n",
              common::format_bytes(result.transfer.total_bytes).c_str(),
              common::format_time(result.transfer.finished -
                                  result.transfer.started)
                  .c_str(),
              result.transfer.files.size());
  for (const auto& f : result.transfer.files) {
    std::printf("  %-28s from %-22s forecast %s\n",
                f.request.filename.c_str(), f.chosen_host.c_str(),
                common::format_rate(f.forecast_bandwidth).c_str());
  }
  std::printf(
      "\n1998 mean temperature: min %.1f, max %.1f, global mean %.1f degC\n",
      result.stats.min, result.stats.max, result.stats.mean);
  std::printf("\n%s\n", climate::render_ascii(result.mean).c_str());
  return 0;
}
