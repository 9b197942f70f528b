#include "esg/client.hpp"

#include <algorithm>

namespace esg::esg {

using common::Errc;
using common::Error;
using common::Result;
using common::Status;

EsgClient::EsgClient(EsgTestbed& testbed)
    : testbed_(testbed), metadata_(testbed.make_metadata_catalog()) {}

Result<climate::Field> EsgClient::assemble(const AnalysisRequest& request,
                                           const rm::RequestResult& transfer) {
  climate::Field out;
  bool first = true;
  // transfer.files preserves submission order == ascending month order.
  for (const auto& outcome : transfer.files) {
    auto file = testbed_.client().local_storage().get(outcome.local_name);
    if (!file) return file.error();
    if (!file->content) {
      return Error{Errc::internal,
                   "fetched file has no content: " + outcome.local_name};
    }
    auto reader = ncformat::NcxReader::open(file->content);
    if (!reader) return reader.error();
    auto nlat = reader->dimension_size("lat");
    auto nlon = reader->dimension_size("lon");
    auto ntime = reader->dimension_size("time");
    if (!nlat || !nlon || !ntime) {
      return Error{Errc::protocol_error, "bad chunk dims"};
    }
    const auto& gattrs = reader->global_attrs();
    const int month0 =
        gattrs.count("month0") ? std::atoi(gattrs.at("month0").c_str()) : 0;

    // Clip this file's coverage to the request window.
    const int lo = std::max(month0, request.month_start);
    const int hi = std::min(month0 + static_cast<int>(*ntime),
                            request.month_end);
    if (lo >= hi) continue;
    const auto t0 = static_cast<std::uint32_t>(lo - month0);
    const auto tc = static_cast<std::uint32_t>(hi - lo);
    auto slab = reader->read_slab(request.variable, {t0, 0, 0},
                                  {tc, *nlat, *nlon});
    if (!slab) return slab.error();

    climate::GridSpec grid{static_cast<int>(*nlat), static_cast<int>(*nlon)};
    climate::Field chunk(grid, static_cast<int>(tc), request.variable,
                         climate::ClimateModel::units_of(request.variable));
    chunk.data() = std::move(*slab);
    if (first) {
      out = std::move(chunk);
      first = false;
    } else {
      if (auto st = out.append_time(chunk); !st.ok()) return st.error();
    }
  }
  if (first) {
    return Error{Errc::not_found, "no months assembled"};
  }
  return out;
}

void EsgClient::analyze(const AnalysisRequest& request,
                        std::function<void(AnalysisResult)> done) {
  auto done_shared =
      std::make_shared<std::function<void(AnalysisResult)>>(std::move(done));
  // Step 1: CDMS translation — attributes to logical file names.
  metadata_.files_for(
      request.dataset, request.variable, request.month_start,
      request.month_end,
      [this, request, done_shared](
          Result<std::vector<metadata::LogicalFileRef>> refs) {
        if (!refs) {
          AnalysisResult r;
          r.status = Status(refs.error());
          return (*done_shared)(std::move(r));
        }
        // Step 2: hand the logical files to the request manager — whole
        // chunks, or per-chunk server-side subsets in ESG-II mode.
        std::vector<rm::FileRequest> wanted;
        wanted.reserve(refs->size());
        for (const auto& ref : *refs) {
          rm::FileRequest fr{ref.collection, ref.filename, "", ""};
          if (request.server_side_subset) {
            climate::SubsetSpec spec;
            spec.variable = request.variable;
            spec.months = std::make_pair(
                std::max(ref.start_month, request.month_start),
                std::min(ref.end_month, request.month_end));
            spec.lat = request.lat_box;
            spec.lon = request.lon_box;
            fr.eret_module = climate::kNcxSubsetModule;
            fr.eret_params = spec.to_params();
          }
          wanted.push_back(std::move(fr));
        }
        testbed_.request_manager().submit(
            std::move(wanted), request.rm_options,
            [this, request, done_shared](rm::RequestResult rr) {
              AnalysisResult result;
              result.transfer = std::move(rr);
              if (!result.transfer.status.ok()) {
                result.status = result.transfer.status;
                return (*done_shared)(std::move(result));
              }
              // Step 3: client-side analysis, as the paper's CDAT does.
              auto field = assemble(request, result.transfer);
              if (!field) {
                result.status = Status(field.error());
                return (*done_shared)(std::move(result));
              }
              result.field = std::move(*field);
              result.mean = climate::time_mean(result.field);
              result.stats = climate::field_stats(result.mean);
              (*done_shared)(std::move(result));
            });
      });
}

AnalysisResult EsgClient::analyze_blocking(const AnalysisRequest& request) {
  AnalysisResult result;
  bool finished = false;
  analyze(request, [&](AnalysisResult r) {
    result = std::move(r);
    finished = true;
  });
  testbed_.run_until_flag(finished);
  if (!finished) {
    result.status = Error{Errc::timed_out, "analysis did not complete"};
  }
  return result;
}

}  // namespace esg::esg
