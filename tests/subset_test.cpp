// Tests for the ESG-II server-side subsetting module: the parameter
// grammar, the ncx subsetter itself, and the full pipeline through the
// GridFTP ERET hook and the EsgClient.
#include <gtest/gtest.h>

#include "climate/model.hpp"
#include "climate/subset.hpp"
#include "esg/client.hpp"
#include "esg/testbed.hpp"
#include "ncformat/ncx.hpp"

namespace cl = esg::climate;
namespace ec = esg::common;
namespace ee = esg::esg;

namespace {

cl::ClimateModel model() {
  return cl::ClimateModel(cl::ModelConfig{cl::GridSpec{18, 36}, 7, 1995});
}

esg::storage::FileObject chunk_file(int month0 = 36, int months = 12) {
  auto bytes = model().write_chunk(month0, months);
  return esg::storage::FileObject::with_content("chunk.ncx", bytes);
}

}  // namespace

// ---------- parameter grammar ----------

TEST(SubsetParams, ParseFullSpec) {
  auto spec = cl::parse_subset_params(
      "var=temperature;months=36:42;lat=-30:30;lon=90:270");
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  EXPECT_EQ(*spec->variable, "temperature");
  EXPECT_EQ(spec->months->first, 36);
  EXPECT_EQ(spec->months->second, 42);
  EXPECT_DOUBLE_EQ(spec->lat->first, -30.0);
  EXPECT_DOUBLE_EQ(spec->lon->second, 270.0);
}

TEST(SubsetParams, EmptyIsIdentity) {
  auto spec = cl::parse_subset_params("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->variable.has_value());
  EXPECT_FALSE(spec->months.has_value());
}

TEST(SubsetParams, Errors) {
  EXPECT_FALSE(cl::parse_subset_params("nonsense").ok());
  EXPECT_FALSE(cl::parse_subset_params("months=42").ok());
  EXPECT_FALSE(cl::parse_subset_params("lat=30:-30").ok());
  EXPECT_FALSE(cl::parse_subset_params("frob=1:2").ok());
}

TEST(SubsetParams, RoundTripThroughToParams) {
  cl::SubsetSpec spec;
  spec.variable = "precipitation";
  spec.months = {40, 44};
  spec.lat = {-15.0, 15.0};
  auto parsed = cl::parse_subset_params(spec.to_params());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->variable, "precipitation");
  EXPECT_EQ(parsed->months->second, 44);
  EXPECT_FALSE(parsed->lon.has_value());
}

// ---------- the subsetter ----------

TEST(NcxSubset, VariableExtractionShrinksFile) {
  auto file = chunk_file();
  cl::SubsetSpec spec;
  spec.variable = "temperature";
  auto out = cl::ncx_subset(file, spec);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_LT(out->size, file.size / 2);  // 1 of 3 data variables kept
  auto reader = esg::ncformat::NcxReader::open(out->content);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->variable("temperature").ok());
  EXPECT_FALSE(reader->variable("precipitation").ok());
  EXPECT_TRUE(reader->variable("lat").ok());  // coordinates preserved
}

TEST(NcxSubset, MonthWindowAdjustsCoverage) {
  auto file = chunk_file(36, 12);
  cl::SubsetSpec spec;
  spec.months = {40, 44};
  auto out = cl::ncx_subset(file, spec);
  ASSERT_TRUE(out.ok());
  auto reader = esg::ncformat::NcxReader::open(out->content);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->dimension_size("time").value_or(0), 4u);
  EXPECT_EQ(reader->global_attrs().at("month0"), "40");
  // Data matches direct generation of those months (f32 rounding).
  auto stored = reader->read("temperature");
  ASSERT_TRUE(stored.ok());
  auto direct = model().generate("temperature", 40, 4);
  ASSERT_EQ(stored->size(), direct.data().size());
  for (std::size_t k = 0; k < stored->size(); k += 53) {
    EXPECT_NEAR((*stored)[k], direct.data()[k], 1e-4);
  }
}

TEST(NcxSubset, MonthWindowClippedToFile) {
  auto file = chunk_file(36, 12);
  cl::SubsetSpec spec;
  spec.months = {30, 40};  // starts before the file
  auto out = cl::ncx_subset(file, spec);
  ASSERT_TRUE(out.ok());
  auto reader = esg::ncformat::NcxReader::open(out->content);
  EXPECT_EQ(reader->dimension_size("time").value_or(0), 4u);  // 36..40
  EXPECT_EQ(reader->global_attrs().at("month0"), "36");
}

TEST(NcxSubset, LatLonBox) {
  auto file = chunk_file();
  cl::SubsetSpec spec;
  spec.lat = {-30.0, 30.0};
  spec.lon = {90.0, 180.0};
  auto out = cl::ncx_subset(file, spec);
  ASSERT_TRUE(out.ok());
  auto reader = esg::ncformat::NcxReader::open(out->content);
  ASSERT_TRUE(reader.ok());
  // 18 rows cover 10 degrees each; [-30,30] selects 6.  36 columns cover
  // 10 degrees each; [90,180] selects 9.
  EXPECT_EQ(reader->dimension_size("lat").value_or(0), 6u);
  EXPECT_EQ(reader->dimension_size("lon").value_or(0), 9u);
  auto lat = reader->read("lat");
  ASSERT_TRUE(lat.ok());
  for (double v : *lat) {
    EXPECT_GE(v, -30.0);
    EXPECT_LE(v, 30.0);
  }
}

TEST(NcxSubset, ErrorsOnBadInput) {
  // No content.
  auto synthetic = esg::storage::FileObject::synthetic("x", 100);
  EXPECT_FALSE(cl::ncx_subset(synthetic, {}).ok());
  // Unknown variable.
  auto file = chunk_file();
  cl::SubsetSpec spec;
  spec.variable = "salinity";
  EXPECT_FALSE(cl::ncx_subset(file, spec).ok());
  // Month window outside file.
  cl::SubsetSpec miss;
  miss.months = {100, 110};
  EXPECT_FALSE(cl::ncx_subset(file, miss).ok());
  // Empty lat box.
  cl::SubsetSpec empty_box;
  empty_box.lat = {89.9, 89.95};
  EXPECT_FALSE(cl::ncx_subset(file, empty_box).ok());
}

// ---------- end-to-end through GridFTP + EsgClient ----------

namespace {

ee::TestbedConfig small_config() {
  ee::TestbedConfig cfg;
  cfg.grid = cl::GridSpec{18, 36};
  cfg.sensor_period = 30 * ec::kSecond;
  return cfg;
}

ee::DatasetSpec small_dataset() {
  ee::DatasetSpec spec;
  spec.name = "subset-ds";
  spec.start_month = 36;
  spec.n_months = 12;
  spec.months_per_file = 6;
  spec.replica_hosts = {"sprite.llnl.gov", "pdsf.lbl.gov"};
  return spec;
}

}  // namespace

TEST(SubsetEndToEnd, ServerSideSubsetMatchesWholeFileAnalysis) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  testbed.start_sensors(1);
  ee::EsgClient client(testbed);

  ee::AnalysisRequest req;
  req.dataset = "subset-ds";
  req.variable = "temperature";
  req.month_start = 38;
  req.month_end = 46;

  auto whole = client.analyze_blocking(req);
  ASSERT_TRUE(whole.status.ok()) << whole.status.error().to_string();

  req.server_side_subset = true;
  auto subset = client.analyze_blocking(req);
  ASSERT_TRUE(subset.status.ok()) << subset.status.error().to_string();

  // Identical analysis result...
  ASSERT_EQ(subset.field.ntime(), whole.field.ntime());
  ASSERT_EQ(subset.field.data().size(), whole.field.data().size());
  for (std::size_t k = 0; k < whole.field.data().size(); k += 97) {
    EXPECT_NEAR(subset.field.data()[k], whole.field.data()[k], 1e-9);
  }
  // ...for a fraction of the bytes on the wire.
  EXPECT_LT(subset.transfer.total_bytes, whole.transfer.total_bytes / 2);
}

TEST(SubsetEndToEnd, RegionalSubsetShrinksGridAndBytes) {
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  testbed.start_sensors(1);
  ee::EsgClient client(testbed);

  ee::AnalysisRequest req;
  req.dataset = "subset-ds";
  req.variable = "precipitation";
  req.month_start = 36;
  req.month_end = 42;
  req.server_side_subset = true;
  req.lat_box = {{-30.0, 30.0}};

  auto result = client.analyze_blocking(req);
  ASSERT_TRUE(result.status.ok()) << result.status.error().to_string();
  EXPECT_EQ(result.field.grid().nlat, 6);   // tropics only
  EXPECT_EQ(result.field.grid().nlon, 36);  // full longitudes
  EXPECT_EQ(result.field.ntime(), 6);
  // Values match the tropical rows of direct generation.
  auto direct = testbed.model().generate("precipitation", 36, 6);
  for (int t = 0; t < 6; t += 2) {
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 36; j += 7) {
        EXPECT_NEAR(result.field.at(t, i, j), direct.at(t, i + 6, j), 1e-3);
      }
    }
  }
}

TEST(SubsetEndToEnd, SubsetViaRawGridFtpEret) {
  // The module is reachable through plain GridFTP options too.
  ee::EsgTestbed testbed(small_config());
  ASSERT_TRUE(testbed.publish_dataset(small_dataset()).ok());
  esg::gridftp::TransferOptions opts;
  opts.eret_module = cl::kNcxSubsetModule;
  opts.eret_params = "var=cloud_fraction;months=36:39";
  bool done = false;
  testbed.client().get(
      {"sprite.llnl.gov", "subset-ds/subset-ds.36-42.ncx"}, "sub.ncx", opts,
      nullptr, [&](esg::gridftp::TransferResult r) {
        ASSERT_TRUE(r.status.ok()) << r.status.error().to_string();
        done = true;
      });
  testbed.run_until_flag(done);
  ASSERT_TRUE(done);
  auto f = testbed.client().local_storage().get("sub.ncx");
  ASSERT_TRUE(f.ok());
  auto reader = esg::ncformat::NcxReader::open(f->content);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->dimension_size("time").value_or(0), 3u);
  EXPECT_TRUE(reader->variable("cloud_fraction").ok());
  EXPECT_FALSE(reader->variable("temperature").ok());
}
