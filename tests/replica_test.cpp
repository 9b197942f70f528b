// Tests for the replica catalog (Fig 6 schema) and the replica manager.
#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/star.hpp"
#include "replica/manager.hpp"

namespace er = esg::replica;
namespace ec = esg::common;
using esg::scenario::UniformStar;

namespace {

// Builds exactly the Figure 6 catalog: two collections of CO2 measurements,
// the 1998 one replicated (partially) at jupiter.isi.edu and (completely)
// at sprite.llnl.gov.
struct Fig6 {
  UniformStar grid{{"isi", "llnl"}};
  er::ReplicaCatalog catalog = grid.make_catalog("GriPhyN");

  const std::vector<std::string> files = {"jan.ncx", "feb.ncx", "mar.ncx"};

  Fig6() {
    bool ready = false;
    catalog.create_catalog([&](ec::Status st) { EXPECT_TRUE(st.ok()); });
    catalog.create_collection("CO2 measurements 1998",
                              [&](ec::Status st) { ASSERT_TRUE(st.ok()); });
    catalog.create_collection("CO2 measurements 1999",
                              [&](ec::Status st) { ASSERT_TRUE(st.ok()); });
    for (const auto& f : files) {
      catalog.register_logical_file(
          "CO2 measurements 1998", {f, 10'000'000},
          [&](ec::Status st) { ASSERT_TRUE(st.ok()); });
    }
    er::LocationInfo jupiter;
    jupiter.name = "jupiter-isi";
    jupiter.hostname = "isi.host";
    jupiter.path = "co2/1998";
    jupiter.files = {"jan.ncx"};  // partial collection
    er::LocationInfo sprite;
    sprite.name = "sprite-llnl";
    sprite.hostname = "llnl.host";
    sprite.path = "pcmdi/co2/1998";
    sprite.files = files;  // complete collection
    catalog.register_location("CO2 measurements 1998", jupiter,
                              [&](ec::Status st) { ASSERT_TRUE(st.ok()); });
    catalog.register_location("CO2 measurements 1998", sprite,
                              [&](ec::Status st) {
                                ASSERT_TRUE(st.ok());
                                ready = true;
                              });
    grid.sim.run();
    EXPECT_TRUE(ready);
  }
};

}  // namespace

TEST(ReplicaCatalog, Fig6FindReplicasPartialVsComplete) {
  Fig6 f;
  // jan.ncx exists at both locations.
  bool checked = false;
  f.catalog.find_replicas("CO2 measurements 1998", "jan.ncx",
                          [&](ec::Result<std::vector<er::Replica>> r) {
                            ASSERT_TRUE(r.ok());
                            EXPECT_EQ(r->size(), 2u);
                            checked = true;
                          });
  f.grid.sim.run();
  ASSERT_TRUE(checked);

  // feb.ncx only at the complete location.
  checked = false;
  f.catalog.find_replicas(
      "CO2 measurements 1998", "feb.ncx",
      [&](ec::Result<std::vector<er::Replica>> r) {
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r->size(), 1u);
        EXPECT_EQ(r->front().location.name, "sprite-llnl");
        EXPECT_EQ(r->front().url.to_string(),
                  "gsiftp://llnl.host/pcmdi/co2/1998/feb.ncx");
        checked = true;
      });
  f.grid.sim.run();
  EXPECT_TRUE(checked);
}

// find_replicas asks only for what replica selection reads: each location
// is list_locations' entry of the same name without its file list.
TEST(ReplicaCatalog, FindReplicasLocationsAreListLocationsWithoutFiles) {
  Fig6 f;
  std::vector<er::LocationInfo> listed;
  f.catalog.list_locations("CO2 measurements 1998",
                           [&](ec::Result<std::vector<er::LocationInfo>> r) {
                             ASSERT_TRUE(r.ok());
                             listed = std::move(*r);
                           });
  f.grid.sim.run();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[1].name, "sprite-llnl");
  EXPECT_EQ(listed[1].files, f.files);  // list_locations keeps the lists

  bool checked = false;
  f.catalog.find_replicas(
      "CO2 measurements 1998", "jan.ncx",
      [&](ec::Result<std::vector<er::Replica>> r) {
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r->size(), 2u);
        for (const auto& rep : *r) {
          const er::LocationInfo& got = rep.location;
          const auto want =
              std::find_if(listed.begin(), listed.end(),
                           [&](const auto& l) { return l.name == got.name; });
          ASSERT_NE(want, listed.end()) << got.name;
          EXPECT_EQ(got.hostname, want->hostname);
          EXPECT_EQ(got.protocol, want->protocol);
          EXPECT_EQ(got.path, want->path);
          EXPECT_EQ(got.storage_type, want->storage_type);
          EXPECT_TRUE(got.files.empty()) << got.name;
        }
        checked = true;
      });
  f.grid.sim.run();
  EXPECT_TRUE(checked);
}

// A logical filename is a name, not a filter pattern.
TEST(ReplicaCatalog, FilenamesMatchLiterallyNotAsPatterns) {
  Fig6 f;
  for (const std::string name : {"*", "*.ncx", "feb*"}) {
    bool checked = false;
    f.catalog.find_replicas("CO2 measurements 1998", name,
                            [&](ec::Result<std::vector<er::Replica>> r) {
                              ASSERT_FALSE(r.ok()) << name;
                              EXPECT_EQ(r.error().code, ec::Errc::not_found);
                              checked = true;
                            });
    f.grid.sim.run();
    EXPECT_TRUE(checked) << name;
  }

  // "a*b.ncx" at jupiter only; sprite holds a name the pattern would match.
  f.catalog.add_file_to_location("CO2 measurements 1998", "jupiter-isi",
                                 "a*b.ncx",
                                 [](ec::Status st) { ASSERT_TRUE(st.ok()); });
  f.catalog.add_file_to_location("CO2 measurements 1998", "sprite-llnl",
                                 "aXb.ncx",
                                 [](ec::Status st) { ASSERT_TRUE(st.ok()); });
  f.grid.sim.run();
  bool checked = false;
  f.catalog.find_replicas("CO2 measurements 1998", "a*b.ncx",
                          [&](ec::Result<std::vector<er::Replica>> r) {
                            ASSERT_TRUE(r.ok());
                            ASSERT_EQ(r->size(), 1u);
                            EXPECT_EQ(r->front().location.name, "jupiter-isi");
                            EXPECT_EQ(r->front().url.to_string(),
                                      "gsiftp://isi.host/co2/1998/a*b.ncx");
                            checked = true;
                          });
  f.grid.sim.run();
  EXPECT_TRUE(checked);
}

TEST(ReplicaCatalog, MissingFileReportsNotFound) {
  Fig6 f;
  bool checked = false;
  f.catalog.find_replicas("CO2 measurements 1998", "ghost.ncx",
                          [&](ec::Result<std::vector<er::Replica>> r) {
                            checked = true;
                            ASSERT_FALSE(r.ok());
                            EXPECT_EQ(r.error().code, ec::Errc::not_found);
                          });
  f.grid.sim.run();
  EXPECT_TRUE(checked);
}

TEST(ReplicaCatalog, LogicalFileSizeLookup) {
  Fig6 f;
  bool checked = false;
  f.catalog.lookup_logical_file("CO2 measurements 1998", "feb.ncx",
                                [&](ec::Result<er::LogicalFileInfo> r) {
                                  ASSERT_TRUE(r.ok());
                                  EXPECT_EQ(r->size, 10'000'000);
                                  checked = true;
                                });
  f.grid.sim.run();
  EXPECT_TRUE(checked);
}

TEST(ReplicaCatalog, ListFilesAndLocations) {
  Fig6 f;
  bool files_ok = false, locs_ok = false;
  f.catalog.list_files("CO2 measurements 1998",
                       [&](ec::Result<std::vector<std::string>> r) {
                         ASSERT_TRUE(r.ok());
                         EXPECT_EQ(r->size(), 3u);
                         files_ok = true;
                       });
  f.catalog.list_locations(
      "CO2 measurements 1998",
      [&](ec::Result<std::vector<er::LocationInfo>> r) {
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r->size(), 2u);
        // Deterministic order: jupiter-isi < sprite-llnl by DN.
        EXPECT_EQ((*r)[0].name, "jupiter-isi");
        EXPECT_EQ((*r)[0].files.size(), 1u);
        EXPECT_EQ((*r)[1].files.size(), 3u);
        locs_ok = true;
      });
  f.grid.sim.run();
  EXPECT_TRUE(files_ok);
  EXPECT_TRUE(locs_ok);
}

TEST(ReplicaCatalog, AddAndRemoveFileAtLocation) {
  Fig6 f;
  bool done = false;
  f.catalog.add_file_to_location(
      "CO2 measurements 1998", "jupiter-isi", "feb.ncx",
      [&](ec::Status st) { ASSERT_TRUE(st.ok()); });
  f.grid.sim.run();
  f.catalog.find_replicas("CO2 measurements 1998", "feb.ncx",
                          [&](ec::Result<std::vector<er::Replica>> r) {
                            ASSERT_TRUE(r.ok());
                            EXPECT_EQ(r->size(), 2u);
                            done = true;
                          });
  f.grid.sim.run();
  ASSERT_TRUE(done);

  done = false;
  f.catalog.remove_file_from_location(
      "CO2 measurements 1998", "jupiter-isi", "feb.ncx",
      [&](ec::Status st) { ASSERT_TRUE(st.ok()); });
  f.grid.sim.run();
  f.catalog.find_replicas("CO2 measurements 1998", "feb.ncx",
                          [&](ec::Result<std::vector<er::Replica>> r) {
                            ASSERT_TRUE(r.ok());
                            EXPECT_EQ(r->size(), 1u);
                            done = true;
                          });
  f.grid.sim.run();
  EXPECT_TRUE(done);
}

// ---------- replica manager ----------

TEST(ReplicaManager, ReplicateFileCopiesDataAndRegisters) {
  Fig6 f;
  // Put the actual bytes at the source server.
  auto* llnl = &f.grid.server("llnl.host");
  ASSERT_TRUE(llnl->storage()
                  .put(esg::storage::FileObject::synthetic(
                      "pcmdi/co2/1998/feb.ncx", 10'000'000))
                  .ok());
  er::ReplicaManager manager(f.catalog, f.grid.client());
  bool done = false;
  manager.replicate_file(
      "CO2 measurements 1998", "feb.ncx", "sprite-llnl", "jupiter-isi",
      {}, [&](er::ReplicateResult r) {
        ASSERT_TRUE(r.status.ok()) << r.status.error().to_string();
        EXPECT_EQ(r.bytes_copied, 10'000'000);
        EXPECT_EQ(r.files_copied, 1);
        done = true;
      });
  f.grid.sim.run();
  ASSERT_TRUE(done);
  // Data landed at the destination server.
  auto* isi = &f.grid.server("isi.host");
  EXPECT_EQ(isi->storage().size_of("co2/1998/feb.ncx").value_or(0),
            10'000'000);
  // And the catalog now lists two replicas.
  bool checked = false;
  f.catalog.find_replicas("CO2 measurements 1998", "feb.ncx",
                          [&](ec::Result<std::vector<er::Replica>> r) {
                            ASSERT_TRUE(r.ok());
                            EXPECT_EQ(r->size(), 2u);
                            checked = true;
                          });
  f.grid.sim.run();
  EXPECT_TRUE(checked);
}

TEST(ReplicaManager, ReplicateMissingSourceFails) {
  Fig6 f;
  er::ReplicaManager manager(f.catalog, f.grid.client());
  bool done = false;
  manager.replicate_file("CO2 measurements 1998", "feb.ncx", "jupiter-isi",
                         "sprite-llnl", {}, [&](er::ReplicateResult r) {
                           done = true;
                           ASSERT_FALSE(r.status.ok());
                           EXPECT_EQ(r.status.error().code,
                                     ec::Errc::not_found);
                         });
  f.grid.sim.run();
  EXPECT_TRUE(done);
}

TEST(ReplicaManager, ReplicateCollectionCopiesMissingFilesOnly) {
  Fig6 f;
  auto* llnl = &f.grid.server("llnl.host");
  for (const auto& name : f.files) {
    ASSERT_TRUE(llnl->storage()
                    .put(esg::storage::FileObject::synthetic(
                        "pcmdi/co2/1998/" + name, 10'000'000))
                    .ok());
  }
  er::ReplicaManager manager(f.catalog, f.grid.client());
  bool done = false;
  manager.replicate_collection(
      "CO2 measurements 1998", "sprite-llnl", "jupiter-isi", {},
      [&](er::ReplicateResult r) {
        ASSERT_TRUE(r.status.ok()) << r.status.error().to_string();
        // jupiter already has jan.ncx: only feb + mar copy.
        EXPECT_EQ(r.files_copied, 2);
        EXPECT_EQ(r.bytes_copied, 20'000'000);
        done = true;
      });
  f.grid.sim.run();
  ASSERT_TRUE(done);
  bool checked = false;
  f.catalog.list_locations(
      "CO2 measurements 1998",
      [&](ec::Result<std::vector<er::LocationInfo>> r) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ((*r)[0].files.size(), 3u);  // jupiter now complete
        checked = true;
      });
  f.grid.sim.run();
  EXPECT_TRUE(checked);
}
