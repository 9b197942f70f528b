// replica_catalog_demo — Figure 6, exactly.
//
// Builds the paper's example replica catalog: two logical collections of
// CO2 measurements; the 1998 collection has a *partial* replica at
// jupiter.isi.edu and a *complete* one at sprite.llnl.gov.  Then exercises
// the catalog the way the request manager does, and uses the replica
// manager to complete the partial location (third-party GridFTP copy +
// catalog registration).
#include <cstdio>

#include "directory/service.hpp"
#include "replica/manager.hpp"
#include "esg/testbed.hpp"

using namespace esg;

namespace {

void show_catalog(::esg::esg::EsgTestbed& testbed,
                  replica::ReplicaCatalog& catalog) {
  bool done = false;
  catalog.list_locations(
      "CO2 measurements 1998",
      [&](common::Result<std::vector<replica::LocationInfo>> r) {
        if (r) {
          for (const auto& loc : *r) {
            std::printf("  location %-14s host %-18s files:", loc.name.c_str(),
                        loc.hostname.c_str());
            for (const auto& f : loc.files) std::printf(" %s", f.c_str());
            std::printf("\n");
          }
        }
        done = true;
      });
  testbed.run_until_flag(done);
}

}  // namespace

int main() {
  std::printf("== replica catalog demo (Fig 6) ==\n\n");
  ::esg::esg::EsgTestbed testbed;
  auto catalog = testbed.make_catalog();

  // Build the Figure 6 tree.
  int pending = 0;
  auto step = [&pending](common::Status st) {
    if (!st.ok()) {
      std::printf("catalog op failed: %s\n", st.error().to_string().c_str());
    }
    --pending;
  };
  const std::vector<std::string> files = {"jan.ncx", "feb.ncx", "mar.ncx"};
  ++pending;
  catalog.create_catalog(step);
  for (const char* coll : {"CO2 measurements 1998", "CO2 measurements 1999"}) {
    ++pending;
    catalog.create_collection(coll, step);
  }
  for (const auto& f : files) {
    ++pending;
    catalog.register_logical_file("CO2 measurements 1998", {f, 25'000'000},
                                  step);
  }
  replica::LocationInfo jupiter;
  jupiter.name = "jupiter-isi";
  jupiter.hostname = "jupiter.isi.edu";
  jupiter.path = "data/co2/1998";
  jupiter.files = {"jan.ncx"};  // partial, as in the figure
  replica::LocationInfo sprite;
  sprite.name = "sprite-llnl";
  sprite.hostname = "sprite.llnl.gov";
  sprite.path = "pcmdi/co2/1998";
  sprite.files = files;  // complete
  ++pending;
  catalog.register_location("CO2 measurements 1998", jupiter, step);
  ++pending;
  catalog.register_location("CO2 measurements 1998", sprite, step);
  testbed.sim.run_while_pending([&] { return pending == 0; });

  // Back the complete location with actual bytes.
  auto& llnl = testbed.server("sprite.llnl.gov");
  auto& isi = testbed.server("jupiter.isi.edu");
  for (const auto& f : files) {
    (void)llnl.storage().put(
        storage::FileObject::synthetic("pcmdi/co2/1998/" + f, 25'000'000));
  }
  (void)isi.storage().put(
      storage::FileObject::synthetic("data/co2/1998/jan.ncx", 25'000'000));

  std::printf("initial catalog state:\n");
  show_catalog(testbed, catalog);

  // The request manager's question: where can I get feb.ncx?
  bool queried = false;
  catalog.find_replicas(
      "CO2 measurements 1998", "feb.ncx",
      [&](common::Result<std::vector<replica::Replica>> r) {
        std::printf("\nreplicas of feb.ncx:\n");
        if (r) {
          for (const auto& rep : *r) {
            std::printf("  %s\n", rep.url.to_string().c_str());
          }
        }
        queried = true;
      });
  testbed.run_until_flag(queried);

  // Complete the partial replica: third-party copies + registration.
  std::printf("\nreplicating missing files to jupiter-isi...\n");
  replica::ReplicaManager manager(catalog, testbed.client());
  bool replicated = false;
  gridftp::TransferOptions opts;
  opts.parallelism = 2;
  opts.buffer_size = 2 * common::kMiB;
  manager.replicate_collection(
      "CO2 measurements 1998", "sprite-llnl", "jupiter-isi", opts,
      [&](replica::ReplicateResult r) {
        if (r.status.ok()) {
          std::printf("copied %d files, %s\n", r.files_copied,
                      common::format_bytes(r.bytes_copied).c_str());
        } else {
          std::printf("replication failed: %s\n",
                      r.status.error().to_string().c_str());
        }
        replicated = true;
      });
  testbed.run_until_flag(replicated);

  std::printf("\nfinal catalog state (jupiter-isi now complete):\n");
  show_catalog(testbed, catalog);
  return 0;
}
