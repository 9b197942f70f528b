#include "replica/catalog.hpp"

#include "directory/filter.hpp"

namespace esg::replica {

using common::Errc;
using common::Error;
using common::Result;
using common::Status;
using directory::Dn;
using directory::Entry;
using directory::ModOp;
using directory::Scope;

ReplicaCatalog::ReplicaCatalog(directory::DirectoryClient client,
                               std::string catalog_name)
    : client_(std::move(client)), catalog_name_(std::move(catalog_name)) {}

Dn ReplicaCatalog::root_dn() const {
  return Dn::from_rdns({{"rc", catalog_name_}, {"o", "Grid"}});
}

Dn ReplicaCatalog::collection_dn(const std::string& collection) const {
  return root_dn().child("lc", collection);
}

void ReplicaCatalog::create_catalog(StatusCb done) {
  Entry root(root_dn());
  root.add("objectclass", "replicacatalog");
  client_.add(root, /*ensure=*/true, std::move(done));
}

void ReplicaCatalog::create_collection(const std::string& collection,
                                       StatusCb done) {
  Entry e(collection_dn(collection));
  e.add("objectclass", "logicalcollection");
  e.add("name", collection);
  client_.add(e, /*ensure=*/true, std::move(done));
}

void ReplicaCatalog::register_logical_file(const std::string& collection,
                                           const LogicalFileInfo& file,
                                           StatusCb done) {
  Entry e(collection_dn(collection).child("lf", file.name));
  e.add("objectclass", "logicalfile");
  e.add("name", file.name);
  e.add("size", file.size);
  auto cb = std::move(done);
  // Two steps: the lf= entry, then the filename attribute on the collection.
  client_.add(e, /*ensure=*/true,
              [this, collection, name = file.name,
               cb = std::move(cb)](Status st) mutable {
                if (!st.ok()) return cb(st);
                client_.modify(collection_dn(collection),
                               {{ModOp::Kind::add, "filename", name}},
                               std::move(cb));
              });
}

void ReplicaCatalog::register_location(const std::string& collection,
                                       const LocationInfo& location,
                                       StatusCb done) {
  Entry e(collection_dn(collection).child("loc", location.name));
  e.add("objectclass", "location");
  e.add("name", location.name);
  e.add("hostname", location.hostname);
  e.add("protocol", location.protocol);
  e.add("path", location.path);
  e.add("storagetype", location.storage_type);
  for (const auto& f : location.files) e.add("filename", f);
  client_.add(e, /*ensure=*/true, std::move(done));
}

void ReplicaCatalog::add_file_to_location(const std::string& collection,
                                          const std::string& location,
                                          const std::string& filename,
                                          StatusCb done) {
  client_.modify(collection_dn(collection).child("loc", location),
                 {{ModOp::Kind::add, "filename", filename}}, std::move(done));
}

void ReplicaCatalog::remove_file_from_location(const std::string& collection,
                                               const std::string& location,
                                               const std::string& filename,
                                               StatusCb done) {
  client_.modify(collection_dn(collection).child("loc", location),
                 {{ModOp::Kind::remove_value, "filename", filename}},
                 std::move(done));
}

LocationInfo ReplicaCatalog::location_from_entry(Entry&& entry) {
  LocationInfo info;
  info.name = entry.get("name");
  info.hostname = entry.get("hostname");
  info.protocol = entry.get("protocol");
  info.path = entry.get("path");
  info.storage_type = entry.get("storagetype");
  info.files = entry.take_values("filename");
  return info;
}

void ReplicaCatalog::list_locations(
    const std::string& collection,
    std::function<void(Result<std::vector<LocationInfo>>)> done) {
  client_.search(collection_dn(collection), Scope::one,
                 "(objectclass=location)", {},
                 [done = std::move(done)](Result<std::vector<Entry>> r) {
                   if (!r) return done(r.error());
                   std::vector<LocationInfo> out;
                   out.reserve(r->size());
                   for (auto& e : *r) {
                     out.push_back(location_from_entry(std::move(e)));
                   }
                   done(std::move(out));
                 });
}

void ReplicaCatalog::find_replicas(
    const std::string& collection, const std::string& filename,
    std::function<void(Result<std::vector<Replica>>)> done) {
  // What replica selection reads; each location's filename list, the bulk
  // of its entry, stays on the server.
  static const std::vector<std::string> kReplicaAttrs = {
      "name", "hostname", "protocol", "path", "storagetype"};
  client_.search(
      collection_dn(collection), Scope::one,
      "(&(objectclass=location)(filename=" +
          directory::Filter::escape(filename) + "))",
      kReplicaAttrs,
      [collection, filename, done = std::move(done)](Result<std::vector<Entry>> r) {
        if (!r) return done(r.error());
        std::vector<Replica> out;
        out.reserve(r->size());
        for (auto& e : *r) {
          Replica rep;
          rep.location = location_from_entry(std::move(e));
          rep.url = rep.location.url_for(filename);
          out.push_back(std::move(rep));
        }
        if (out.empty()) {
          return done(Error{Errc::not_found,
                            "no replicas of " + filename + " in " + collection});
        }
        done(std::move(out));
      });
}

void ReplicaCatalog::lookup_logical_file(
    const std::string& collection, const std::string& filename,
    std::function<void(Result<LogicalFileInfo>)> done) {
  client_.lookup(collection_dn(collection).child("lf", filename),
                 [done = std::move(done)](Result<Entry> r) {
                   if (!r) return done(r.error());
                   LogicalFileInfo info;
                   info.name = r->get("name");
                   info.size = r->get_int("size");
                   done(std::move(info));
                 });
}

void ReplicaCatalog::list_files(
    const std::string& collection,
    std::function<void(Result<std::vector<std::string>>)> done) {
  client_.lookup(collection_dn(collection),
                 [done = std::move(done)](Result<Entry> r) {
                   if (!r) return done(r.error());
                   done(r->take_values("filename"));
                 });
}

}  // namespace esg::replica
