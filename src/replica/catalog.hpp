// Globus-style replica catalog (paper §6.2, Fig 6).
//
// The catalog registers three kinds of entries under an LDAP tree:
//
//   rc=<catalog>,o=Grid                          the catalog root
//   lc=<collection>,rc=...                       logical collections
//   loc=<location>,lc=...                        complete or partial physical
//                                                copies of a collection
//   lf=<file>,lc=...                             optional per-file entries
//                                                (size metadata)
//
// Location entries carry the protocol/hostname/path needed to map logical
// names to URLs, plus a multi-valued `filename` attribute listing which of
// the collection's files that location actually holds — partial collections
// (jupiter.isi.edu in Fig 6) list a subset.
//
// All operations are asynchronous over the emulated LDAP service.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "directory/service.hpp"
#include "gridftp/url.hpp"

namespace esg::replica {

struct LocationInfo {
  std::string name;       // e.g. "jupiter-isi"
  std::string hostname;   // e.g. "jupiter.isi.edu"
  std::string protocol = "gsiftp";
  std::string path;       // directory prefix at the location
  // Files of the collection present here.  list_locations fills it;
  // find_replicas leaves it empty, since selection never reads it.
  std::vector<std::string> files;
  std::string storage_type = "disk";  // "disk" or "mss" (HRM-fronted tape)

  /// URL for one file of the collection at this location.
  gridftp::FtpUrl url_for(const std::string& filename) const {
    return gridftp::FtpUrl{hostname,
                           path.empty() ? filename : path + "/" + filename};
  }
};

struct LogicalFileInfo {
  std::string name;
  common::Bytes size = 0;
};

/// A replica candidate returned by find_replicas.
struct Replica {
  LocationInfo location;
  gridftp::FtpUrl url;
};

class ReplicaCatalog {
 public:
  /// `catalog_name` names the rc= root, e.g. "esg".
  ReplicaCatalog(directory::DirectoryClient client, std::string catalog_name);

  using StatusCb = std::function<void(common::Status)>;

  /// Create the rc= root (idempotent via ensure).
  void create_catalog(StatusCb done);

  void create_collection(const std::string& collection, StatusCb done);

  /// Register a logical file: adds an lf= entry with size and appends the
  /// name to the collection's filename list.
  void register_logical_file(const std::string& collection,
                             const LogicalFileInfo& file, StatusCb done);

  /// Register a physical location of a collection.
  void register_location(const std::string& collection,
                         const LocationInfo& location, StatusCb done);

  /// Record that `filename` now has a replica at `location`.
  void add_file_to_location(const std::string& collection,
                            const std::string& location,
                            const std::string& filename, StatusCb done);

  void remove_file_from_location(const std::string& collection,
                                 const std::string& location,
                                 const std::string& filename, StatusCb done);

  /// All locations of a collection.
  void list_locations(
      const std::string& collection,
      std::function<void(common::Result<std::vector<LocationInfo>>)> done);

  /// All locations holding a given file, with ready-made URLs.  `filename`
  /// matches literally (it is escaped into the filter), and each
  /// location's `files` is empty: the search asks only for the attributes
  /// replica selection reads.
  void find_replicas(
      const std::string& collection, const std::string& filename,
      std::function<void(common::Result<std::vector<Replica>>)> done);

  /// Size metadata for one logical file.
  void lookup_logical_file(
      const std::string& collection, const std::string& filename,
      std::function<void(common::Result<LogicalFileInfo>)> done);

  /// Names of all logical files in a collection.
  void list_files(
      const std::string& collection,
      std::function<void(common::Result<std::vector<std::string>>)> done);

  const std::string& catalog_name() const { return catalog_name_; }
  directory::Dn root_dn() const;
  directory::Dn collection_dn(const std::string& collection) const;

  /// Consumes the entry: its filename list, if it carries one, moves into
  /// `files`.
  static LocationInfo location_from_entry(directory::Entry&& entry);

 private:
  directory::DirectoryClient client_;
  std::string catalog_name_;
};

}  // namespace esg::replica
