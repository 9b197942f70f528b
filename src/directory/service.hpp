// Network binding for the directory: serves a DirectoryServer over the RPC
// layer ("the LDAP protocol"), plus an async client.
//
// Wire methods: add (with ensure flag), replace, modify (attribute ops),
// remove, lookup, search (base, scope, filter, then the attribute names to
// return).  All payloads are ByteWriter-framed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "directory/server.hpp"
#include "rpc/orb.hpp"

namespace esg::directory {

/// One attribute mutation shipped to the server.
struct ModOp {
  enum class Kind : std::uint8_t { set = 0, add = 1, remove_attr = 2,
                                   remove_value = 3 };
  Kind kind = Kind::set;
  std::string attr;
  std::string value;  // unused for remove_attr
};

/// Binds `server` as service `service_name` on `host`.
class DirectoryService {
 public:
  DirectoryService(rpc::Orb& orb, const net::Host& host,
                   std::shared_ptr<DirectoryServer> server,
                   std::string service_name = "ldap");

  DirectoryServer& server() { return *server_; }
  const net::Host& host() const { return host_; }
  const std::string& service_name() const { return service_name_; }

  /// The wire-operation dispatcher; public so wrappers (the replicated
  /// directory) can delegate to it.
  void dispatch(const std::string& method, rpc::Payload request,
                rpc::Reply reply);

 private:
  rpc::Orb& orb_;
  const net::Host& host_;
  std::shared_ptr<DirectoryServer> server_;
  std::string service_name_;
};

class DirectoryClient {
 public:
  DirectoryClient(rpc::Orb& orb, const net::Host& client_host,
                  const net::Host& server_host,
                  std::string service_name = "ldap");

  void add(const Entry& entry, bool ensure,
           std::function<void(common::Status)> done);

  void replace(const Entry& entry, std::function<void(common::Status)> done);

  void modify(const Dn& dn, const std::vector<ModOp>& ops,
              std::function<void(common::Status)> done);

  void remove(const Dn& dn, bool recursive,
              std::function<void(common::Status)> done);

  void lookup(const Dn& dn,
              std::function<void(common::Result<Entry>)> done);

  /// Entries matching `filter_text`, each carrying its DN and only the
  /// attributes named in `attrs` (case-insensitive; empty means all, as in
  /// an LDAP search request).
  void search(const Dn& base, Scope scope, const std::string& filter_text,
              const std::vector<std::string>& attrs,
              std::function<void(common::Result<std::vector<Entry>>)> done);

  const net::Host& server_host() const { return server_; }

 private:
  rpc::Orb& orb_;
  const net::Host& client_;
  const net::Host& server_;
  std::string service_name_;
};

}  // namespace esg::directory
