// In-memory LDAP-like directory tree with base/one/sub search.
//
// The storage core is independent of the network; directory/service.hpp
// binds a DirectoryServer to a host and serves it over RPC, which is how
// the replica catalog, the metadata catalog, and MDS are deployed in the
// emulated testbed.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "directory/entry.hpp"
#include "directory/filter.hpp"

namespace esg::directory {

enum class Scope { base, one, sub };

class DirectoryServer {
 public:
  DirectoryServer() = default;
  // The class index holds iterators into the tree, which a copy would
  // leave pointing into the original.  (This also suppresses moves.)
  DirectoryServer(const DirectoryServer&) = delete;
  DirectoryServer& operator=(const DirectoryServer&) = delete;

  /// Add an entry.  The parent must already exist (except depth-1 roots).
  common::Status add(Entry entry);

  /// Add an entry, creating missing ancestors as organizational units.
  common::Status ensure(Entry entry);

  /// Replace the attributes of an existing entry (DN unchanged).
  common::Status replace(const Entry& entry);

  /// Apply a mutation to an existing entry in place.
  common::Status modify(const Dn& dn,
                        const std::function<void(Entry&)>& mutation);

  /// Remove an entry; `recursive` removes the whole subtree, otherwise
  /// removing a non-leaf fails.
  common::Status remove(const Dn& dn, bool recursive = false);

  bool exists(const Dn& dn) const { return entries_.count(dn.normalized()) > 0; }

  common::Result<Entry> lookup(const Dn& dn) const;

  /// LDAP search: entries under `base` at `scope` matching `filter`,
  /// returned in normalized-DN order (deterministic).  A filter that
  /// requires one objectclass (Filter::required_class) visits only that
  /// class's entries; any other filter walks the whole tree.  The results
  /// point into the tree and stay valid until the next write.
  common::Result<std::vector<const Entry*>> search(const Dn& base, Scope scope,
                                                   const Filter& filter) const;

  std::size_t size() const { return entries_.size(); }

 private:
  // Keyed by normalized DN.  Most-specific-first DNs keep a subtree's
  // entries apart in key order, so scope alone cannot narrow a search.
  using Tree = std::map<std::string, Entry>;
  struct ByKey {
    bool operator()(Tree::const_iterator a, Tree::const_iterator b) const {
      return a->first < b->first;
    }
  };

  void index(Tree::const_iterator it);
  void unindex(Tree::const_iterator it, const std::vector<std::string>& classes);
  /// Move an entry in the index after a write changed its objectclass.
  void reindex(Tree::const_iterator it,
               const std::vector<std::string>& old_classes);
  void erase(Tree::iterator it);

  Tree entries_;
  // Equality index on objectclass (OpenLDAP's "index objectClass eq"):
  // each value's entries, in normalized-DN order.
  std::map<std::string, std::set<Tree::const_iterator, ByKey>> by_class_;
};

const char* scope_name(Scope scope);
common::Result<Scope> scope_from_name(const std::string& name);

}  // namespace esg::directory
