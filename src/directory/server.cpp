#include "directory/server.hpp"

namespace esg::directory {

using common::Errc;
using common::Error;
using common::Result;
using common::Status;

namespace {

bool in_scope(const std::string& key, const Dn& dn, const Dn& base,
              Scope scope) {
  switch (scope) {
    case Scope::base:
      return key == base.normalized();
    case Scope::one:
      return dn.depth() == base.depth() + 1 && dn.is_within(base);
    case Scope::sub:
      return dn.is_within(base);
  }
  return false;
}

}  // namespace

void DirectoryServer::index(Tree::const_iterator it) {
  for (const auto& cls : it->second.values("objectclass")) {
    by_class_[cls].insert(it);
  }
}

void DirectoryServer::unindex(Tree::const_iterator it,
                              const std::vector<std::string>& classes) {
  for (const auto& cls : classes) {
    auto bucket = by_class_.find(cls);
    if (bucket == by_class_.end()) continue;
    bucket->second.erase(it);
    if (bucket->second.empty()) by_class_.erase(bucket);
  }
}

void DirectoryServer::reindex(Tree::const_iterator it,
                              const std::vector<std::string>& old_classes) {
  if (it->second.values("objectclass") == old_classes) return;
  unindex(it, old_classes);
  index(it);
}

void DirectoryServer::erase(Tree::iterator it) {
  unindex(it, it->second.values("objectclass"));
  entries_.erase(it);
}

Status DirectoryServer::add(Entry entry) {
  const std::string key = entry.dn().normalized();
  if (entries_.count(key)) {
    return Error{Errc::already_exists, "entry exists: " + entry.dn().to_string()};
  }
  if (entry.dn().depth() > 1) {
    const Dn parent = entry.dn().parent();
    if (!entries_.count(parent.normalized())) {
      return Error{Errc::not_found,
                   "parent missing for " + entry.dn().to_string()};
    }
  }
  index(entries_.emplace(key, std::move(entry)).first);
  return common::ok_status();
}

Status DirectoryServer::ensure(Entry entry) {
  std::vector<Dn> missing;
  for (Dn cursor = entry.dn().parent(); !cursor.empty();
       cursor = cursor.parent()) {
    if (entries_.count(cursor.normalized())) break;
    missing.push_back(cursor);
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    Entry scaffold(*it);
    scaffold.add("objectclass", "organizationalUnit");
    index(entries_.emplace(it->normalized(), std::move(scaffold)).first);
  }
  if (entries_.count(entry.dn().normalized())) {
    return replace(entry);
  }
  return add(std::move(entry));
}

Status DirectoryServer::replace(const Entry& entry) {
  auto it = entries_.find(entry.dn().normalized());
  if (it == entries_.end()) {
    return Error{Errc::not_found, "no entry: " + entry.dn().to_string()};
  }
  const std::vector<std::string> classes = it->second.values("objectclass");
  it->second = entry;
  reindex(it, classes);
  return common::ok_status();
}

Status DirectoryServer::modify(const Dn& dn,
                               const std::function<void(Entry&)>& mutation) {
  auto it = entries_.find(dn.normalized());
  if (it == entries_.end()) {
    return Error{Errc::not_found, "no entry: " + dn.to_string()};
  }
  const std::vector<std::string> classes = it->second.values("objectclass");
  mutation(it->second);
  reindex(it, classes);
  return common::ok_status();
}

Status DirectoryServer::remove(const Dn& dn, bool recursive) {
  auto it = entries_.find(dn.normalized());
  if (it == entries_.end()) {
    return Error{Errc::not_found, "no entry: " + dn.to_string()};
  }
  std::vector<Tree::iterator> doomed;
  for (auto child = entries_.begin(); child != entries_.end(); ++child) {
    if (child != it && child->second.dn().is_within(dn)) {
      if (!recursive) {
        return Error{Errc::invalid_argument,
                     "entry has children: " + dn.to_string()};
      }
      doomed.push_back(child);
    }
  }
  for (auto child : doomed) erase(child);
  erase(it);
  return common::ok_status();
}

Result<Entry> DirectoryServer::lookup(const Dn& dn) const {
  auto it = entries_.find(dn.normalized());
  if (it == entries_.end()) {
    return Error{Errc::not_found, "no entry: " + dn.to_string()};
  }
  return it->second;
}

Result<std::vector<const Entry*>> DirectoryServer::search(
    const Dn& base, Scope scope, const Filter& filter) const {
  if (!base.empty() && !entries_.count(base.normalized())) {
    return Error{Errc::not_found, "search base missing: " + base.to_string()};
  }
  std::vector<const Entry*> out;
  const auto visit = [&](const std::string& key, const Entry& entry) {
    if (in_scope(key, entry.dn(), base, scope) && filter.matches(entry)) {
      out.push_back(&entry);
    }
  };
  if (const std::string* cls = filter.required_class()) {
    auto bucket = by_class_.find(*cls);
    if (bucket == by_class_.end()) return out;
    for (auto it : bucket->second) visit(it->first, it->second);
  } else {
    for (const auto& [key, entry] : entries_) visit(key, entry);
  }
  return out;
}

const char* scope_name(Scope scope) {
  switch (scope) {
    case Scope::base: return "base";
    case Scope::one: return "one";
    case Scope::sub: return "sub";
  }
  return "?";
}

Result<Scope> scope_from_name(const std::string& name) {
  if (name == "base") return Scope::base;
  if (name == "one") return Scope::one;
  if (name == "sub") return Scope::sub;
  return Error{Errc::invalid_argument, "bad scope: " + name};
}

}  // namespace esg::directory
