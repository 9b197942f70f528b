// Directory entries: a DN plus multi-valued, case-insensitively named
// attributes — the unit both catalogs and MDS store and search.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/bytebuf.hpp"
#include "common/strings.hpp"
#include "directory/dn.hpp"

namespace esg::directory {

class Entry {
 public:
  Entry() = default;
  explicit Entry(Dn dn) : dn_(std::move(dn)) {}

  const Dn& dn() const { return dn_; }
  void set_dn(Dn dn) { dn_ = std::move(dn); }

  /// Append a value to an attribute (attributes are multi-valued).
  Entry& add(const std::string& attr, std::string value) {
    attrs_[common::to_lower(attr)].push_back(std::move(value));
    return *this;
  }

  Entry& add(const std::string& attr, std::int64_t value) {
    return add(attr, std::to_string(value));
  }

  /// Replace all values of an attribute.
  Entry& set(const std::string& attr, std::string value) {
    auto& v = attrs_[common::to_lower(attr)];
    v.clear();
    v.push_back(std::move(value));
    return *this;
  }

  void remove_attr(const std::string& attr) {
    attrs_.erase(common::to_lower(attr));
  }

  /// Remove one specific value; drops the attribute when it empties.
  void remove_value(const std::string& attr, const std::string& value);

  bool has(const std::string& attr) const {
    return attrs_.count(common::to_lower(attr)) > 0;
  }

  /// First value of an attribute, or "" when absent.
  std::string get(const std::string& attr) const {
    auto it = attrs_.find(common::to_lower(attr));
    return it == attrs_.end() || it->second.empty() ? "" : it->second.front();
  }

  /// First value parsed as integer, or `fallback`.
  std::int64_t get_int(const std::string& attr, std::int64_t fallback = 0) const;

  const std::vector<std::string>& values(const std::string& attr) const;

  /// Move an attribute's values out, dropping the attribute.
  std::vector<std::string> take_values(const std::string& attr);

  const std::map<std::string, std::vector<std::string>>& attributes() const {
    return attrs_;
  }

  /// Write the DN and the attributes named in `attrs`, matched
  /// case-insensitively, in stored order; an empty `attrs` writes every
  /// attribute, as an LDAP search that names none returns all (RFC 2251
  /// §4.5.1).  Names the entry lacks are skipped.
  void serialize(common::ByteWriter& w,
                 const std::vector<std::string>& attrs = {}) const;
  static common::Result<Entry> deserialize(common::ByteReader& r);

 private:
  Dn dn_;
  std::map<std::string, std::vector<std::string>> attrs_;
};

}  // namespace esg::directory
