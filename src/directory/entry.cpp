#include "directory/entry.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>

namespace esg::directory {

void Entry::remove_value(const std::string& attr, const std::string& value) {
  auto it = attrs_.find(common::to_lower(attr));
  if (it == attrs_.end()) return;
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), value), v.end());
  if (v.empty()) attrs_.erase(it);
}

std::int64_t Entry::get_int(const std::string& attr,
                            std::int64_t fallback) const {
  const std::string v = get(attr);
  if (v.empty()) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  return (end && *end == '\0') ? parsed : fallback;
}

const std::vector<std::string>& Entry::values(const std::string& attr) const {
  static const std::vector<std::string> kEmpty;
  auto it = attrs_.find(common::to_lower(attr));
  return it == attrs_.end() ? kEmpty : it->second;
}

std::vector<std::string> Entry::take_values(const std::string& attr) {
  auto node = attrs_.extract(common::to_lower(attr));
  return node ? std::move(node.mapped()) : std::vector<std::string>{};
}

void Entry::serialize(common::ByteWriter& w,
                      const std::vector<std::string>& attrs) const {
  const auto selected = [&attrs](const auto& attr_vals) {
    return attrs.empty() ||
           std::any_of(attrs.begin(), attrs.end(),
                       [&attr_vals](const std::string& name) {
                         return common::iequals(name, attr_vals.first);
                       });
  };
  w.str(dn_.to_string());
  w.u32(static_cast<std::uint32_t>(
      std::count_if(attrs_.begin(), attrs_.end(), selected)));
  for (const auto& attr_vals : attrs_) {
    if (!selected(attr_vals)) continue;
    w.str(attr_vals.first);
    w.str_vec(attr_vals.second);
  }
}

common::Result<Entry> Entry::deserialize(common::ByteReader& r) {
  auto dn_text = r.str();
  if (!dn_text) return dn_text.error();
  auto dn = Dn::parse(*dn_text);
  if (!dn) return dn.error();
  Entry e(std::move(*dn));
  auto count = r.u32();
  if (!count) return count.error();
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto attr = r.str();
    if (!attr) return attr.error();
    auto vals = r.str_vec();
    if (!vals) return vals.error();
    if (vals->empty()) continue;
    // Blocks whose names differ only in case merge, in wire order.
    auto& slot = e.attrs_[common::to_lower(*attr)];
    if (slot.empty()) {
      slot = std::move(*vals);
    } else {
      slot.insert(slot.end(), std::make_move_iterator(vals->begin()),
                  std::make_move_iterator(vals->end()));
    }
  }
  return e;
}

}  // namespace esg::directory
