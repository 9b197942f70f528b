#include "storage/storage.hpp"

#include <algorithm>
#include <cassert>

#include "common/bytebuf.hpp"

namespace esg::storage {

using common::Errc;
using common::Error;
using common::Result;
using common::Status;

std::uint64_t file_checksum(const FileObject& file) {
  if (file.content && !file.content->empty()) {
    return common::fnv1a64(file.content->data(), file.content->size());
  }
  std::uint64_t h = common::fnv1a64(&file.size, sizeof(file.size));
  return common::fnv1a64(&file.corruption, sizeof(file.corruption), h);
}

void corrupt_file(FileObject& file, std::uint64_t salt) {
  if (file.content && !file.content->empty()) {
    auto damaged =
        std::make_shared<std::vector<std::uint8_t>>(*file.content);
    const std::size_t at = static_cast<std::size_t>(
        common::fnv1a64(&salt, sizeof(salt)) % damaged->size());
    (*damaged)[at] ^= 0xFF;
    file.content = std::move(damaged);
  }
  ++file.corruption;
}

Status HostStorage::put(FileObject file) {
  auto at = files_.lower_bound(file.name);
  return put_at(at, std::move(file));
}

Status HostStorage::put_at(Files::iterator& at, FileObject&& file) {
  const bool found = at != files_.end() && at->first == file.name;
  const Bytes delta = file.size - (found ? at->second.size : 0);
  if (used_ + delta > capacity_) {
    return Error{Errc::out_of_space,
                 "storage full writing " + file.name};
  }
  used_ += delta;
  if (found) {
    at->second = std::move(file);
  } else {
    std::string name = file.name;
    at = files_.emplace_hint(at, std::move(name), std::move(file));
  }
  return common::ok_status();
}

Result<FileObject> HostStorage::get(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Error{Errc::not_found, "no file: " + name};
  }
  return it->second;
}

Result<Bytes> HostStorage::size_of(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Error{Errc::not_found, "no file: " + name};
  }
  return it->second.size;
}

Status HostStorage::remove(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Error{Errc::not_found, "no file: " + name};
  }
  used_ -= it->second.size;
  files_.erase(it);
  ++removals_;
  return common::ok_status();
}

HostStorage::Handle HostStorage::open(std::string_view name) {
  Handle handle;
  handle.storage_ = this;
  handle.name_ = name;
  handle.node_ = files_.end();  // looked up on first use
  handle.removals_ = removals_;
  return handle;
}

bool HostStorage::Handle::current() const {
  assert(storage_ != nullptr);
  // Only remove() erases a node, so while the removal count is unchanged
  // node_ is still the file.  A missing file (end()) is looked up again on
  // every use, so a put() by name is seen.
  return removals_ == storage_->removals_ && node_ != storage_->files_.end();
}

FileObject* HostStorage::Handle::file() {
  if (!current()) {
    node_ = storage_->files_.find(name_);
    removals_ = storage_->removals_;
  }
  return node_ == storage_->files_.end() ? nullptr : &node_->second;
}

Status HostStorage::Handle::resize(Bytes new_size) {
  FileObject* landed = file();
  if (landed == nullptr) {
    return Error{Errc::not_found, "no file: " + std::string(name_)};
  }
  const Bytes delta = new_size - landed->size;
  if (storage_->used_ + delta > storage_->capacity_) {
    return Error{Errc::out_of_space, "storage full resizing " + landed->name};
  }
  storage_->used_ += delta;
  landed->size = new_size;
  return common::ok_status();
}

Status HostStorage::Handle::put(FileObject object) {
  assert(object.name == name_);
  auto at = current() ? node_ : storage_->files_.lower_bound(name_);
  Status st = storage_->put_at(at, std::move(object));
  if (st.ok()) {
    node_ = at;
    removals_ = storage_->removals_;
  }
  return st;
}

std::vector<std::string> HostStorage::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, f] : files_) out.push_back(name);
  return out;
}

// ---------------- DiskCache ----------------

bool DiskCache::make_room(Bytes needed) {
  if (needed > capacity_) return false;
  while (used_ + needed > capacity_) {
    // Evict the least recently used unpinned entry.
    auto victim = files_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto f = files_.find(*it);
      if (f != files_.end() && f->second.pins == 0) {
        victim = f;
        break;
      }
    }
    if (victim == files_.end()) return false;  // everything pinned
    used_ -= victim->second.file.size;
    lru_.erase(victim->second.lru_pos);
    storage::FileObject evicted = std::move(victim->second.file);
    files_.erase(victim);
    ++evictions_;
    if (eviction_hook_) eviction_hook_(evicted);
  }
  return true;
}

Status DiskCache::put(FileObject file) {
  auto it = files_.find(file.name);
  if (it != files_.end()) {
    // Refresh in place.  Shield the entry being updated from eviction
    // while making room, or make_room could invalidate `it`.
    const Bytes delta = file.size - it->second.file.size;
    if (delta > 0) {
      ++it->second.pins;
      const bool fits = make_room(delta);
      --it->second.pins;
      if (!fits) {
        return Error{Errc::out_of_space, "cache full updating " + file.name};
      }
    }
    used_ += delta;
    it->second.file = std::move(file);
    lru_.erase(it->second.lru_pos);
    lru_.push_front(it->first);
    it->second.lru_pos = lru_.begin();
    return common::ok_status();
  }
  if (!make_room(file.size)) {
    return Error{Errc::out_of_space, "cache full inserting " + file.name};
  }
  used_ += file.size;
  lru_.push_front(file.name);
  Slot slot{std::move(file), 0, lru_.begin()};
  files_.emplace(lru_.front(), std::move(slot));
  return common::ok_status();
}

Result<FileObject> DiskCache::get(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Error{Errc::not_found, "not cached: " + name};
  }
  lru_.erase(it->second.lru_pos);
  lru_.push_front(name);
  it->second.lru_pos = lru_.begin();
  return it->second.file;
}

Status DiskCache::pin(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Error{Errc::not_found, "not cached: " + name};
  }
  ++it->second.pins;
  return common::ok_status();
}

Status DiskCache::unpin(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Error{Errc::not_found, "not cached: " + name};
  }
  it->second.pins = std::max(0, it->second.pins - 1);
  return common::ok_status();
}

int DiskCache::pin_count(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.pins;
}

Status DiskCache::remove(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Error{Errc::not_found, "not cached: " + name};
  }
  if (it->second.pins > 0) {
    return Error{Errc::permission_denied, "file pinned: " + name};
  }
  used_ -= it->second.file.size;
  lru_.erase(it->second.lru_pos);
  files_.erase(it);
  return common::ok_status();
}

}  // namespace esg::storage
