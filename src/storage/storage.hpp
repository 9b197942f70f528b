// Host storage namespaces and disk caches.
//
// Files in the emulator are (name, size, optional real content).  Transfer
// timing is governed entirely by the fluid network (the host's disk
// resource is part of every data path), so content bytes never traverse the
// emulated wire — they are attached to the destination file object when a
// transfer completes, which is how the climate examples end up reading real
// ncx bytes after a simulated GridFTP fetch.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"

namespace esg::storage {

using common::Bytes;

struct FileObject {
  std::string name;  // path within the host namespace
  Bytes size = 0;
  /// Real bytes, when the experiment cares about content (ncx datasets).
  std::shared_ptr<const std::vector<std::uint8_t>> content;
  /// Number of times this payload was corrupted in flight.  Synthetic files
  /// carry no bytes to flip, so the counter stands in for the damage and is
  /// folded into file_checksum() — a corrupted copy never matches.
  std::uint32_t corruption = 0;

  static FileObject synthetic(std::string name, Bytes size) {
    return FileObject{std::move(name), size, nullptr};
  }
  static FileObject with_content(
      std::string name, std::shared_ptr<const std::vector<std::uint8_t>> data) {
    const Bytes size = static_cast<Bytes>(data->size());
    return FileObject{std::move(name), size, std::move(data)};
  }
};

/// Content fingerprint used for end-to-end transfer integrity.  Covers the
/// payload only — never the name — so a file renamed on landing still
/// verifies.  Files with real bytes hash the bytes; synthetic files hash
/// (size, corruption).
std::uint64_t file_checksum(const FileObject& file);

/// Flip one payload byte (copy-on-write for shared content) or, for
/// synthetic files, bump the corruption counter.  Either way the file's
/// checksum no longer matches the original.  `salt` picks which byte.
void corrupt_file(FileObject& file, std::uint64_t salt = 1);

/// Flat per-host file namespace with a capacity budget.
class HostStorage {
  using Files = std::map<std::string, FileObject, std::less<>>;

 public:
  /// A writer's hold on one named file, for a writer that touches it many
  /// times: a GET grows its landing file on every progress tick so the
  /// request manager's size-polling monitor sees real progress.  The handle
  /// is the file's map node, found by name on first use.  put() of the same
  /// name assigns into that node and never moves it, so until some remove()
  /// runs the handle reaches the file with no name lookup.  After a remove()
  /// it looks its name up again: a removed file reads as missing, and a file
  /// put again is followed.  While the file is missing, each use looks it up.
  ///
  /// The handle keeps a view of the name it was opened with and a pointer
  /// to its storage; whoever holds the handle keeps both alive.
  class Handle {
   public:
    Handle() = default;

    /// The file, or nullptr while it is missing.
    FileObject* file();
    /// Set the file's size, under put()'s capacity check.  A missing file
    /// stays missing: not_found, and nothing is written.
    common::Status resize(Bytes new_size);
    /// put() through the handle: assign in place, or create the file if it
    /// is missing.  `object.name` must be the handle's name.
    common::Status put(FileObject object);

   private:
    friend class HostStorage;
    /// node_ is the file, with no lookup needed.
    bool current() const;

    HostStorage* storage_ = nullptr;
    std::string_view name_;
    Files::iterator node_{};  // the file, or files_.end() while missing
    std::uint64_t removals_ = 0;  // storage's remove() count at node_'s lookup
  };

  explicit HostStorage(Bytes capacity = 1000 * common::kGB)
      : capacity_(capacity) {}
  // Handles hold the storage's address and its map nodes.
  HostStorage(const HostStorage&) = delete;
  HostStorage& operator=(const HostStorage&) = delete;

  common::Status put(FileObject file);
  common::Result<FileObject> get(const std::string& name) const;
  bool exists(const std::string& name) const { return files_.count(name) > 0; }
  common::Result<Bytes> size_of(const std::string& name) const;
  common::Status remove(const std::string& name);

  /// Handle to `name`, which need not exist yet (see Handle).
  Handle open(std::string_view name);

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  std::size_t file_count() const { return files_.size(); }
  std::vector<std::string> list() const;

 private:
  /// put() given `at`, the first node whose name is not less than
  /// file.name; on success `at` is the file's node.
  common::Status put_at(Files::iterator& at, FileObject&& file);

  Bytes capacity_;
  Bytes used_ = 0;
  std::uint64_t removals_ = 0;
  Files files_;
};

/// LRU disk cache with pinning — the staging area HRM manages in front of
/// the tape system, and the destination cache at client sites.
class DiskCache {
 public:
  explicit DiskCache(Bytes capacity) : capacity_(capacity) {}

  /// Insert a file, evicting unpinned LRU entries to make room.
  common::Status put(FileObject file);

  bool contains(const std::string& name) const { return files_.count(name) > 0; }

  /// Fetch and mark recently used.
  common::Result<FileObject> get(const std::string& name);

  /// Pin/unpin: pinned files cannot be evicted (a transfer is reading them).
  common::Status pin(const std::string& name);
  common::Status unpin(const std::string& name);
  int pin_count(const std::string& name) const;

  common::Status remove(const std::string& name);

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  std::size_t file_count() const { return files_.size(); }
  std::uint64_t evictions() const { return evictions_; }

  /// Invoked with each file as it is evicted — lets the HRM mirror cache
  /// state into the GridFTP-served namespace.
  void set_eviction_hook(std::function<void(const FileObject&)> hook) {
    eviction_hook_ = std::move(hook);
  }

 private:
  struct Slot {
    FileObject file;
    int pins = 0;
    std::list<std::string>::iterator lru_pos;
  };

  bool make_room(Bytes needed);

  Bytes capacity_;
  Bytes used_ = 0;
  std::uint64_t evictions_ = 0;
  std::map<std::string, Slot> files_;
  std::list<std::string> lru_;  // front = most recently used
  std::function<void(const FileObject&)> eviction_hook_;
};

}  // namespace esg::storage
