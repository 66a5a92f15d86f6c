// MCAT — the SRB Metadata Catalog (§3.1): maps the logical namespace of
// collections and data objects to object ids and attribute sets. One mutex
// guards ordered containers, so every operation is linearizable. It is off
// the data path: the broker consults it on connect, open, stat, unlink,
// mkcoll, list and attribute verbs, never on a read or write. Object ids
// come from one counter, and only a successful register takes one.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace remio::srb {

using ObjectId = std::uint64_t;
constexpr ObjectId kInvalidObject = 0;

struct ObjectMeta {
  ObjectId id = kInvalidObject;
  std::string resource;  // physical resource label ("orion-disk")
  std::map<std::string, std::string> attrs;
};

class Mcat {
 public:
  Mcat() { collections_.insert("/"); }

  /// Creates a collection and its missing parents; fails if an object holds
  /// the name. "/" always exists.
  bool make_collection(const std::string& path);
  bool collection_exists(const std::string& path) const {
    std::lock_guard lk(mu_);
    return collections_.count(normalize(path)) != 0;
  }

  /// Registers a new data object at `path`; fails if taken or if the parent
  /// collection does not exist. Returns the new object id.
  std::optional<ObjectId> register_object(const std::string& path,
                                          const std::string& resource);

  std::optional<ObjectId> resolve(const std::string& path) const {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(normalize(path));
    return it != objects_.end() ? std::optional(it->second.id) : std::nullopt;
  }
  std::optional<ObjectMeta> meta(const std::string& path) const {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(normalize(path));
    return it != objects_.end() ? std::optional(it->second) : std::nullopt;
  }

  /// Removes the object entry; returns its id for store reclamation.
  std::optional<ObjectId> unregister_object(const std::string& path) {
    std::lock_guard lk(mu_);
    const auto node = objects_.extract(normalize(path));
    return node ? std::optional(node.mapped().id) : std::nullopt;
  }

  bool set_attr(const std::string& path, const std::string& key,
                const std::string& value) {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(normalize(path));
    if (it != objects_.end()) it->second.attrs[key] = value;
    return it != objects_.end();
  }
  std::optional<std::string> get_attr(const std::string& path,
                                      const std::string& key) const {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(normalize(path));
    if (it == objects_.end()) return std::nullopt;
    const auto attr = it->second.attrs.find(key);
    if (attr == it->second.attrs.end()) return std::nullopt;
    return attr->second;
  }

  /// Immediate children of a collection: its objects, then its
  /// sub-collections, each in path order.
  std::vector<std::string> list(const std::string& collection) const;

  std::size_t object_count() const {
    std::lock_guard lk(mu_);
    return objects_.size();
  }

  /// Path normalization: collapses duplicate '/', strips trailing '/'.
  static std::string normalize(const std::string& path);
  static std::string parent_of(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<std::string, ObjectMeta> objects_;
  std::set<std::string> collections_;
  ObjectId next_id_ = 1;
};

}  // namespace remio::srb
