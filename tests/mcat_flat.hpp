// FlatMcat — the original single-mutex MCAT kept as a test oracle: one
// std::mutex in front of ordered containers. The concurrent MCAT property
// tests replay against it (every public operation is trivially
// linearizable here), and the micro_substrate Mcat benches compare the
// sharded catalog to it. Test-only: the server never uses it.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "srb/mcat.hpp"

namespace remio::srb {

class FlatMcat {
 public:
  FlatMcat() { collections_.insert("/"); }

  bool make_collection(const std::string& path) {
    const std::string p = Mcat::normalize(path);
    std::lock_guard lk(mu_);
    if (objects_.count(p) != 0) return false;  // an object shadows the name
    std::string cur;
    std::size_t pos = 1;
    while (pos <= p.size()) {
      const auto next = p.find('/', pos);
      const std::size_t end = next == std::string::npos ? p.size() : next;
      cur = p.substr(0, end);
      if (!cur.empty() && objects_.count(cur) == 0) collections_.insert(cur);
      pos = end + 1;
    }
    return true;
  }

  bool collection_exists(const std::string& path) const {
    std::lock_guard lk(mu_);
    return collections_.count(Mcat::normalize(path)) != 0;
  }

  std::optional<ObjectId> register_object(const std::string& path,
                                          const std::string& resource) {
    const std::string p = Mcat::normalize(path);
    const std::string parent = Mcat::parent_of(p);
    std::lock_guard lk(mu_);
    if (collections_.count(parent) == 0) return std::nullopt;
    if (objects_.count(p) != 0 || collections_.count(p) != 0)
      return std::nullopt;
    ObjectMeta m;
    m.id = next_id_++;
    m.resource = resource;
    objects_[p] = std::move(m);
    return objects_[p].id;
  }

  std::optional<ObjectId> resolve(const std::string& path) const {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(Mcat::normalize(path));
    if (it == objects_.end()) return std::nullopt;
    return it->second.id;
  }

  std::optional<ObjectMeta> meta(const std::string& path) const {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(Mcat::normalize(path));
    if (it == objects_.end()) return std::nullopt;
    return it->second;
  }

  std::optional<ObjectId> unregister_object(const std::string& path) {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(Mcat::normalize(path));
    if (it == objects_.end()) return std::nullopt;
    const ObjectId id = it->second.id;
    objects_.erase(it);
    return id;
  }

  bool set_attr(const std::string& path, const std::string& key,
                const std::string& value) {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(Mcat::normalize(path));
    if (it == objects_.end()) return false;
    it->second.attrs[key] = value;
    return true;
  }

  std::optional<std::string> get_attr(const std::string& path,
                                      const std::string& key) const {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(Mcat::normalize(path));
    if (it == objects_.end()) return std::nullopt;
    const auto ait = it->second.attrs.find(key);
    if (ait == it->second.attrs.end()) return std::nullopt;
    return ait->second;
  }

  std::vector<std::string> list(const std::string& collection) const {
    const std::string base = Mcat::normalize(collection);
    const std::string prefix = base == "/" ? "/" : base + "/";
    std::vector<std::string> out;
    std::lock_guard lk(mu_);
    auto is_child = [&](const std::string& p) {
      if (p.size() <= prefix.size() ||
          p.compare(0, prefix.size(), prefix) != 0)
        return false;
      return p.find('/', prefix.size()) == std::string::npos;
    };
    for (const auto& [p, meta] : objects_)
      if (is_child(p)) out.push_back(p);
    for (const auto& c : collections_)
      if (is_child(c)) out.push_back(c);
    return out;
  }

  std::size_t object_count() const {
    std::lock_guard lk(mu_);
    return objects_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, ObjectMeta> objects_;
  std::set<std::string> collections_;
  ObjectId next_id_ = 1;
};

}  // namespace remio::srb
