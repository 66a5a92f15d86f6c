#include "srb/mcat.hpp"

namespace remio::srb {

std::string Mcat::normalize(const std::string& path) {
  std::string out = "/";
  for (char c : path) {
    if (c == '/' && out.back() == '/') continue;
    out.push_back(c);
  }
  if (out.size() > 1 && out.back() == '/') out.pop_back();
  return out;
}

std::string Mcat::parent_of(const std::string& path) {
  const std::string p = normalize(path);
  const auto slash = p.find_last_of('/');
  return slash == 0 ? "/" : p.substr(0, slash);
}

bool Mcat::make_collection(const std::string& path) {
  const std::string p = normalize(path);
  std::lock_guard lk(mu_);
  if (objects_.count(p) != 0) return false;  // an object shadows the name
  // Every '/'-bounded prefix; an object mid-path keeps its name.
  for (auto end = p.find('/', 1);; end = p.find('/', end + 1)) {
    std::string prefix = p.substr(0, end);
    if (objects_.count(prefix) == 0) collections_.insert(std::move(prefix));
    if (end == std::string::npos) return true;
  }
}

std::optional<ObjectId> Mcat::register_object(const std::string& path,
                                              const std::string& resource) {
  const std::string p = normalize(path);
  std::lock_guard lk(mu_);
  if (collections_.count(parent_of(p)) == 0 || objects_.count(p) != 0 ||
      collections_.count(p) != 0)
    return std::nullopt;
  objects_[p] = ObjectMeta{next_id_, resource, {}};
  return next_id_++;
}

std::vector<std::string> Mcat::list(const std::string& collection) const {
  const std::string base = normalize(collection);
  const std::string prefix = base == "/" ? "/" : base + "/";
  auto is_child = [&](const std::string& p) {
    return p.size() > prefix.size() &&
           p.compare(0, prefix.size(), prefix) == 0 &&
           p.find('/', prefix.size()) == std::string::npos;
  };
  std::vector<std::string> out;
  std::lock_guard lk(mu_);
  for (const auto& [p, meta] : objects_)
    if (is_child(p)) out.push_back(p);
  for (const auto& c : collections_)
    if (is_child(c)) out.push_back(c);
  return out;
}

}  // namespace remio::srb
