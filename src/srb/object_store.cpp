#include "srb/object_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/checksum.hpp"

namespace remio::srb {

ObjectStore::ObjectStore(const StoreConfig& cfg)
    : cfg_(cfg),
      disk_read_(cfg.disk_read_rate, 0.0, "disk-read"),
      disk_write_(cfg.disk_write_rate, 0.0, "disk-write") {
  if (cfg_.checksum_block == 0) cfg_.checksum_block = 64u * 1024;
}

void ObjectStore::create(ObjectId id) {
  std::lock_guard lk(mu_);
  if (objects_.count(id) == 0) objects_[id] = std::make_shared<Object>();
}

std::uint64_t ObjectStore::remove(ObjectId id) {
  std::shared_ptr<Object> victim;
  {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(id);
    if (it == objects_.end()) return 0;
    victim = std::move(it->second);
    objects_.erase(it);
  }
  std::lock_guard olk(victim->mu);
  return victim->data.size();
}

bool ObjectStore::exists(ObjectId id) const {
  std::lock_guard lk(mu_);
  return objects_.count(id) != 0;
}

std::shared_ptr<ObjectStore::Object> ObjectStore::find(ObjectId id) const {
  std::lock_guard lk(mu_);
  const auto it = objects_.find(id);
  if (it == objects_.end()) throw std::out_of_range("no such object");
  return it->second;
}

namespace {

ByteSpan slice(const Bytes& data, std::uint64_t lo, std::uint64_t hi) {
  return ByteSpan(data.data() + lo, static_cast<std::size_t>(hi - lo));
}

/// CRC32C of data[lo, hi) given `mid`, the CRC of its piece [s, e): only
/// the bytes around the piece are hashed.
std::uint32_t crc_around(const Bytes& data, std::uint64_t lo, std::uint64_t s,
                         std::uint64_t e, std::uint64_t hi, std::uint32_t mid) {
  const std::uint32_t head = crc32c(slice(data, lo, s));
  return crc32c_combine(crc32c_combine(head, mid, e - s),
                        crc32c(slice(data, e, hi)), hi - e);
}

}  // namespace

std::size_t ObjectStore::pieces(std::uint64_t offset, std::uint64_t len) const {
  const std::uint64_t bs = checksum_block();
  if (bs == 0 || len == 0) return 0;
  return static_cast<std::size_t>((offset + len - 1) / bs - offset / bs + 1);
}

void ObjectStore::rehash_range(Object& obj, std::uint64_t begin,
                               std::uint64_t end, std::uint64_t at,
                               std::span<const std::uint32_t> piece_crcs) const {
  if (!cfg_.checksums) return;
  const std::uint64_t bs = cfg_.checksum_block;
  const std::uint64_t size = obj.data.size();
  obj.sums.resize(static_cast<std::size_t>((size + bs - 1) / bs));
  if (size == 0 || begin >= end) return;
  const std::uint64_t first = begin / bs;
  const std::uint64_t last = (std::min(end, size) - 1) / bs;
  for (std::uint64_t b = first; b <= last && b * bs < size; ++b) {
    const std::uint64_t lo = b * bs;
    const std::uint64_t hi = std::min(lo + bs, size);
    obj.sums[static_cast<std::size_t>(b)] =
        !piece_crcs.empty() && hi > at
            ? crc_around(obj.data, lo, std::max(lo, at), std::min(hi, end), hi,
                         piece_crcs[static_cast<std::size_t>(b - at / bs)])
            : crc32c(slice(obj.data, lo, hi));
  }
}

std::size_t ObjectStore::pread(ObjectId id, MutByteSpan out,
                               std::uint64_t offset, std::uint32_t* crc) {
  auto obj = find(id);
  std::size_t n = 0;
  std::uint32_t sum = 0;  // CRC32C of out[0, n)
  {
    std::shared_lock lk(obj->mu);
    if (obj->quarantined)
      throw IntegrityError(id, "object " + std::to_string(id) +
                                   " is quarantined pending repair",
                           /*quarantined=*/true);
    const Bytes& data = obj->data;
    if (offset < data.size()) {
      n = std::min<std::size_t>(out.size(), data.size() - offset);
      const std::uint64_t end = offset + n;
      if (!cfg_.checksums) {
        std::copy_n(data.data() + offset, n, out.data());
        if (crc != nullptr) sum = crc32c(out.first(n));
      } else {
        // Block by block, so each block's in-range bytes are copied while
        // its verify has them in cache.
        const std::uint64_t bs = cfg_.checksum_block;
        for (std::uint64_t lo = offset / bs * bs; lo < end; lo += bs) {
          const std::uint64_t hi = std::min<std::uint64_t>(lo + bs, data.size());
          const std::uint64_t s = std::max(lo, offset);
          const std::uint64_t e = std::min(hi, end);
          const std::uint32_t mid = crc32c(slice(data, s, e));
          const auto b = static_cast<std::size_t>(lo / bs);
          const std::uint32_t want = b < obj->sums.size() ? obj->sums[b] : 0;
          if (crc_around(data, lo, s, e, hi, mid) != want)
            throw IntegrityError(
                id,
                "at-rest checksum mismatch in object " + std::to_string(id) +
                    " block " + std::to_string(b),
                /*quarantined=*/false);
          std::copy_n(data.data() + s, e - s, out.data() + (s - offset));
          if (crc != nullptr) sum = crc32c_combine(sum, mid, e - s);
        }
      }
    }
  }
  disk_read_.acquire(n);  // charge outside the object lock
  if (crc != nullptr) *crc = sum;
  return n;
}

std::uint64_t ObjectStore::pwrite(ObjectId id, ByteSpan data,
                                  std::uint64_t offset,
                                  std::span<const std::uint32_t> piece_crcs) {
  if (piece_crcs.size() != pieces(offset, data.size())) piece_crcs = {};
  auto obj = find(id);
  std::uint64_t growth = 0;
  {
    std::lock_guard lk(obj->mu);
    const std::uint64_t end = offset + data.size();
    // The zero-extension gap [old size, offset) gets fresh bytes too, so
    // its blocks need new sums along with the written range.
    const std::uint64_t touch_begin =
        std::min<std::uint64_t>(offset, obj->data.size());
    if (obj->data.size() < end) {
      growth = end - obj->data.size();
      obj->data.resize(end, '\0');
    }
    std::copy_n(data.data(), data.size(), obj->data.data() + offset);
    rehash_range(*obj, touch_begin, end, offset, piece_crcs);
  }
  disk_write_.acquire(data.size());
  return growth;
}

std::int64_t ObjectStore::truncate(ObjectId id, std::uint64_t size) {
  auto obj = find(id);
  std::lock_guard lk(obj->mu);
  const std::uint64_t old = obj->data.size();
  const std::int64_t delta =
      static_cast<std::int64_t>(size) - static_cast<std::int64_t>(old);
  obj->data.resize(size, '\0');
  // Shrink: the (new) last block changed shape. Grow: the zero tail is new.
  rehash_range(*obj, std::min(old, size) > 0 ? std::min(old, size) - 1 : 0,
               size);
  return delta;
}

std::uint64_t ObjectStore::size(ObjectId id) const {
  auto obj = find(id);
  std::shared_lock lk(obj->mu);
  return obj->data.size();
}

std::uint64_t ObjectStore::total_bytes() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, obj] : objects_) {
    std::shared_lock olk(obj->mu);
    total += obj->data.size();
  }
  return total;
}

bool ObjectStore::corrupt(ObjectId id, std::uint64_t offset) {
  std::shared_ptr<Object> obj;
  try {
    obj = find(id);
  } catch (const std::out_of_range&) {
    return false;
  }
  std::lock_guard lk(obj->mu);
  if (offset >= obj->data.size()) return false;
  obj->data[static_cast<std::size_t>(offset)] ^= 0x01;
  return true;
}

ScrubReport ObjectStore::scrub() {
  ScrubReport rep;
  if (!cfg_.checksums) return rep;
  // Snapshot the object set, then verify per object under its own mutex so
  // live sessions keep making progress on untouched objects.
  std::vector<std::shared_ptr<Object>> snapshot;
  {
    std::lock_guard lk(mu_);
    snapshot.reserve(objects_.size());
    for (const auto& [id, obj] : objects_) snapshot.push_back(obj);
  }
  const std::uint64_t bs = cfg_.checksum_block;
  for (const auto& obj : snapshot) {
    std::lock_guard lk(obj->mu);
    ++rep.objects;
    std::uint64_t bad = 0;
    const std::uint64_t size = obj->data.size();
    for (std::uint64_t lo = 0; lo < size; lo += bs, ++rep.blocks) {
      const auto b = static_cast<std::size_t>(lo / bs);
      const std::uint32_t want = b < obj->sums.size() ? obj->sums[b] : 0;
      if (crc32c(slice(obj->data, lo, std::min(lo + bs, size))) != want) ++bad;
    }
    rep.mismatched += bad;
    if (bad > 0) {
      if (!obj->quarantined) {
        obj->quarantined = true;
        ++rep.quarantined;
      }
    } else if (obj->quarantined) {
      obj->quarantined = false;
      ++rep.healed;
    }
  }
  return rep;
}

bool ObjectStore::is_quarantined(ObjectId id) const {
  auto obj = find(id);
  std::shared_lock lk(obj->mu);
  return obj->quarantined;
}

}  // namespace remio::srb
