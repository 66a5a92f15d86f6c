#include "srb/object_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/checksum.hpp"

namespace remio::srb {
namespace {

/// One immutable block of an object: its bytes and their CRC32C (0 with
/// checksums off).
struct Block {
  simnet::SharedSlice bytes;
  std::uint32_t sum = 0;
};

/// `bytes` copied into a buffer of their own.
simnet::SharedSlice own(ByteSpan bytes) {
  return {std::make_shared<const Bytes>(bytes.begin(), bytes.end()), 0,
          bytes.size()};
}

/// CRC32C of A‖B‖C from the CRCs of A, B (len_b bytes) and C (len_c).
std::uint32_t crc_join(std::uint32_t a, std::uint32_t b, std::uint64_t len_b,
                       std::uint32_t c, std::uint64_t len_c) {
  return crc32c_combine(crc32c_combine(a, b, len_b), c, len_c);
}

}  // namespace

struct ObjectStore::Object {
  /// Shared for pread/size/held_bytes/is_quarantined, so readers verify and
  /// copy in parallel; exclusive for everything that changes blocks, sums
  /// or the quarantine flag.
  mutable std::shared_mutex mu;
  std::uint64_t size = 0;
  std::vector<Block> blocks;
  /// The quarter rule's ledger: for each buffer the blocks view only part
  /// of (an adopted frame, a cut tail), how many of its bytes they view.
  std::unordered_map<const Bytes*, std::uint64_t> pinned;
  /// Buffers whose count changed since the last settle().
  std::vector<const Bytes*> touched;
  /// Block bytes replaced since the last settle(), released after unlock.
  std::vector<simnet::SharedSlice> dropped;
  bool quarantined = false;

  /// Adds (or with `add` false, removes) `s` to the ledger if it views only
  /// part of its buffer.
  void count(const simnet::SharedSlice& s, bool add) {
    if (s.size() == s.buf->capacity()) return;
    const Bytes* buf = s.buf.get();
    std::uint64_t& n = pinned[buf];
    n = add ? n + s.size() : n - s.size();
    if (n == 0) pinned.erase(buf);
    touched.push_back(buf);
  }

  /// Sets block b, which must exist (it may still be empty).
  void put(std::size_t b, Block nb) {
    Block& cur = blocks[b];
    if (cur.bytes.buf) {
      count(cur.bytes, false);
      dropped.push_back(std::move(cur.bytes));
    }
    count(nb.bytes, true);
    cur = std::move(nb);
  }

  /// Drops blocks [n, end).
  void drop_from(std::size_t n) {
    for (std::size_t b = n; b < blocks.size(); ++b) {
      count(blocks[b].bytes, false);
      dropped.push_back(std::move(blocks[b].bytes));
    }
    blocks.resize(n);
  }

  /// Applies the quarter rule to the buffers an edit touched: blocks that
  /// view a buffer of which the object holds less than a quarter are copied
  /// out into buffers of their own. Returns what the edit dropped, for the
  /// caller to release once it has unlocked.
  std::vector<simnet::SharedSlice> settle() {
    for (const Bytes* buf : touched) {
      const auto it = pinned.find(buf);
      if (it == pinned.end() || it->second * 4 >= buf->capacity()) continue;
      pinned.erase(it);
      for (Block& blk : blocks)
        if (blk.bytes.buf.get() == buf)
          dropped.push_back(std::exchange(blk.bytes, own(blk.bytes.view())));
    }
    touched.clear();
    return std::exchange(dropped, {});
  }
};

ObjectStore::ObjectStore(const StoreConfig& cfg)
    : cfg_(cfg),
      disk_read_(cfg.disk_read_rate, 0.0, "disk-read"),
      disk_write_(cfg.disk_write_rate, 0.0, "disk-write") {
  if (cfg_.checksum_block == 0) cfg_.checksum_block = 64u * 1024;
  zeros_ = std::make_shared<const Bytes>(cfg_.checksum_block, '\0');
  zero_sum_ = crc32c(*zeros_);
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
  return victim->size;
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

std::size_t ObjectStore::pieces(std::uint64_t offset, std::uint64_t len) const {
  const std::uint64_t bs = checksum_block();
  if (bs == 0 || len == 0) return 0;
  return static_cast<std::size_t>((offset + len - 1) / bs - offset / bs + 1);
}

std::uint32_t ObjectStore::zero_crc(std::uint64_t n) const {
  return n == zeros_->size()
             ? zero_sum_
             : crc32c(ByteSpan(zeros_->data(), static_cast<std::size_t>(n)));
}

template <class Put>
std::size_t ObjectStore::read(ObjectId id, std::uint64_t offset,
                              std::size_t len, std::uint32_t* crc, Put put) {
  auto obj = find(id);
  std::size_t n = 0;
  std::uint32_t sum = 0;  // CRC32C of the bytes handed to put so far
  {
    std::shared_lock lk(obj->mu);
    if (obj->quarantined)
      throw IntegrityError(id, "object " + std::to_string(id) +
                                   " is quarantined pending repair",
                           /*quarantined=*/true);
    if (offset < obj->size) {
      n = static_cast<std::size_t>(std::min<std::uint64_t>(len, obj->size - offset));
      const std::uint64_t end = offset + n;
      const std::uint64_t bs = cfg_.checksum_block;
      // Block by block, so each block's in-range bytes are copied while its
      // verify has them in cache.
      for (std::uint64_t b = offset / bs; b * bs < end; ++b) {
        const Block& blk = obj->blocks[static_cast<std::size_t>(b)];
        const ByteSpan bytes = blk.bytes.view();
        const std::uint64_t lo = b * bs;
        const auto s = static_cast<std::size_t>(std::max(lo, offset) - lo);
        const auto e = static_cast<std::size_t>(std::min(lo + bytes.size(), end) - lo);
        const ByteSpan in = bytes.subspan(s, e - s);
        if (!cfg_.checksums) {
          const ByteSpan out = put(blk.bytes, s, e);
          if (crc != nullptr) sum = crc32c_combine(sum, crc32c(out), out.size());
          continue;
        }
        // Hashed as before-range, in-range and after-range pieces; the
        // in-range CRC is also the CRC of the bytes returned.
        const std::uint32_t mid = crc32c(in);
        if (crc_join(crc32c(bytes.first(s)), mid, in.size(),
                     crc32c(bytes.subspan(e)), bytes.size() - e) != blk.sum)
          throw IntegrityError(
              id,
              "at-rest checksum mismatch in object " + std::to_string(id) +
                  " block " + std::to_string(b),
              /*quarantined=*/false);
        put(blk.bytes, s, e);
        sum = crc32c_combine(sum, mid, in.size());
      }
    }
  }
  disk_read_.acquire(n);  // charge outside the object lock
  if (crc != nullptr) *crc = sum;
  return n;
}

std::size_t ObjectStore::pread(ObjectId id, MutByteSpan out,
                               std::uint64_t offset, std::uint32_t* crc) {
  char* at = out.data();
  return read(id, offset, out.size(), crc,
              [&](const simnet::SharedSlice& blk, std::size_t s, std::size_t e) {
                const ByteSpan copy(at, e - s);
                at = std::copy_n(blk.view().data() + s, e - s, at);
                return copy;
              });
}

std::size_t ObjectStore::pread_slices(ObjectId id,
                                      std::vector<simnet::SharedSlice>& out,
                                      std::size_t len, std::uint64_t offset,
                                      std::uint32_t* crc) {
  return read(id, offset, len, crc,
              [&](const simnet::SharedSlice& blk, std::size_t s, std::size_t e) {
                simnet::append_slice(out, {blk.buf, blk.begin + s, blk.begin + e});
                return blk.view().subspan(s, e - s);
              });
}

void ObjectStore::write_blocks(Object& obj, ByteSpan data,
                               const simnet::SharedSlice* src,
                               std::uint64_t offset,
                               std::span<const std::uint32_t> piece_crcs) const {
  const std::uint64_t bs = cfg_.checksum_block;
  const std::uint64_t end = offset + data.size();
  const std::uint64_t old_size = obj.size;
  // The zero-extension gap [old size, offset) gets new blocks too.
  const std::uint64_t from = std::min(offset, old_size);
  if (end <= from) return;
  obj.size = std::max(old_size, end);
  obj.blocks.resize(static_cast<std::size_t>((obj.size + bs - 1) / bs));
  for (std::uint64_t b = from / bs; b * bs < end; ++b) {
    // The new block is [lo, hi): old bytes up to old_hi, zeros up to the
    // write, the written bytes [ws, we), then old bytes again. Zeros can
    // only come before the write: past it, the block ends at the old size.
    const std::uint64_t lo = b * bs;
    const std::uint64_t hi = std::min(lo + bs, obj.size);
    const std::uint64_t ws = std::clamp(offset, lo, hi);
    const std::uint64_t we = std::clamp(end, lo, hi);
    const std::uint64_t old_hi = std::clamp(old_size, lo, hi);
    const std::uint32_t* piece =
        !piece_crcs.empty() && ws < we ? &piece_crcs[b - offset / bs] : nullptr;
    Block nb;
    if (ws == lo && we == hi) {
      // Covered whole: adopt the caller's bytes, or copy them once.
      const auto at = static_cast<std::size_t>(lo - offset);
      const auto n = static_cast<std::size_t>(hi - lo);
      nb.bytes = src != nullptr
                     ? simnet::SharedSlice{src->buf, src->begin + at, src->begin + at + n}
                     : own(data.subspan(at, n));
      if (cfg_.checksums) nb.sum = piece != nullptr ? *piece : crc32c(nb.bytes.view());
    } else if (old_hi == lo && ws == we) {
      // All gap: a view of the shared zero block.
      nb.bytes = {zeros_, 0, static_cast<std::size_t>(hi - lo)};
      if (cfg_.checksums) nb.sum = zero_crc(hi - lo);
    } else {
      // An edge block: copy-merge.
      const Block* old = lo < old_size ? &obj.blocks[static_cast<std::size_t>(b)] : nullptr;
      const ByteSpan ob = old != nullptr ? old->bytes.view() : ByteSpan();
      const auto head = static_cast<std::size_t>(std::min(ws, old_hi) - lo);
      const auto tail = static_cast<std::size_t>(std::min(we, old_hi) - lo);
      Bytes buf;
      buf.reserve(static_cast<std::size_t>(hi - lo));
      buf.insert(buf.end(), ob.begin(), ob.begin() + static_cast<std::ptrdiff_t>(head));
      buf.resize(static_cast<std::size_t>(ws - lo), '\0');
      const ByteSpan in =
          ws < we ? data.subspan(static_cast<std::size_t>(ws - offset),
                                 static_cast<std::size_t>(we - ws))
                  : ByteSpan();
      buf.insert(buf.end(), in.begin(), in.end());
      buf.insert(buf.end(), ob.begin() + static_cast<std::ptrdiff_t>(tail), ob.end());
      if (cfg_.checksums) {
        const std::uint32_t h = crc32c(ob.first(head));
        const std::uint32_t t = crc32c(ob.subspan(tail));
        const std::uint64_t gap = ws - lo - head;
        const std::uint32_t mid =
            piece != nullptr ? *piece : crc32c(ByteSpan(buf).subspan(ws - lo, we - ws));
        nb.sum = crc_join(crc32c_combine(h, zero_crc(gap), gap), mid, we - ws, t,
                          ob.size() - tail);
        if (old != nullptr) {
          // Check the surviving bytes before they join a fresh sum: the old
          // bytes the write replaces are hashed only for this. A mismatch
          // (rot) is XORed into the new sum, so the block stays detectably
          // bad until a full-block rewrite replaces it.
          const std::uint32_t was =
              crc_join(h, crc32c(ob.subspan(head, tail - head)), tail - head, t,
                       ob.size() - tail);
          nb.sum ^= was ^ old->sum;
        }
      }
      nb.bytes = {std::make_shared<const Bytes>(std::move(buf)), 0,
                  static_cast<std::size_t>(hi - lo)};
    }
    obj.put(static_cast<std::size_t>(b), std::move(nb));
  }
}

std::uint64_t ObjectStore::write(ObjectId id, ByteSpan data,
                                 const simnet::SharedSlice* src,
                                 std::uint64_t offset,
                                 std::span<const std::uint32_t> piece_crcs) {
  if (piece_crcs.size() != pieces(offset, data.size())) piece_crcs = {};
  auto obj = find(id);
  std::uint64_t growth = 0;
  std::vector<simnet::SharedSlice> dropped;
  {
    std::lock_guard lk(obj->mu);
    const std::uint64_t before = obj->size;
    write_blocks(*obj, data, src, offset, piece_crcs);
    growth = obj->size - before;
    dropped = obj->settle();
  }
  dropped.clear();  // old blocks are released outside the object lock
  disk_write_.acquire(data.size());
  return growth;
}

std::uint64_t ObjectStore::pwrite(ObjectId id, ByteSpan data,
                                  std::uint64_t offset,
                                  std::span<const std::uint32_t> piece_crcs) {
  return write(id, data, nullptr, offset, piece_crcs);
}

std::uint64_t ObjectStore::pwrite(ObjectId id, const simnet::SharedSlice& data,
                                  std::uint64_t offset,
                                  std::span<const std::uint32_t> piece_crcs) {
  return write(id, data.view(), &data, offset, piece_crcs);
}

std::int64_t ObjectStore::truncate(ObjectId id, std::uint64_t size) {
  auto obj = find(id);
  std::int64_t delta = 0;
  std::vector<simnet::SharedSlice> dropped;
  {
    std::lock_guard lk(obj->mu);
    const std::uint64_t old = obj->size;
    delta = static_cast<std::int64_t>(size) - static_cast<std::int64_t>(old);
    if (size > old) {
      write_blocks(*obj, {}, nullptr, size, {});  // zero-extends [old, size)
    } else if (size < old) {
      const std::uint64_t bs = cfg_.checksum_block;
      const auto keep = static_cast<std::size_t>((size + bs - 1) / bs);
      if (size % bs != 0) {
        // The new last block is a shorter view of the old one. Its sum is
        // the CRC of the bytes kept, with any mismatch of the old block
        // XORed in, as for a partial write.
        const Block& last = obj->blocks[keep - 1];
        const auto n = static_cast<std::size_t>(size - (keep - 1) * bs);
        Block nb{{last.bytes.buf, last.bytes.begin, last.bytes.begin + n}, 0};
        if (cfg_.checksums) {
          const ByteSpan v = last.bytes.view();
          const std::uint32_t kept = crc32c(v.first(n));
          nb.sum = kept ^ crc32c_combine(kept, crc32c(v.subspan(n)), v.size() - n) ^
                   last.sum;
        }
        obj->put(keep - 1, std::move(nb));
      }
      obj->drop_from(keep);
      obj->size = size;
    }
    dropped = obj->settle();
  }
  return delta;
}

std::uint64_t ObjectStore::size(ObjectId id) const {
  auto obj = find(id);
  std::shared_lock lk(obj->mu);
  return obj->size;
}

std::uint64_t ObjectStore::total_bytes() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, obj] : objects_) {
    std::shared_lock olk(obj->mu);
    total += obj->size;
  }
  return total;
}

std::uint64_t ObjectStore::held_bytes(ObjectId id) const {
  auto obj = find(id);
  std::shared_lock lk(obj->mu);
  std::unordered_set<const Bytes*> seen;
  std::uint64_t held = 0;
  for (const Block& blk : obj->blocks)
    if (seen.insert(blk.bytes.buf.get()).second) held += blk.bytes.buf->capacity();
  return held;
}

bool ObjectStore::corrupt(ObjectId id, std::uint64_t offset) {
  std::shared_ptr<Object> obj;
  try {
    obj = find(id);
  } catch (const std::out_of_range&) {
    return false;
  }
  std::vector<simnet::SharedSlice> dropped;
  std::lock_guard lk(obj->mu);
  if (offset >= obj->size) return false;
  // Copy-on-write: blocks are immutable and may view a sender's buffer.
  const auto b = static_cast<std::size_t>(offset / cfg_.checksum_block);
  Block rotten = obj->blocks[b];
  Bytes bytes(rotten.bytes.view().begin(), rotten.bytes.view().end());
  bytes[static_cast<std::size_t>(offset - b * cfg_.checksum_block)] ^= 0x01;
  rotten.bytes = {std::make_shared<const Bytes>(std::move(bytes)), 0,
                  rotten.bytes.size()};
  obj->put(b, std::move(rotten));
  dropped = obj->settle();
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
  for (const auto& obj : snapshot) {
    std::lock_guard lk(obj->mu);
    ++rep.objects;
    std::uint64_t bad = 0;
    for (const Block& blk : obj->blocks) {
      ++rep.blocks;
      if (crc32c(blk.bytes.view()) != blk.sum) ++bad;
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
