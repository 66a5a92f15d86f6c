// Physical object store behind the broker: sparse in-memory byte objects
// with token-bucket shaped "disk" service rates. Reads are served faster
// than writes (cache vs. commit), which is what skews the paper's Fig. 8
// read gains above the write gains.
//
// Layout: an object is a vector of checksum_block-sized blocks (the last
// may be short), each an immutable simnet::SharedSlice with its CRC32C
// beside it. A write replaces the blocks it touches. A block it covers
// whole is taken from the write's bytes: the SharedSlice pwrite adopts a
// view of the caller's buffer (the broker's verified request frame), so an
// aligned stripe is stored without a copy, and its sum is the writer's
// piece CRC. Only partially covered edge blocks are built by copy-merge.
// No block is ever changed in place: corrupt() flips a bit in a clone.
// Zero-extension gaps and truncate growth share one immutable zero block.
//
// Memory bound: an adopted block keeps its whole source buffer alive. When
// an object's blocks hold less than a quarter of such a buffer, they are
// copied out into buffers of their own, so the buffers an object keeps
// alive (held_bytes) stay within 4x its size. Replaced blocks are released
// after the object lock is dropped. pread_slices lends a reader views of
// the blocks instead of a copy; they stay valid after the blocks are
// replaced and keep the old buffers alive until the reader drops them.
//
// At-rest integrity: every block's sum is verified on the blocks a pread
// covers. A mismatch throws IntegrityError (the server maps it to
// kChecksumMismatch, keeping the session). A partial write or truncate
// checks a block's surviving bytes against its old sum before merging: on
// a mismatch the new sum keeps the mismatch, so rot is never laundered into
// a fresh sum; only a full-block rewrite heals the block. scrub() walks
// every block, quarantines objects that fail, and heals quarantined objects
// that verify clean again (after being rewritten). Reads of a quarantined
// object throw the quarantined flavour (wire status kQuarantined,
// non-retryable); writes stay allowed — they are the repair path.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "simnet/socket.hpp"
#include "simnet/token_bucket.hpp"
#include "srb/mcat.hpp"

namespace remio::srb {

struct StoreConfig {
  /// Bytes per simulated second; 0 = unshaped.
  double disk_read_rate = 0.0;
  double disk_write_rate = 0.0;
  /// Per-block CRC32C on stored payloads, verified on every read. Default
  /// ON — detection is always-on; only recovery policy is configurable.
  bool checksums = true;
  /// Checksum granularity. Smaller = finer mismatch localization, more
  /// sums; 64 KB keeps the per-object overhead at 1/16384 of the payload.
  std::size_t checksum_block = 64u * 1024;
};

/// A stored block no longer matches its CRC (or the object is quarantined).
class IntegrityError : public remio::StatusError {
 public:
  IntegrityError(ObjectId id, const std::string& what, bool quarantined)
      : StatusError({remio::ErrorDomain::kIntegrity, 0,
                     /*retryable=*/!quarantined, "pread"},
                    what),
        object_(id),
        quarantined_(quarantined) {}
  ObjectId object() const { return object_; }
  bool quarantined() const { return quarantined_; }

 private:
  ObjectId object_;
  bool quarantined_;
};

struct ScrubReport {
  std::uint64_t objects = 0;      // objects walked
  std::uint64_t blocks = 0;       // blocks verified
  std::uint64_t mismatched = 0;   // blocks whose CRC failed
  std::uint64_t quarantined = 0;  // objects newly quarantined this pass
  std::uint64_t healed = 0;       // previously-quarantined objects now clean
};

class ObjectStore {
 public:
  explicit ObjectStore(const StoreConfig& cfg = {});

  /// Ensures the object exists (created empty on first touch).
  void create(ObjectId id);
  /// Removes the object; returns the bytes it held (0 if absent) so the
  /// caller can settle tenant byte accounting exactly.
  std::uint64_t remove(ObjectId id);
  bool exists(ObjectId id) const;

  /// pread semantics: reads up to out.size() bytes at `offset`; returns the
  /// count actually read (short at EOF, 0 past EOF). Each block the read
  /// touches is hashed as its before-range, in-range and after-range
  /// pieces, checked against its sum, and its in-range bytes copied under
  /// the same lock hold; throws IntegrityError on a mismatch (`out` may
  /// then hold part of the range) or when the object is quarantined. With
  /// `crc`, stores the CRC32C of the bytes read, combined from the in-range
  /// pieces (with checksums off, hashed from the copy): it vouches for the
  /// stored bytes, so a consumer checking it also checks the copy.
  std::size_t pread(ObjectId id, MutByteSpan out, std::uint64_t offset,
                    std::uint32_t* crc = nullptr);
  /// The same read without the copy: appends to `out` up to `len` bytes as
  /// sub-slices of the verified blocks (append_slice merges adjacent ones).
  /// Blocks are immutable, so the slices stay a consistent snapshot of the
  /// range however the object changes after the call; holding them keeps
  /// the blocks' buffers alive.
  std::size_t pread_slices(ObjectId id, std::vector<simnet::SharedSlice>& out,
                           std::size_t len, std::uint64_t offset,
                           std::uint32_t* crc = nullptr);

  /// pwrite semantics: writes all of `data` at `offset`, zero-extending any
  /// gap. Concurrent writers to disjoint ranges are safe. Returns the
  /// object's growth in bytes (0 for a pure overwrite), computed under the
  /// per-object mutex, so per-tenant footprints can be settled exactly.
  /// `piece_crcs`, when it has pieces(offset, data.size()) entries, holds
  /// the CRC32C of `data` cut at the block grid, one per block the write
  /// touches: each such block adopts its piece's CRC, and an edge block
  /// hashes only its old bytes (to check its old sum and to sum the bytes
  /// it keeps), so its sum is the CRC of the bytes the caller checksummed,
  /// and a bad copy into the store surfaces on the next read or scrub.
  /// Otherwise every touched block is rehashed. This overload copies
  /// `data` once, into fresh blocks.
  std::uint64_t pwrite(ObjectId id, ByteSpan data, std::uint64_t offset,
                       std::span<const std::uint32_t> piece_crcs = {});
  /// The same write, but every block `data` covers whole becomes a view of
  /// data's buffer instead of a copy. The buffer must stay unchanged while
  /// the store holds it (SharedSlice buffers are const).
  std::uint64_t pwrite(ObjectId id, const simnet::SharedSlice& data,
                       std::uint64_t offset,
                       std::span<const std::uint32_t> piece_crcs = {});

  /// Bytes per block sum; 0 when checksums are off.
  std::uint64_t checksum_block() const {
    return cfg_.checksums ? cfg_.checksum_block : 0;
  }
  /// How many block-grid pieces [offset, offset + len) cuts into: one per
  /// block it touches, 0 for len 0 or with checksums off.
  std::size_t pieces(std::uint64_t offset, std::uint64_t len) const;

  /// Returns the signed size delta (new - old), exact under the object mutex.
  std::int64_t truncate(ObjectId id, std::uint64_t size);
  std::uint64_t size(ObjectId id) const;

  std::uint64_t total_bytes() const;
  /// Bytes the object's blocks keep alive: the capacity of every distinct
  /// buffer they view (adopted frames, own blocks, the shared zero block).
  std::uint64_t held_bytes(ObjectId id) const;

  // --- integrity ------------------------------------------------------------
  /// Bit-rot injection: flips one bit of the stored byte at `offset`
  /// WITHOUT updating the block CRC (the whole point); the flip lands in a
  /// copy of the block, never in a buffer it views. Returns false when
  /// the object is absent or the offset past EOF. Test/chaos hook; wired to
  /// simnet::FaultInjector::rot by the harness.
  bool corrupt(ObjectId id, std::uint64_t offset);

  /// Verifies every block of every object. Objects with a mismatch are
  /// quarantined; quarantined objects that verify clean again (their bad
  /// range was rewritten) are healed. No-op report when checksums are off.
  ScrubReport scrub();

  bool is_quarantined(ObjectId id) const;

 private:
  struct Object;  // blocks, sums and lock; defined in object_store.cpp

  std::shared_ptr<Object> find(ObjectId id) const;
  /// The body of both pwrites: writes `data` at `offset`, adopting whole
  /// blocks from `src` when it is given (`data` is then its view).
  std::uint64_t write(ObjectId id, ByteSpan data, const simnet::SharedSlice* src,
                      std::uint64_t offset,
                      std::span<const std::uint32_t> piece_crcs);
  /// Replaces the blocks [offset, end) touches, growing the object to `end`
  /// if it is shorter (empty `data` past EOF only zero-extends); caller
  /// holds the object mutex exclusively.
  void write_blocks(Object& obj, ByteSpan data, const simnet::SharedSlice* src,
                    std::uint64_t offset,
                    std::span<const std::uint32_t> piece_crcs) const;
  /// Verifies the blocks [offset, offset + len) touches and hands each
  /// one's in-range bytes [s, e) to `put(block bytes, s, e)`, under the
  /// shared lock; returns the count. `put` returns a view of the bytes it
  /// delivered, which is hashed for `crc` when checksums are off.
  template <class Put>
  std::size_t read(ObjectId id, std::uint64_t offset, std::size_t len,
                   std::uint32_t* crc, Put put);
  /// CRC32C of `n` zero bytes (n <= checksum_block).
  std::uint32_t zero_crc(std::uint64_t n) const;

  StoreConfig cfg_;
  /// checksum_block zero bytes, shared by every zero block, and their CRC.
  std::shared_ptr<const Bytes> zeros_;
  std::uint32_t zero_sum_ = 0;
  mutable std::mutex mu_;
  std::map<ObjectId, std::shared_ptr<Object>> objects_;
  simnet::TokenBucket disk_read_;
  simnet::TokenBucket disk_write_;
};

}  // namespace remio::srb
