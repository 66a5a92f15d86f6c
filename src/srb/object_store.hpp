// Physical object store behind the broker: sparse in-memory byte objects
// with token-bucket shaped "disk" service rates. Reads are served faster
// than writes (cache vs. commit), which is what skews the paper's Fig. 8
// read gains above the write gains.
//
// At-rest integrity: every object carries one CRC32C per checksum_block
// bytes, recomputed on the blocks a pwrite/truncate touches (or derived
// from the writer's own CRCs of the bytes) and verified on the blocks a
// pread covers. A mismatch throws IntegrityError (the server
// maps it to kChecksumMismatch, keeping the session); scrub() walks every
// block, quarantines objects that fail, and heals quarantined objects that
// verify clean again (after being rewritten). Reads of a quarantined
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

  /// pwrite semantics: writes all of `data` at `offset`, zero-extending any
  /// gap. Concurrent writers to disjoint ranges are safe. Returns the
  /// object's growth in bytes (0 for a pure overwrite), computed under the
  /// per-object mutex, so per-tenant footprints can be settled exactly.
  /// `piece_crcs`, when it has pieces(offset, data.size()) entries, holds
  /// the CRC32C of `data` cut at the block grid, one per block the write
  /// touches: each such block adopts its piece's CRC and hashes only its
  /// bytes outside the write, so its sum is the CRC of the bytes the caller
  /// checksummed, and a bad copy into the store surfaces on the next read
  /// or scrub. Otherwise every touched block is rehashed.
  std::uint64_t pwrite(ObjectId id, ByteSpan data, std::uint64_t offset,
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

  // --- integrity ------------------------------------------------------------
  /// Bit-rot injection: flips one bit of the stored byte at `offset`
  /// WITHOUT updating the block CRC (the whole point). Returns false when
  /// the object is absent or the offset past EOF. Test/chaos hook; wired to
  /// simnet::FaultInjector::rot by the harness.
  bool corrupt(ObjectId id, std::uint64_t offset);

  /// Verifies every block of every object. Objects with a mismatch are
  /// quarantined; quarantined objects that verify clean again (their bad
  /// range was rewritten) are healed. No-op report when checksums are off.
  ScrubReport scrub();

  bool is_quarantined(ObjectId id) const;

 private:
  struct Object {
    /// Shared for pread/size/is_quarantined, so readers verify and copy in
    /// parallel; exclusive for everything that changes data, sums or the
    /// quarantine flag.
    mutable std::shared_mutex mu;
    Bytes data;
    /// CRC32C per checksum_block chunk of `data` (empty when disabled).
    std::vector<std::uint32_t> sums;
    bool quarantined = false;
  };

  std::shared_ptr<Object> find(ObjectId id) const;
  /// Recomputes the sums of the blocks covering [begin, end); caller holds
  /// the object mutex exclusively. Non-empty `piece_crcs` are the CRCs of
  /// the bytes just written at [at, end), one per block they touch; those
  /// blocks adopt them (see pwrite).
  void rehash_range(Object& obj, std::uint64_t begin, std::uint64_t end,
                    std::uint64_t at = 0,
                    std::span<const std::uint32_t> piece_crcs = {}) const;

  StoreConfig cfg_;
  mutable std::mutex mu_;
  std::map<ObjectId, std::shared_ptr<Object>> objects_;
  simnet::TokenBucket disk_read_;
  simnet::TokenBucket disk_write_;
};

}  // namespace remio::srb
