// MCAT — the SRB Metadata Catalog (§3.1). Maps the logical namespace
// (collections and data objects) to physical object ids and holds the
// user-visible attribute sets.
//
// Concurrency: the catalog is the broker's hottest shared structure —
// every open/stat/unlink from every session resolves through it — so it
// is lock-striped following the Halo/HLSH directory→segment→bucket
// layout: a FIXED directory (the stripe count never changes, so a key's
// segment is a pure hash function and lookups never chase a moving
// directory) of segments, each guarded by its own reader/writer lock and
// holding a preallocated bucket array that rehashes privately when its
// load factor is exceeded. Point lookups take one shared lock; mutations
// take one exclusive lock; the only multi-stripe operations are
// make_collection / register_object (a child and its ancestors may hash
// to different segments) which acquire their exclusive locks in directory
// order, making cross-stripe deadlock impossible.
//
// Semantics are identical to the original single-mutex catalog
// (tests/mcat_flat.hpp keeps that implementation as the test oracle):
// object ids come from one global counter and are allocated only on a
// successful register, so single-threaded runs are bit-equal to the flat
// reference. list() locks one segment at a time — it is a consistent
// snapshot per stripe, not across the whole catalog, which is the same
// guarantee a directory scan gives on any production filesystem.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
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
  /// Directory width (stripe count); fixed for the catalog's lifetime.
  static constexpr std::size_t kDefaultSegments = 64;
  /// Buckets preallocated per segment; each segment doubles privately
  /// when its entry count exceeds kMaxLoad * buckets. Load factor 1 keeps
  /// the expected probe at a single string compare — resolve() is the
  /// broker's hottest path and buckets are cheap (a vector header each).
  static constexpr std::size_t kInitialBuckets = 64;
  static constexpr std::size_t kMaxLoad = 1;

  explicit Mcat(std::size_t segments = kDefaultSegments);

  Mcat(const Mcat&) = delete;
  Mcat& operator=(const Mcat&) = delete;

  /// Creates a collection (and intermediate parents). "/" always exists.
  bool make_collection(const std::string& path);
  bool collection_exists(const std::string& path) const;

  /// Registers a new data object at `path`; fails if taken or if the parent
  /// collection does not exist. Returns the new object id.
  std::optional<ObjectId> register_object(const std::string& path,
                                          const std::string& resource);

  std::optional<ObjectId> resolve(const std::string& path) const;
  std::optional<ObjectMeta> meta(const std::string& path) const;

  /// Removes the object entry; returns its id for store reclamation.
  std::optional<ObjectId> unregister_object(const std::string& path);

  bool set_attr(const std::string& path, const std::string& key,
                const std::string& value);
  std::optional<std::string> get_attr(const std::string& path,
                                      const std::string& key) const;

  /// Immediate children (objects and sub-collections) of a collection.
  std::vector<std::string> list(const std::string& collection) const;

  std::size_t object_count() const {
    return object_count_.load(std::memory_order_relaxed);
  }

  std::size_t segment_count() const { return dir_.size(); }

  /// Path normalization: collapses duplicate '/', strips trailing '/'.
  static std::string normalize(const std::string& path);
  static std::string parent_of(const std::string& path);

 private:
  struct Entry {
    std::string path;
    bool is_object = false;
    ObjectMeta meta;  // meaningful only when is_object
  };
  /// Longest path mirrored inline in its bucket (Halo-style key-in-bucket:
  /// a probe hit compares against bytes in the bucket's own cache lines and
  /// never chases the entry's heap string). Longer paths fall back to the
  /// full std::string compare.
  static constexpr std::size_t kInlineKey = 48;

  // First entry lives inline in the bucket array: a hit on a load-factor-1
  // table touches the bucket lines and nothing else.
  struct Bucket {
    bool used = false;
    std::uint8_t klen = 0;  // bytes of `one.path` mirrored in key; 0 = none
    char key[kInlineKey] = {};
    Entry one;
    std::vector<Entry> overflow;
  };
  struct Segment {
    mutable std::shared_mutex mu;
    std::vector<Bucket> buckets;  // power-of-two, preallocated
    std::size_t entries = 0;
  };

  static std::uint64_t hash_path(const std::string& p);
  std::size_t segment_of(std::uint64_t h) const {
    return static_cast<std::size_t>(h >> 32) & seg_mask_;
  }
  std::size_t segment_index(const std::string& normalized) const;

  /// Returns `path` itself when it is already in normalized form (the
  /// common case on the hot resolve path — clients send clean paths), else
  /// fills `scratch` and returns that. Avoids a heap allocation per lookup.
  static const std::string& normalized_ref(const std::string& path,
                                           std::string& scratch);

  /// Stamps the bucket's inline key mirror for its resident `one` entry.
  static void mirror_key(Bucket& b);
  /// Tests `one` against p via the inline mirror when present.
  static bool one_matches(const Bucket& b, const std::string& p);

  // All helpers below require the owning segment's lock to be held and
  // take the precomputed hash_path(p) so each op hashes the key once.
  static Entry* find_entry(Segment& s, const std::string& p, std::uint64_t h);
  static const Entry* find_entry(const Segment& s, const std::string& p,
                                 std::uint64_t h);
  static void insert_entry(Segment& s, Entry e, std::uint64_t h);
  static bool erase_entry(Segment& s, const std::string& p, std::uint64_t h);
  static void maybe_grow(Segment& s);

  /// Exclusively locks the segments owning `keys`, each at most once, in
  /// directory order (the global lock order — no cross-stripe deadlock).
  std::vector<std::unique_lock<std::shared_mutex>> lock_segments(
      const std::vector<const std::string*>& keys);

  std::vector<std::unique_ptr<Segment>> dir_;  // fixed directory
  std::size_t seg_mask_ = 0;
  std::size_t seg_shift_ = 0;
  std::atomic<ObjectId> next_id_{1};
  std::atomic<std::size_t> object_count_{0};
};

}  // namespace remio::srb
