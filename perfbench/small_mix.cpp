// small_mix: two ranks, one stream each, share one 64 MiB file of 4 KiB
// records. Keys follow the seeded zipfian stream of the repo's ycsb
// generator: 70 % reads of any key, 30 % updates, each rank updating only
// its own half of the keys. Per-op costs dominate: engine dispatch, RPC
// framing, thread hand-offs and a whole 64 KB block verify or rehash for
// each 4 KB op.
//
// Records are self-validating — key, writer rank, version and a CRC32C of
// the payload, which is itself derived from (seed, key, writer, version) —
// so any read is checked without knowing the latest version. A read must
// also see at least the version whose update had completed before it was
// issued, and at most the latest version issued.
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "testbed/workload/generator.hpp"
#include "testbed/workload/ycsb.hpp"
#include "unshaped.hpp"

namespace perfbench {
namespace {

using remio::Bytes;
using remio::ByteSpan;
using remio::MutByteSpan;
namespace wk = remio::testbed::workload;

constexpr std::size_t kRecord = 4096;
constexpr std::uint64_t kRecords = 16384;  // 64 MiB file
constexpr std::size_t kHeader = 24;        // key, writer, version, crc, magic
constexpr std::size_t kPayload = kRecord - kHeader;
constexpr std::uint32_t kMagic = 0x52454331;  // "REC1"
constexpr std::size_t kPreloadOp = 1u << 20;  // preload writes 256 records at a time
// Length of the generated key stream per rank; longer runs cycle through it.
constexpr long long kStreamOps = 65536;

struct Key {
  std::uint64_t key;
  bool update;
};

class SmallMix final : public UnshapedWorkload {
 public:
  explicit SmallMix(std::uint64_t seed)
      : seed_(seed), issued_(kRecords), completed_(kRecords) {
    shape_.ranks = 2;
    shape_.streams = 1;
    shape_.io_threads = 0;
    shape_.window = 4;
    shape_.op_bytes = kRecord;
    shape_.path = "/bench/small_mix.dat";
    shape_.phases = 1;
    base_ = remio::Rng(mix64(seed ^ 0x5a11)).bytes(kPayload);
    generate();
  }

  const Shape& shape() const override { return shape_; }

  OpSource preload(int rank) override {
    OpSource src = common(kPreloadOp);
    auto i = std::make_shared<std::uint64_t>(0);
    const std::uint64_t per_op = kPreloadOp / kRecord;
    src.next = [this, rank, i, per_op](LoopOp& op) {
      const std::uint64_t first = lo(rank) + *i * per_op;
      if (first >= lo(rank) + part()) return false;
      ++*i;
      op = LoopOp{true, first * kRecord, kPreloadOp, 0};
      return true;
    };
    return src;
  }

  OpSource phase(int, int rank) override {
    OpSource src = common(kRecord);
    auto i = std::make_shared<std::size_t>(0);
    const std::vector<Key>& keys = keys_[static_cast<std::size_t>(rank)];
    src.next = [this, i, &keys](LoopOp& op) {
      const Key& k = keys[(*i)++ % keys.size()];
      op = LoopOp{k.update, k.key * kRecord, kRecord, 0};
      // A read's floor: the version whose update completed before issue.
      if (!k.update) op.aux = completed_[k.key].load(std::memory_order_acquire);
      return true;
    };
    return src;
  }

 private:
  std::uint64_t part() const { return kRecords / static_cast<std::uint64_t>(shape_.ranks); }
  std::uint64_t lo(int rank) const { return part() * static_cast<std::uint64_t>(rank); }
  std::uint32_t owner(std::uint64_t key) const { return static_cast<std::uint32_t>(key / part()); }

  /// The ycsb generator's operate-phase stream (after its load phase and
  /// mark 0), with each update folded into the issuing rank's partition.
  void generate() {
    wk::WorkloadParams p;
    p.ranks = shape_.ranks;
    p.seed = seed_;
    p.kv = {{"records", std::to_string(kRecords)}, {"record-kb", "4"},
            {"ops", std::to_string(kStreamOps)},   {"read-pct", "70"},
            {"update-pct", "30"},                  {"scan-pct", "0"}};
    auto gen = wk::make_ycsb();
    gen->load(p);
    keys_.resize(static_cast<std::size_t>(shape_.ranks));
    for (int r = 0; r < shape_.ranks; ++r) {
      bool operate = false;
      for (wk::Op op = gen->get_next(r); op.kind != wk::OpKind::kEnd; op = gen->get_next(r)) {
        if (op.kind == wk::OpKind::kPhaseMark) operate = op.user == 0;
        if (!operate || (op.kind != wk::OpKind::kReadAt && op.kind != wk::OpKind::kWriteAt))
          continue;
        if (op.bytes != kRecord) throw std::logic_error("small_mix: ycsb emitted a scan");
        const std::uint64_t key = op.offset / kRecord;
        const bool update = op.kind == wk::OpKind::kWriteAt;
        keys_[static_cast<std::size_t>(r)].push_back({update ? lo(r) + key % part() : key, update});
      }
    }
  }

  std::size_t rotation(std::uint64_t key, std::uint32_t writer, std::uint32_t version) const {
    return mix64(seed_ ^ mix64(key) ^ (std::uint64_t{writer} << 32 | version)) % kPayload;
  }

  void write_record(char* out, std::uint64_t key, std::uint32_t writer, std::uint32_t version) const {
    const std::size_t rot = rotation(key, writer, version);
    char* payload = out + kHeader;
    std::memcpy(payload, base_.data() + rot, kPayload - rot);
    std::memcpy(payload + kPayload - rot, base_.data(), rot);
    const std::uint32_t crc = remio::crc32c(ByteSpan(payload, kPayload));
    std::memcpy(out, &key, 8);
    std::memcpy(out + 8, &writer, 4);
    std::memcpy(out + 12, &version, 4);
    std::memcpy(out + 16, &crc, 4);
    std::memcpy(out + 20, &kMagic, 4);
  }

  bool check_record(const char* in, std::uint64_t key, std::uint32_t floor) const {
    std::uint64_t k;
    std::uint32_t writer, version, crc, magic;
    std::memcpy(&k, in, 8);
    std::memcpy(&writer, in + 8, 4);
    std::memcpy(&version, in + 12, 4);
    std::memcpy(&crc, in + 16, 4);
    std::memcpy(&magic, in + 20, 4);
    if (k != key || magic != kMagic || writer != owner(key)) return false;
    if (version < floor || version > issued_[key].load(std::memory_order_acquire)) return false;
    const char* payload = in + kHeader;
    if (remio::crc32c(ByteSpan(payload, kPayload)) != crc) return false;
    const std::size_t rot = rotation(key, writer, version);
    return std::memcmp(payload, base_.data() + rot, kPayload - rot) == 0 &&
           std::memcmp(payload + kPayload - rot, base_.data(), rot) == 0;
  }

  OpSource common(std::size_t max_bytes) {
    OpSource src;
    src.max_bytes = max_bytes;
    src.conflicts = overlapping_write;
    src.fill = [this](LoopOp& op, MutByteSpan buf) {
      for (std::size_t at = 0; at < op.bytes; at += kRecord) {
        const std::uint64_t key = (op.offset + at) / kRecord;
        std::uint32_t version = 0;
        if (op.bytes == kRecord) {  // an update: the owner bumps the version
          version = issued_[key].load(std::memory_order_relaxed) + 1;
          issued_[key].store(version, std::memory_order_release);
          op.aux = version;
        }
        write_record(buf.data() + at, key, owner(key), version);
      }
    };
    src.complete = [this](const LoopOp& op, ByteSpan data) {
      if (op.write) {
        if (op.bytes == kRecord)
          completed_[op.offset / kRecord].store(static_cast<std::uint32_t>(op.aux),
                                                std::memory_order_release);
        return true;
      }
      return check_record(data.data(), op.offset / kRecord, static_cast<std::uint32_t>(op.aux));
    };
    return src;
  }

  Shape shape_;
  std::uint64_t seed_;
  Bytes base_;
  std::vector<std::vector<Key>> keys_;
  // Per-key versions: issued_ is bumped by the owner when it fills an
  // update, completed_ when that update's wait() returns.
  std::vector<std::atomic<std::uint32_t>> issued_;
  std::vector<std::atomic<std::uint32_t>> completed_;
};

}  // namespace

Result run_small_mix(const Args& args) {
  return run_unshaped([](std::uint64_t seed) { return std::make_unique<SmallMix>(seed); }, args);
}

}  // namespace perfbench
