// bulk_shared: two ranks share one file and each owns a disjoint half. Each
// rank overwrites its half in 1 MiB iwrite_at requests, 4 outstanding, pass
// after pass (block order permuted per pass from the seed), then reads it
// back the same way. Per-byte costs dominate: copies, frame CRC, the 64 KB
// at-rest verify and the per-object mutex that both ranks contend on.
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "testbed/workload/generator.hpp"
#include "unshaped.hpp"

namespace perfbench {
namespace {

using remio::Bytes;
using remio::ByteSpan;
using remio::MutByteSpan;

constexpr std::size_t kOp = 1u << 20;
constexpr std::size_t kPage = 4096;
constexpr std::uint64_t kBlocksPerRank = 32;  // 32 MiB per rank, 64 MiB file
constexpr std::uint64_t kReadSalt = 1ull << 32;

class BulkShared final : public UnshapedWorkload {
 public:
  explicit BulkShared(std::uint64_t seed) : seed_(seed) {
    shape_.ranks = 2;
    shape_.streams = 2;
    shape_.io_threads = 2;
    shape_.window = 4;
    shape_.op_bytes = kOp;
    shape_.path = "/bench/bulk_shared.dat";
    shape_.phases = 2;  // write passes, then read passes
    remio::Rng rng(mix64(seed));
    base_ = rng.bytes(kOp);
    last_pass_.assign(kBlocksPerRank * static_cast<std::uint64_t>(shape_.ranks), 0);
    next_pass_.assign(static_cast<std::size_t>(shape_.ranks), 1);
    next_read_pass_.assign(static_cast<std::size_t>(shape_.ranks), 0);
  }

  const Shape& shape() const override { return shape_; }

  OpSource preload(int rank) override {
    auto i = std::make_shared<std::uint64_t>(0);
    OpSource src = common();
    src.next = [this, rank, i](LoopOp& op) {
      if (*i == kBlocksPerRank) return false;
      op = block_op(first_block(rank) + (*i)++, true, 0);
      return true;
    };
    return src;
  }

  OpSource phase(int phase, int rank) override {
    OpSource src = common();
    const bool write = phase == 0;
    auto& pass_counter = write ? next_pass_[static_cast<std::size_t>(rank)]
                               : next_read_pass_[static_cast<std::size_t>(rank)];
    // Where this source is within its current pass.
    struct Cursor {
      std::vector<std::uint64_t> order;
      std::size_t pos = 0;
      std::uint64_t pass = 0;
    };
    auto cur = std::make_shared<Cursor>();
    src.next = [this, rank, write, &pass_counter, cur](LoopOp& op) {
      if (cur->pos == cur->order.size()) {
        cur->pass = pass_counter++;
        cur->order = permutation(rank, write ? cur->pass : cur->pass | kReadSalt);
        cur->pos = 0;
      }
      op = block_op(cur->order[cur->pos++], write, write ? cur->pass : 0);
      return true;
    };
    return src;
  }

 private:
  std::uint64_t first_block(int rank) const {
    return kBlocksPerRank * static_cast<std::uint64_t>(rank);
  }

  static LoopOp block_op(std::uint64_t block, bool write, std::uint64_t pass) {
    LoopOp op;
    op.write = write;
    op.offset = block * kOp;
    op.bytes = kOp;
    op.aux = pass;
    return op;
  }

  /// Rank's blocks in the order of one pass, shuffled from the seed.
  std::vector<std::uint64_t> permutation(int rank, std::uint64_t salt) const {
    std::vector<std::uint64_t> v(kBlocksPerRank);
    for (std::uint64_t b = 0; b < kBlocksPerRank; ++b) v[b] = first_block(rank) + b;
    remio::Rng rng(remio::testbed::workload::rank_seed(seed_, rank, salt));
    for (std::size_t k = v.size() - 1; k > 0; --k) std::swap(v[k], v[rng.below(k + 1)]);
    return v;
  }

  /// The 16-byte header each 4 KiB page of a block starts with: a tag
  /// derived from the seed and the page's file offset, and the pass.
  void page_header(std::uint64_t offset, std::uint64_t pass, char* out) const {
    const std::uint64_t tag = mix64(seed_ ^ mix64(offset));
    std::memcpy(out, &tag, 8);
    std::memcpy(out + 8, &pass, 8);
  }

  OpSource common() {
    OpSource src;
    src.max_bytes = kOp;
    src.conflicts = overlapping_write;
    src.fill = [this](LoopOp& op, MutByteSpan buf) {
      std::memcpy(buf.data(), base_.data(), kOp);
      for (std::size_t p = 0; p < kOp; p += kPage) page_header(op.offset + p, op.aux, buf.data() + p);
    };
    src.complete = [this](const LoopOp& op, ByteSpan data) {
      const std::uint64_t block = op.offset / kOp;
      if (op.write) {
        last_pass_[block] = op.aux;
        return true;
      }
      char want[16];
      for (std::size_t p = 0; p < kOp; p += kPage) {
        page_header(op.offset + p, last_pass_[block], want);
        if (std::memcmp(data.data() + p, want, 16) != 0 ||
            std::memcmp(data.data() + p + 16, base_.data() + p + 16, kPage - 16) != 0)
          return false;
      }
      return true;
    };
    return src;
  }

  Shape shape_;
  std::uint64_t seed_;
  Bytes base_;
  // Written only by the owning rank's thread; phases are barrier-separated.
  std::vector<std::uint64_t> last_pass_;
  std::vector<std::uint64_t> next_pass_;
  std::vector<std::uint64_t> next_read_pass_;
};

}  // namespace

Result run_bulk_shared(const Args& args) {
  return run_unshaped([](std::uint64_t seed) { return std::make_unique<BulkShared>(seed); },
                      args);
}

}  // namespace perfbench
