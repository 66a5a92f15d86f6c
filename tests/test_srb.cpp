// End-to-end broker tests: server + client over the shaped fabric —
// open/read/write/seek semantics, catalog verbs, concurrency, and the
// object store's pread/pwrite behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"
#include "srb/client.hpp"
#include "srb/object_store.hpp"
#include "srb/server.hpp"

namespace remio::srb {
namespace {

class SrbTest : public ::testing::Test {
 protected:
  SrbTest() : scale_(2000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec client_host;
    client_host.name = "node0";
    client_host.latency_to_core = 0.001;
    fabric_.add_host(client_host);

    server_ = std::make_unique<SrbServer>(fabric_, ServerConfig{});
    server_->start();
  }

  std::unique_ptr<SrbClient> make_client() {
    return std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544);
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<SrbServer> server_;
};

TEST_F(SrbTest, ConnectHandshake) {
  auto c = make_client();
  EXPECT_EQ(c->server_banner(), "remio-srb 3.2.1-sim");
  EXPECT_EQ(server_->sessions_served(), 1u);
}

TEST_F(SrbTest, OpenMissingFails) {
  auto c = make_client();
  try {
    c->open("/nope", kRead);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kNotFound);
  }
}

TEST_F(SrbTest, CreateWriteReadBack) {
  auto c = make_client();
  const auto fd = c->open("/home/t/obj", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("the quick brown fox");
  EXPECT_EQ(c->pwrite(fd, ByteSpan(data.data(), data.size()), 0), data.size());
  Bytes back(data.size());
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  c->close(fd);
}

TEST_F(SrbTest, FilePointerSemantics) {
  auto c = make_client();
  const auto fd = c->open("/fp", kRead | kWrite | kCreate);
  const Bytes a = to_bytes("aaaa");
  const Bytes b = to_bytes("bbbb");
  c->write(fd, ByteSpan(a.data(), a.size()));
  c->write(fd, ByteSpan(b.data(), b.size()));  // appended at fp
  EXPECT_EQ(c->seek(fd, 0, Whence::kSet), 0);
  Bytes back(8);
  EXPECT_EQ(c->read(fd, MutByteSpan(back.data(), back.size())), 8u);
  EXPECT_EQ(to_string(ByteSpan(back.data(), back.size())), "aaaabbbb");
  // fp is now at EOF; further reads return 0.
  char extra;
  EXPECT_EQ(c->read(fd, MutByteSpan(&extra, 1)), 0u);
  c->close(fd);
}

TEST_F(SrbTest, SeekWhence) {
  auto c = make_client();
  const auto fd = c->open("/seek", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("0123456789");
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  EXPECT_EQ(c->seek(fd, 4, Whence::kSet), 4);
  EXPECT_EQ(c->seek(fd, 2, Whence::kCur), 6);
  EXPECT_EQ(c->seek(fd, -3, Whence::kEnd), 7);
  char ch;
  EXPECT_EQ(c->read(fd, MutByteSpan(&ch, 1)), 1u);
  EXPECT_EQ(ch, '7');
  EXPECT_THROW(c->seek(fd, -100, Whence::kSet), SrbError);
  c->close(fd);
}

TEST_F(SrbTest, SparseWriteZeroFills) {
  auto c = make_client();
  const auto fd = c->open("/sparse", kRead | kWrite | kCreate);
  const Bytes tail = to_bytes("end");
  c->pwrite(fd, ByteSpan(tail.data(), tail.size()), 100);
  EXPECT_EQ(c->stat("/sparse")->size, 103u);
  Bytes back(103);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), 103u);
  EXPECT_EQ(back[0], '\0');
  EXPECT_EQ(back[99], '\0');
  EXPECT_EQ(back[100], 'e');
  c->close(fd);
}

TEST_F(SrbTest, TruncFlagResets) {
  auto c = make_client();
  auto fd = c->open("/trunc", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("hello world");
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  c->close(fd);
  fd = c->open("/trunc", kRead | kWrite | kTrunc);
  EXPECT_EQ(c->stat("/trunc")->size, 0u);
  c->close(fd);
}

TEST_F(SrbTest, StatAndUnlink) {
  auto c = make_client();
  EXPECT_FALSE(c->stat("/gone").has_value());
  const auto fd = c->open("/obj", kWrite | kCreate);
  const Bytes data(1234, 'x');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  c->close(fd);
  const auto st = c->stat("/obj");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->size, 1234u);
  EXPECT_EQ(st->resource, "orion-disk");
  c->unlink("/obj");
  EXPECT_FALSE(c->stat("/obj").has_value());
  EXPECT_THROW(c->unlink("/obj"), SrbError);
}

TEST_F(SrbTest, PermissionBits) {
  auto c = make_client();
  const auto wr = c->open("/perm", kWrite | kCreate);
  Bytes buf(4);
  EXPECT_THROW(c->pread(wr, MutByteSpan(buf.data(), buf.size()), 0), SrbError);
  c->close(wr);
  const auto rd = c->open("/perm", kRead);
  const Bytes data = to_bytes("data");
  EXPECT_THROW(c->pwrite(rd, ByteSpan(data.data(), data.size()), 0), SrbError);
  c->close(rd);
}

TEST_F(SrbTest, BadFdRejected) {
  auto c = make_client();
  Bytes buf(4);
  EXPECT_THROW(c->pread(99, MutByteSpan(buf.data(), buf.size()), 0), SrbError);
  EXPECT_THROW(c->close(99), SrbError);
}

TEST_F(SrbTest, CollectionsAndAttrs) {
  auto c = make_client();
  c->make_collection("/proj/run1");
  const auto fd = c->open("/proj/run1/out", kWrite | kCreate);
  c->close(fd);
  const auto entries = c->list("/proj/run1");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], "/proj/run1/out");
  EXPECT_THROW(c->list("/missing"), SrbError);

  c->set_attr("/proj/run1/out", "owner", "demo");
  EXPECT_EQ(c->get_attr("/proj/run1/out", "owner").value(), "demo");
  EXPECT_FALSE(c->get_attr("/proj/run1/out", "nope").has_value());
}

TEST_F(SrbTest, LargeTransferIntegrity) {
  auto c = make_client();
  const auto fd = c->open("/big", kRead | kWrite | kCreate);
  Rng rng(5);
  const Bytes data = rng.bytes((1 << 20) + 321);
  EXPECT_EQ(c->pwrite(fd, ByteSpan(data.data(), data.size()), 0), data.size());
  Bytes back(data.size());
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  c->close(fd);
}

TEST_F(SrbTest, ConcurrentClientsDisjointOffsets) {
  // Two connections writing disjoint slices of the same object — the §7.2
  // double-connection pattern at the broker level.
  auto c = make_client();
  const auto fd0 = c->open("/shared", kWrite | kCreate);
  c->close(fd0);

  constexpr std::size_t kSlice = 256 * 1024;
  auto writer = [&](int idx) {
    auto cl = make_client();
    const auto fd = cl->open("/shared", kWrite);
    const Bytes data(kSlice, static_cast<char>('A' + idx));
    cl->pwrite(fd, ByteSpan(data.data(), data.size()),
               static_cast<std::uint64_t>(idx) * kSlice);
    cl->close(fd);
  };
  auto f1 = std::async(std::launch::async, writer, 0);
  auto f2 = std::async(std::launch::async, writer, 1);
  f1.get();
  f2.get();

  const auto fd = c->open("/shared", kRead);
  Bytes back(2 * kSlice);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), back.size());
  EXPECT_EQ(back[0], 'A');
  EXPECT_EQ(back[kSlice - 1], 'A');
  EXPECT_EQ(back[kSlice], 'B');
  EXPECT_EQ(back.back(), 'B');
  c->close(fd);
}

TEST_F(SrbTest, ManyParallelSessions) {
  constexpr int kSessions = 8;
  std::vector<std::future<void>> jobs;
  for (int i = 0; i < kSessions; ++i)
    jobs.push_back(std::async(std::launch::async, [&, i] {
      auto cl = make_client();
      const std::string path = "/many/obj" + std::to_string(i);
      const auto fd = cl->open(path, kRead | kWrite | kCreate);
      const Bytes data(10000, static_cast<char>(i));
      cl->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
      Bytes back(10000);
      EXPECT_EQ(cl->pread(fd, MutByteSpan(back.data(), back.size()), 0), back.size());
      EXPECT_EQ(back, data);
      cl->close(fd);
    }));
  for (auto& j : jobs) j.get();
  EXPECT_EQ(server_->mcat().object_count(), kSessions);
}

TEST_F(SrbTest, DisconnectThenCallsFail) {
  auto c = make_client();
  c->disconnect();
  EXPECT_THROW(c->stat("/x"), SrbError);
  c->disconnect();  // idempotent
}

TEST_F(SrbTest, ServerStopClosesSessions) {
  auto c = make_client();
  server_->stop();
  EXPECT_ANY_THROW({
    const auto fd = c->open("/x", kWrite | kCreate);
    (void)fd;
  });
}

// --- ObjectStore direct ----------------------------------------------------------

TEST(ObjectStore, PreadShortAtEof) {
  ObjectStore store;
  store.create(1);
  const Bytes data = to_bytes("abc");
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  Bytes buf(10);
  EXPECT_EQ(store.pread(1, MutByteSpan(buf.data(), buf.size()), 0), 3u);
  EXPECT_EQ(store.pread(1, MutByteSpan(buf.data(), buf.size()), 5), 0u);
}

TEST(ObjectStore, MissingObjectThrows) {
  ObjectStore store;
  Bytes buf(1);
  EXPECT_THROW(store.pread(7, MutByteSpan(buf.data(), buf.size()), 0),
               std::out_of_range);
}

TEST(ObjectStore, TotalBytesAndRemove) {
  ObjectStore store;
  store.create(1);
  store.create(2);
  const Bytes data(100, 'x');
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  store.pwrite(2, ByteSpan(data.data(), data.size()), 50);
  EXPECT_EQ(store.total_bytes(), 250u);
  store.remove(1);
  EXPECT_EQ(store.total_bytes(), 150u);
  EXPECT_FALSE(store.exists(1));
}

TEST(ObjectStore, CreateIsIdempotent) {
  ObjectStore store;
  store.create(1);
  const Bytes data = to_bytes("keep");
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  store.create(1);  // must not clobber
  EXPECT_EQ(store.size(1), 4u);
}

// --- at-rest integrity -------------------------------------------------------

TEST(ObjectStore, CorruptionDetectedOnRead) {
  ObjectStore store;
  store.create(1);
  Bytes data(200000);
  Rng rng(1);
  for (auto& b : data) b = static_cast<char>(rng.next());
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);

  ASSERT_TRUE(store.corrupt(1, 150000));  // second 64K block
  Bytes back(data.size());
  // A read covering the rotten block throws; one confined to clean blocks
  // still succeeds (per-block sums localize the damage).
  EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
               IntegrityError);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), 60000), 0), 60000u);
  // Rewriting the bad block's bytes re-hashes it: reads recover.
  store.pwrite(1, ByteSpan(data.data() + 131072, 65536), 131072);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
            data.size());
  EXPECT_EQ(back, data);
}

TEST(ObjectStore, TruncateAndGapWritesKeepSumsFresh) {
  ObjectStore store;
  store.create(1);
  Bytes data(300000, 'q');
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  // Shrink to a mid-block boundary, then re-grow via a sparse write: the
  // zero-extension gap and the partial tail block must both be re-hashed.
  store.truncate(1, 100000);
  store.pwrite(1, ByteSpan(data.data(), 10), 250000);
  Bytes back(250010);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
            back.size());
  for (std::size_t i = 100000; i < 250000; ++i)
    ASSERT_EQ(back[i], 0) << "gap byte " << i;
  store.truncate(1, 0);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), 0u);
}

TEST(ObjectStore, ScrubQuarantinesAndHeals) {
  ObjectStore store;
  store.create(1);
  store.create(2);
  Bytes data(100000, 'z');
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  store.pwrite(2, ByteSpan(data.data(), data.size()), 0);

  ASSERT_TRUE(store.corrupt(2, 5));
  ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.objects, 2u);
  EXPECT_EQ(rep.mismatched, 1u);
  EXPECT_EQ(rep.quarantined, 1u);
  EXPECT_EQ(rep.healed, 0u);
  EXPECT_TRUE(store.is_quarantined(2));
  EXPECT_FALSE(store.is_quarantined(1));

  // Reads of the quarantined object fail non-retryably; the clean one works.
  Bytes back(16);
  try {
    store.pread(2, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_TRUE(e.quarantined());
    EXPECT_FALSE(e.retryable());
    EXPECT_EQ(e.domain(), remio::ErrorDomain::kIntegrity);
  }
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), 16u);

  // Writes remain allowed (the repair path); a clean re-scrub heals.
  store.pwrite(2, ByteSpan(data.data(), 65536), 0);
  rep = store.scrub();
  EXPECT_EQ(rep.mismatched, 0u);
  EXPECT_EQ(rep.healed, 1u);
  EXPECT_FALSE(store.is_quarantined(2));
  EXPECT_EQ(store.pread(2, MutByteSpan(back.data(), back.size()), 0), 16u);
}

// --- derived CRCs ------------------------------------------------------------

/// The CRC32C of each piece of `data`, written at `offset`, cut at the grid of
/// `bs`-byte blocks: what a writer hands pwrite as piece_crcs.
std::vector<std::uint32_t> piece_crcs(ByteSpan data, std::uint64_t offset,
                                      std::uint64_t bs) {
  std::vector<std::uint32_t> out;
  for (std::uint64_t at = 0; at < data.size();) {
    const std::uint64_t o = offset + at;
    const std::uint64_t n = std::min<std::uint64_t>(bs - o % bs, data.size() - at);
    out.push_back(crc32c(data.subspan(at, n)));
    at += n;
  }
  return out;
}

/// `payload` in a fresh buffer laid out like a request frame, a header
/// before it and a CRC trailer after it: the slice the broker hands the
/// adopting pwrite.
simnet::SharedSlice frame_slice(ByteSpan payload) {
  constexpr std::size_t kHead = 21;
  auto buf = std::make_shared<Bytes>(kHead + payload.size() + 4, '\x5a');
  std::copy(payload.begin(), payload.end(), buf->begin() + kHead);
  return {std::move(buf), kHead, kHead + payload.size()};
}

TEST(ObjectStore, PreadReportsCrcOfReturnedBytes) {
  StoreConfig small;
  small.checksum_block = 4096;
  StoreConfig off;
  off.checksums = false;
  const std::pair<const char*, StoreConfig> configs[] = {
      {"64K blocks", StoreConfig{}}, {"4K blocks", small}, {"checksums off", off}};
  const Bytes data = Rng(7).bytes(300000);  // last 64K block is partial
  // (offset, len): mid-block start and end, one block exactly, many blocks
  // from mid-block, whole object, short at EOF, past EOF.
  const std::pair<std::uint64_t, std::size_t> ranges[] = {
      {1000, 3000},       {65536, 65536}, {100, 3 * 65536}, {65000, 200000},
      {0, data.size()},   {250000, 100000}, {299999, 10},   {300000, 10}};
  for (const auto& [name, cfg] : configs) {
    ObjectStore store(cfg);
    store.create(1);
    store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
    for (const auto& [offset, len] : ranges) {
      Bytes back(len);
      std::uint32_t crc = 0xdeadbeef;
      const std::size_t n =
          store.pread(1, MutByteSpan(back.data(), back.size()), offset, &crc);
      const auto start = static_cast<std::size_t>(std::min<std::uint64_t>(offset, data.size()));
      ASSERT_EQ(n, std::min(len, data.size() - start)) << name << " @" << offset;
      EXPECT_TRUE(std::equal(back.begin(), back.begin() + static_cast<std::ptrdiff_t>(n),
                             data.begin() + static_cast<std::ptrdiff_t>(start)))
          << name << " @" << offset;
      EXPECT_EQ(crc, crc32c(ByteSpan(back.data(), n))) << name << " @" << offset;
    }
  }
}

TEST(ObjectStore, RotOutsideRangeInTouchedBlockStillThrows) {
  // The range is verified block by block as before-range, in-range and
  // after-range pieces: rot in a piece the read does not return still
  // fails the block.
  const Bytes data = Rng(8).bytes(200000);
  for (const bool want_crc : {false, true}) {
    ObjectStore store;
    store.create(1);
    store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
    ASSERT_TRUE(store.corrupt(1, 10));     // block 0, before [100, 1100)
    ASSERT_TRUE(store.corrupt(1, 70000));  // block 1, after [66000, 69000)
    Bytes back(3000);
    std::uint32_t crc = 0;
    std::uint32_t* crc_out = want_crc ? &crc : nullptr;
    EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), 1000), 100, crc_out),
                 IntegrityError);
    EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), 3000), 66000, crc_out),
                 IntegrityError);
    // Block 2 is clean.
    EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), 3000), 140000, crc_out), 3000u);
  }
}

TEST(ObjectStore, AdoptedPieceCrcsKeepScrubClean) {
  // Writes at unaligned offsets, into gaps past EOF and growing the object,
  // each handing pwrite the CRCs of its pieces on the block grid; a
  // truncate in between. After each, every sum matches its block and the
  // bytes read back are the model's.
  for (const std::uint64_t bs : {std::uint64_t{65536}, std::uint64_t{4096}}) {
    SCOPED_TRACE(bs);
    StoreConfig cfg;
    cfg.checksum_block = bs;
    ObjectStore store(cfg);
    store.create(1);
    Bytes model;
    Rng rng(9);
    const auto write = [&](std::uint64_t offset, std::size_t len) {
      const Bytes data = rng.bytes(len);
      const auto crcs = piece_crcs(ByteSpan(data.data(), data.size()), offset, bs);
      ASSERT_EQ(crcs.size(), store.pieces(offset, len));
      store.pwrite(1, ByteSpan(data.data(), data.size()), offset, crcs);
      if (model.size() < offset + len) model.resize(offset + len, '\0');
      std::copy(data.begin(), data.end(), model.begin() + static_cast<std::ptrdiff_t>(offset));
    };
    const auto check = [&](const char* what) {
      EXPECT_EQ(store.scrub().mismatched, 0u) << what;
      Bytes back(model.size());
      std::uint32_t crc = 0;
      ASSERT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0, &crc),
                model.size()) << what;
      EXPECT_EQ(back, model) << what;
      EXPECT_EQ(crc, crc32c(ByteSpan(model.data(), model.size()))) << what;
    };
    write(65536 - 100, 200000);  // gap [0, 65436), then growth
    check("unaligned growth over a gap");
    write(1000, 3000);  // inside one block: both edges hashed
    check("mid-block overwrite");
    write(model.size() + 5000, 70000);  // gap-extending write past EOF
    check("gap past EOF");
    write(model.size() - 10, 200000);  // straddles EOF
    check("growth past EOF");
    write(0, 131072);  // whole blocks only
    check("aligned overwrite");
    store.truncate(1, 150000);
    model.resize(150000);
    write(149990, 20);
    check("write at a truncated tail");
  }
}

TEST(ObjectStore, WrongPieceCrcCaughtByNextRead) {
  // An adopted piece CRC is trusted as the block's sum: when it does not
  // match the bytes stored (a bad copy, or a lying caller), the next read
  // of that block throws and scrub counts it; no read returns the bytes.
  ObjectStore store;
  store.create(1);
  const Bytes data = Rng(10).bytes(4 * 65536);
  auto crcs = piece_crcs(ByteSpan(data.data(), data.size()), 0, 65536);
  crcs[2] ^= 1u;
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0, crcs);
  Bytes back(100);
  std::uint32_t crc = 0;
  EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), back.size()), 2 * 65536 + 7, &crc),
               IntegrityError);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 3 * 65536, &crc), 100u);
  EXPECT_EQ(store.scrub().mismatched, 1u);
  EXPECT_TRUE(store.is_quarantined(1));
}

TEST(ObjectStore, PartialWriteNeverLaundersRot) {
  // A partial write checks the bytes it leaves in an edge block against the
  // block's old sum before merging them: rot there keeps the block bad
  // instead of joining a fresh sum. The write still lands, and a full-block
  // rewrite heals the block.
  for (const bool with_crcs : {false, true}) {
    SCOPED_TRACE(with_crcs);
    ObjectStore store;
    store.create(1);
    Bytes model = Rng(12).bytes(100000);
    store.pwrite(1, ByteSpan(model.data(), model.size()), 0);
    ASSERT_TRUE(store.corrupt(1, 10));
    const auto write = [&](const char* text, std::uint64_t offset) {
      const Bytes patch = to_bytes(text);
      const ByteSpan p(patch.data(), patch.size());
      store.pwrite(1, p, offset,
                   with_crcs ? piece_crcs(p, offset, 65536) : std::vector<std::uint32_t>{});
      std::copy(patch.begin(), patch.end(), model.begin() + static_cast<std::ptrdiff_t>(offset));
    };
    write("fresh", 1000);
    Bytes back(100);
    EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), 100), 0), IntegrityError);
    // Straddling into the clean block 1: its part lands and reads back.
    write("straddling", 65530);
    EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), 100), 0), IntegrityError);
    ASSERT_EQ(store.pread(1, MutByteSpan(back.data(), 4), 65536), 4u);
    EXPECT_EQ(to_string(ByteSpan(back.data(), 4)), "ling");
    const ScrubReport rep = store.scrub();
    EXPECT_EQ(rep.mismatched, 1u);
    EXPECT_TRUE(store.is_quarantined(1));
    store.pwrite(1, ByteSpan(model.data(), 65536), 0);
    EXPECT_EQ(store.scrub().healed, 1u);
    Bytes all(model.size());
    ASSERT_EQ(store.pread(1, MutByteSpan(all.data(), all.size()), 0), model.size());
    EXPECT_EQ(all, model);
  }
}

TEST(ObjectStore, ShrinkingTruncateNeverLaundersRot) {
  // A truncate that cuts a block checks the whole old block against its sum
  // first, as a partial write does.
  ObjectStore store;
  store.create(1);
  const Bytes data = Rng(13).bytes(100000);
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  ASSERT_TRUE(store.corrupt(1, 10));
  store.truncate(1, 50000);
  Bytes back(100);
  EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), back.size()), 0), IntegrityError);
  EXPECT_EQ(store.scrub().mismatched, 1u);
  store.pwrite(1, ByteSpan(data.data(), 50000), 0);
  EXPECT_EQ(store.scrub().healed, 1u);
  Bytes all(50000);
  ASSERT_EQ(store.pread(1, MutByteSpan(all.data(), all.size()), 0), all.size());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), data.begin()));
}

TEST(ObjectStore, TruncateGrowSharesOneZeroBlock) {
  // Growth by truncate or by a gap write views one shared zero block: 1 GiB
  // of growth allocates no 1 GiB, reads back as zeros and scrubs clean.
  constexpr std::uint64_t kGiB = 1ull << 30;
  ObjectStore store;
  store.create(1);
  const Bytes head = Rng(14).bytes(1000);
  store.pwrite(1, ByteSpan(head.data(), head.size()), 0);
  EXPECT_EQ(store.truncate(1, kGiB), static_cast<std::int64_t>(kGiB - head.size()));
  EXPECT_LT(store.held_bytes(1), 1u << 20);
  const ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.blocks, kGiB / 65536);
  EXPECT_EQ(rep.mismatched, 0u);
  Bytes back(8u << 20);
  const Bytes zeros(back.size(), '\0');
  for (std::uint64_t off = 0; off < kGiB; off += back.size()) {
    ASSERT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), off), back.size());
    if (off == 0) {
      EXPECT_TRUE(std::equal(head.begin(), head.end(), back.begin()));
      std::fill_n(back.begin(), head.size(), '\0');
    }
    ASSERT_EQ(std::memcmp(back.data(), zeros.data(), back.size()), 0) << "at " << off;
  }
  store.pwrite(1, ByteSpan(head.data(), head.size()), 2 * kGiB);
  EXPECT_LT(store.held_bytes(1), 1u << 20);
  EXPECT_EQ(store.truncate(1, 0), -static_cast<std::int64_t>(2 * kGiB + head.size()));
}

// --- adopting writes ---------------------------------------------------------

TEST(ObjectStore, ShiftedOverwritesStayWithinFourTimesTheObject) {
  // 1 MiB writes, each 64 KiB past the last, leave one block of each frame
  // live. The quarter rule copies such stragglers out, so the buffers the
  // object keeps alive stay within 4x its size instead of one 1 MiB frame
  // per 64 KiB of data.
  constexpr std::size_t kMiB = 1u << 20;
  ObjectStore store;
  store.create(1);
  Bytes model;
  Rng rng(18);
  for (std::uint64_t k = 0; k < 64; ++k) {
    const Bytes data = rng.bytes(kMiB);
    const ByteSpan d(data.data(), data.size());
    store.pwrite(1, frame_slice(d), k * 65536, piece_crcs(d, k * 65536, 65536));
    model.resize(std::max<std::size_t>(model.size(), k * 65536 + kMiB));
    std::copy(data.begin(), data.end(), model.begin() + static_cast<std::ptrdiff_t>(k * 65536));
    ASSERT_LE(store.held_bytes(1), 4 * store.size(1)) << "after write " << k;
  }
  EXPECT_EQ(store.scrub().mismatched, 0u);
  Bytes back(model.size());
  ASSERT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), model.size());
  EXPECT_EQ(back, model);
}

TEST(ObjectStore, RandomMixStaysWithinFourTimesTheObject) {
  // Adopting and copying writes at random offsets and lengths, with and
  // without piece CRCs, and truncates: after every op the held buffers stay
  // within 4x the object, and at the end the bytes and sums are the model's.
  ObjectStore store;
  store.create(1);
  Bytes model;
  Rng rng(19);
  for (int op = 0; op < 200; ++op) {
    if (rng.below(10) == 0) {
      const std::uint64_t size = rng.below(3u << 20);
      store.truncate(1, size);
      model.resize(size, '\0');
    } else {
      const std::uint64_t offset = rng.below(3u << 20);
      const Bytes data = rng.bytes(1 + rng.below(600000));
      const ByteSpan d(data.data(), data.size());
      const auto crcs =
          rng.below(2) == 0 ? piece_crcs(d, offset, 65536) : std::vector<std::uint32_t>{};
      if (rng.below(4) == 0)
        store.pwrite(1, d, offset, crcs);
      else
        store.pwrite(1, frame_slice(d), offset, crcs);
      model.resize(std::max<std::size_t>(model.size(), offset + data.size()), '\0');
      std::copy(data.begin(), data.end(), model.begin() + static_cast<std::ptrdiff_t>(offset));
    }
    ASSERT_EQ(store.size(1), model.size());
    ASSERT_LE(store.held_bytes(1), 4 * store.size(1)) << "after op " << op;
  }
  EXPECT_EQ(store.scrub().mismatched, 0u);
  Bytes back(model.size());
  ASSERT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), model.size());
  EXPECT_EQ(back, model);
}

TEST(ObjectStoreAdopt, CoveredBlocksViewTheFrame) {
  // An aligned write through the adopting pwrite stores no copy: every
  // block views the one frame buffer. An unaligned one adopts the blocks it
  // covers whole and copy-merges its two edge blocks.
  ObjectStore store;
  store.create(1);
  Bytes model = Rng(15).bytes(8 * 65536);
  ByteSpan m(model.data(), model.size());
  const simnet::SharedSlice first = frame_slice(m);
  store.pwrite(1, first, 0, piece_crcs(m, 0, 65536));
  EXPECT_EQ(store.held_bytes(1), first.buf->capacity());

  const Bytes data = Rng(16).bytes(3 * 65536);
  const ByteSpan d(data.data(), data.size());
  const simnet::SharedSlice second = frame_slice(d);
  store.pwrite(1, second, 100, piece_crcs(d, 100, 65536));
  std::copy(data.begin(), data.end(), model.begin() + 100);
  EXPECT_EQ(store.held_bytes(1),
            first.buf->capacity() + second.buf->capacity() + 2 * 65536);
  EXPECT_EQ(store.scrub().mismatched, 0u);
  Bytes back(model.size());
  ASSERT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), model.size());
  EXPECT_EQ(back, model);
}

TEST(ObjectStoreAdopt, CorruptClonesTheBlockAndLeavesTheSenderBuffer) {
  // Blocks are immutable: rot lands in a copy of the adopted block, so the
  // sender's buffer stays byte-identical, and the read still throws.
  ObjectStore store;
  store.create(1);
  const Bytes data = Rng(17).bytes(4 * 65536);
  const ByteSpan d(data.data(), data.size());
  const simnet::SharedSlice frame = frame_slice(d);
  const Bytes sent = *frame.buf;
  store.pwrite(1, frame, 0, piece_crcs(d, 0, 65536));
  ASSERT_TRUE(store.corrupt(1, 70000));
  EXPECT_EQ(*frame.buf, sent);
  Bytes back(100);
  EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), back.size()), 69990), IntegrityError);
  ASSERT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), back.size());
  EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));
}

/// Two readers on disjoint halves share the object lock while a writer, a
/// rot injector and a scrubber take it exclusively. Every byte stays
/// pattern(offset) unless rot flipped it, so a read that returns data must
/// return exactly the pattern: rotted bytes only ever surface as
/// IntegrityError (mismatch or quarantine), never as silently wrong data.
/// With `adopt` the writer sends each block in a fresh frame-like buffer
/// through the adopting pwrite and drops it at once, so the store holds the
/// only reference and releases the old block's buffer on the next rewrite.
void readers_writer_and_rot(bool adopt) {
  constexpr std::size_t kBlock = 64u * 1024;
  constexpr std::size_t kSize = 4 * kBlock;
  constexpr std::size_t kChunk = 48u * 1024;  // straddles block boundaries
  constexpr int kRots = 32;
  constexpr auto kPoll = std::chrono::microseconds(50);
  const auto pattern = [](std::uint64_t off) {
    return static_cast<char>((off * 131) ^ (off >> 9));
  };
  Bytes image(kSize);
  for (std::size_t i = 0; i < kSize; ++i) image[i] = pattern(i);
  ObjectStore store;
  store.create(1);
  store.pwrite(1, ByteSpan(image.data(), image.size()), 0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> block_writes{0};
  std::atomic<std::uint64_t> clean{0};
  std::atomic<std::uint64_t> detected{0};
  std::atomic<std::uint64_t> wrong{0};
  const auto reader = [&](std::uint64_t lo, std::uint64_t seed) {
    Rng rng(seed);
    Bytes buf(kChunk);
    while (!stop.load()) {
      const std::uint64_t off = lo + rng.below(kSize / 2 - kChunk);
      try {
        const std::size_t n =
            store.pread(1, MutByteSpan(buf.data(), buf.size()), off);
        bool exact = n == kChunk;
        for (std::size_t i = 0; exact && i < n; ++i)
          exact = buf[i] == pattern(off + i);
        (exact ? clean : wrong).fetch_add(1);
      } catch (const IntegrityError&) {
        detected.fetch_add(1);
      }
      // Readers that never pause can hold a reader-preferring lock shared
      // indefinitely; a real session pauses for the network between reads.
      // The writer pauses likewise, so neither side monopolises the lock.
      std::this_thread::yield();
    }
  };
  // The writer restores the pattern block by block, round and round, which
  // repairs whatever the rot injector broke.
  const auto writer = [&] {
    for (std::uint64_t b = 0; !stop.load(); b = (b + 1) % (kSize / kBlock)) {
      const ByteSpan block(image.data() + b * kBlock, kBlock);
      if (adopt)
        store.pwrite(1, frame_slice(block), b * kBlock);
      else
        store.pwrite(1, block, b * kBlock);
      block_writes.fetch_add(1);
      std::this_thread::yield();
    }
  };
  std::thread r1(reader, 0, 11);
  std::thread r2(reader, kSize / 2, 22);
  std::thread w(writer);
  Rng rng(33);
  for (int i = 0; i < kRots; ++i) {
    EXPECT_TRUE(store.corrupt(1, rng.below(kSize)));
    (void)store.scrub();  // usually quarantines; heals once repaired
    // Let the writer make one full pass so the rot is repaired.
    const std::uint64_t target = block_writes.load() + kSize / kBlock + 1;
    // The waits sleep rather than spin: three busy threads are enough.
    while (block_writes.load() < target) std::this_thread::sleep_for(kPoll);
    (void)store.scrub();  // heals: every block was rewritten since the rot
    // Each round ends with the readers back on clean data.
    const std::uint64_t seen = clean.load();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (clean.load() == seen && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(kPoll);
  }
  stop.store(true);
  r1.join();
  r2.join();
  w.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(clean.load(), static_cast<std::uint64_t>(kRots));
  (void)store.scrub();
  EXPECT_FALSE(store.is_quarantined(1));
  Bytes back(kSize);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), kSize);
  EXPECT_EQ(back, image);
}

TEST(ObjectStoreConcurrency, SharedReadersWriterAndRotNeverReturnWrongBytes) {
  readers_writer_and_rot(/*adopt=*/false);
}

TEST(ObjectStoreConcurrency, AdoptingWriterReadersAndRotNeverReturnWrongBytes) {
  readers_writer_and_rot(/*adopt=*/true);
}

TEST(ObjectStoreConcurrency, ReportedCrcMatchesReturnedBytesUnderWritersRotAndScrub) {
  // A reader asks for the CRC of every range it reads while two writers
  // rewrite the object in unaligned chunks with piece CRCs, rot flips bits
  // and scrubs run. The reported CRC is derived from the stored bytes under
  // the same lock hold as the copy, so it must equal the CRC of the bytes
  // returned on every read. A partial write never launders rot, so a
  // rotted block stays bad until each round ends with one whole rewrite.
  constexpr std::uint64_t kBlock = 64u * 1024;
  constexpr std::size_t kSize = 4 * kBlock;
  constexpr int kRots = 16;
  constexpr auto kPoll = std::chrono::microseconds(50);
  const Bytes image = Rng(44).bytes(kSize);
  ObjectStore store;
  store.create(1);
  store.pwrite(1, ByteSpan(image.data(), image.size()), 0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> passes{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> crc_wrong{0};
  const auto writer = [&](std::uint64_t chunk, std::uint64_t start) {
    for (std::uint64_t off = start; !stop.load();) {
      const std::size_t n = static_cast<std::size_t>(std::min(chunk, kSize - off));
      const ByteSpan data(image.data() + off, n);
      store.pwrite(1, data, off, piece_crcs(data, off, kBlock));
      off += n;
      if (off == kSize) {
        off = 0;
        passes.fetch_add(1);
      }
      std::this_thread::yield();
    }
  };
  const auto reader = [&] {
    Rng rng(45);
    Bytes buf(100000);
    while (!stop.load()) {
      const std::uint64_t off = rng.below(kSize);
      const std::size_t len = 1 + rng.below(buf.size());
      std::uint32_t crc = 0;
      try {
        const std::size_t n =
            store.pread(1, MutByteSpan(buf.data(), len), off, &crc);
        if (crc != crc32c(ByteSpan(buf.data(), n))) crc_wrong.fetch_add(1);
        reads.fetch_add(1);
      } catch (const IntegrityError&) {
      }
      std::this_thread::yield();
    }
  };
  std::thread w1(writer, 40000, 0);
  std::thread w2(writer, 52000, 1000);
  std::thread r(reader);
  Rng rng(46);
  for (int i = 0; i < kRots; ++i) {
    EXPECT_TRUE(store.corrupt(1, rng.below(kSize)));
    (void)store.scrub();
    // Three passes between them: one writer made two, the later of which
    // began after the rot.
    const std::uint64_t target = passes.load() + 3;
    while (passes.load() < target) std::this_thread::sleep_for(kPoll);
    store.pwrite(1, ByteSpan(image.data(), image.size()), 0,
                 piece_crcs(ByteSpan(image.data(), image.size()), 0, kBlock));
    (void)store.scrub();
    const std::uint64_t seen = reads.load();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (reads.load() == seen && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(kPoll);
  }
  stop.store(true);
  w1.join();
  w2.join();
  r.join();

  EXPECT_EQ(crc_wrong.load(), 0u);
  EXPECT_GE(reads.load(), static_cast<std::uint64_t>(kRots));
  // One whole rewrite with piece CRCs leaves every block and sum clean.
  store.pwrite(1, ByteSpan(image.data(), image.size()), 0,
               piece_crcs(ByteSpan(image.data(), image.size()), 0, kBlock));
  const ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.mismatched, 0u);
  EXPECT_FALSE(store.is_quarantined(1));
  Bytes back(kSize);
  std::uint32_t crc = 0;
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0, &crc), kSize);
  EXPECT_EQ(back, image);
  EXPECT_EQ(crc, crc32c(ByteSpan(image.data(), image.size())));
}

TEST(ObjectStoreConcurrency, GatheredRepliesKeepTheirSnapshotWhileWritersReplaceBlocks) {
  // A read reply's data leaves the broker as views of the store's blocks
  // and stays views until the client copies it out. Meanwhile a writer
  // replaces those blocks, and the quarter rule copies out the blocks of a
  // frame the object mostly dropped. Blocks are immutable, so every read
  // must return exactly the object as it stood between two writes.
  constexpr std::size_t kBlock = 64u * 1024;
  constexpr std::size_t kSize = 8 * kBlock;
  constexpr std::size_t kHead = 7 * kBlock;  // the writer's partial frames
  constexpr int kCycles = 24;
  simnet::ScopedTimeScale scale(2000.0);
  simnet::Fabric fabric;
  for (const char* name : {"orion", "node0"}) {
    simnet::HostSpec host;
    host.name = name;
    fabric.add_host(host);
  }
  SrbServer server(fabric, ServerConfig{});
  server.start();
  const Bytes x = Rng(61).bytes(kSize);
  const Bytes y = Rng(62).bytes(kSize);
  // The writer's cycle, one frame per write: X whole; Y over the first 7
  // blocks (X's frame keeps 1 of its 8 blocks, so the quarter rule copies
  // that block out); Y's last block; X over the first 7 blocks.
  const auto mix = [&](const Bytes& head, const Bytes& tail) {
    Bytes out(tail);
    std::copy_n(head.begin(), kHead, out.begin());
    return out;
  };
  const std::vector<Bytes> states = {x, mix(y, x), y, mix(x, y)};

  SrbClient writer(fabric, "node0", "orion", 5544, {}, "writer");
  const std::int32_t wfd = writer.open("/gathered", kRead | kWrite | kCreate);
  writer.pwrite(wfd, ByteSpan(x.data(), x.size()), 0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> wrong{0};
  const auto reader = [&](std::uint64_t seed) {
    SrbClient client(fabric, "node0", "orion", 5544, {}, "reader" + std::to_string(seed));
    const std::int32_t fd = client.open("/gathered", kRead);
    Rng rng(seed);
    Bytes buf(3 * kBlock);
    while (!stop.load()) {
      const std::size_t off = rng.below(kSize - 1);
      const std::size_t len = 1 + rng.below(std::min(buf.size(), kSize - off));
      try {
        const std::size_t n = client.pread(fd, MutByteSpan(buf.data(), len), off);
        bool matched = false;
        for (const Bytes& s : states)
          matched = matched ||
                    (n == len && std::equal(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n),
                                            s.begin() + static_cast<std::ptrdiff_t>(off)));
        (matched ? reads : wrong).fetch_add(1);
      } catch (const SrbError&) {
        wrong.fetch_add(1);
      }
    }
  };
  std::thread r1(reader, 71);
  std::thread r2(reader, 72);
  for (int i = 0; i < kCycles; ++i) {
    writer.pwrite(wfd, ByteSpan(y.data(), kHead), 0);
    writer.pwrite(wfd, ByteSpan(y.data() + kHead, kSize - kHead), kHead);
    writer.pwrite(wfd, ByteSpan(x.data(), kHead), 0);
    writer.pwrite(wfd, ByteSpan(x.data(), x.size()), 0);
  }
  // Let each reader finish a few reads after the last write.
  const std::uint64_t target = reads.load() + 4;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reads.load() < target && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop.store(true);
  r1.join();
  r2.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(reads.load(), 4u);
  const auto st = writer.stat("/gathered");
  ASSERT_TRUE(st.has_value());
  // The quarter rule kept the held buffers within 4x the object.
  EXPECT_LE(server.store().held_bytes(st->object_id), 4 * kSize);
  Bytes back(kSize);
  EXPECT_EQ(writer.pread(wfd, MutByteSpan(back.data(), back.size()), 0), kSize);
  EXPECT_EQ(back, x);
}

// --- wire checksums: negotiation + interop ----------------------------------

TEST_F(SrbTest, WireChecksumsNegotiatedByDefault) {
  auto c = make_client();
  EXPECT_TRUE(c->wire_checksums());
  const auto fd = c->open("/crc/on", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("covered by crc32c trailers");
  EXPECT_EQ(c->pwrite(fd, ByteSpan(data.data(), data.size()), 0), data.size());
  Bytes back(data.size());
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(c->crc_failures(), 0u);
  c->close(fd);
}

TEST_F(SrbTest, OldClientAgainstNewServerInterops) {
  // wire_checksums=false makes the client bit-identical to a pre-integrity
  // one: no flags at connect, so the server must not ack and the whole
  // session must run the unchecked protocol.
  auto old_c = std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544,
                                           simnet::ConnectOptions{}, "old-client",
                                           "", /*wire_checksums=*/false);
  EXPECT_FALSE(old_c->wire_checksums());
  const auto fd = old_c->open("/crc/old", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("plain frames");
  EXPECT_EQ(old_c->pwrite(fd, ByteSpan(data.data(), data.size()), 0),
            data.size());
  Bytes back(data.size());
  EXPECT_EQ(old_c->pread(fd, MutByteSpan(back.data(), back.size()), 0),
            data.size());
  EXPECT_EQ(back, data);
  old_c->close(fd);
}

TEST_F(SrbTest, NewClientAgainstOldServerDowngrades) {
  // A server with the feature off behaves like an old broker: it never
  // echoes flags, and the new client silently downgrades.
  ServerConfig cfg;
  cfg.port = 5599;
  cfg.wire_checksums = false;
  SrbServer old_server(fabric_, cfg);
  old_server.start();
  SrbClient c(fabric_, "node0", "orion", 5599);
  EXPECT_FALSE(c.wire_checksums());
  const auto fd = c.open("/crc/downgrade", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("negotiated off");
  EXPECT_EQ(c.pwrite(fd, ByteSpan(data.data(), data.size()), 0), data.size());
  Bytes back(data.size());
  EXPECT_EQ(c.pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  c.close(fd);
  c.disconnect();
  old_server.stop();
}

TEST_F(SrbTest, WireOverheadIsExactlyFourBytesPerFrame) {
  // Pins the frame format: a CRC session moves exactly 4 extra bytes per
  // message in each direction (the trailer; plus the 4-byte flags field in
  // the connect exchange). Also proves a checksums-off session is
  // byte-identical to the pre-integrity protocol, whose costs these same
  // op sequences pinned before this feature existed.
  const auto run_ops = [&](SrbClient& c) {
    const auto fd = c.open("/crc/overhead", kRead | kWrite | kCreate);
    Bytes data(10000, 'k');
    c.pwrite(fd, ByteSpan(data.data(), data.size()), 0);
    Bytes back(10000);
    c.pread(fd, MutByteSpan(back.data(), back.size()), 0);
    c.close(fd);
    c.disconnect();
  };
  auto on = make_client();
  run_ops(*on);
  const std::uint64_t on_sent = on->bytes_sent();
  const std::uint64_t on_recv = on->bytes_received();
  const std::uint64_t rpcs = on->rpc_count();

  auto off = std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544,
                                         simnet::ConnectOptions{}, "remio-client",
                                         "", /*wire_checksums=*/false);
  run_ops(*off);
  // Every frame (request and response) carries a 4-byte trailer except the
  // two connect frames, which instead carry the 4-byte flags/ack fields:
  // the delta is exactly 4 * rpc_count in each direction.
  EXPECT_EQ(on_sent - off->bytes_sent(), 4u * rpcs);
  EXPECT_EQ(on_recv - off->bytes_received(), 4u * rpcs);
  EXPECT_EQ(off->rpc_count(), rpcs);
}

// --- end-to-end corruption: in flight and at rest ---------------------------

TEST_F(SrbTest, InFlightCorruptionSurfacesAndSessionSurvives) {
  auto fault = std::make_shared<simnet::FaultInjector>();
  fabric_.set_fault_injector(fault);
  auto c = make_client();
  ASSERT_TRUE(c->wire_checksums());
  const auto fd = c->open("/crc/flight", kRead | kWrite | kCreate);
  Bytes data(20000, 'w');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);

  // Corrupt every send until further notice: whichever direction the flip
  // lands in, the op must fail with the retryable integrity status and the
  // wrong bytes must never be accepted.
  fault->set_corrupt_probability(1.0);
  Bytes back(20000);
  try {
    c->pread(fd, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kChecksumMismatch);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.domain(), remio::ErrorDomain::kIntegrity);
  }
  EXPECT_GE(fault->corruptions(), 1u);

  // Same socket, same session: once the line is clean the op just works.
  fault->set_corrupt_probability(0.0);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0),
            data.size());
  EXPECT_EQ(back, data);
  c->close(fd);
}

TEST_F(SrbTest, AtRestCorruptionSurfacesOverTheWire) {
  auto c = make_client();
  const auto fd = c->open("/crc/rest", kRead | kWrite | kCreate);
  Bytes data(100000, 'r');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  const auto st = c->stat("/crc/rest");
  ASSERT_TRUE(st.has_value());

  ASSERT_TRUE(server_->store().corrupt(st->object_id, 42));
  Bytes back(100000);
  try {
    c->pread(fd, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kChecksumMismatch);
    EXPECT_TRUE(e.retryable());
  }
  // The session survived the server-side throw; other objects still serve.
  const auto fd2 = c->open("/crc/other", kRead | kWrite | kCreate);
  c->pwrite(fd2, ByteSpan(data.data(), 100), 0);
  EXPECT_EQ(c->pread(fd2, MutByteSpan(back.data(), 100), 0), 100u);
  c->close(fd2);
}

TEST_F(SrbTest, AdminScrubQuarantinesOverTheWire) {
  auto c = make_client();
  const auto fd = c->open("/crc/scrubme", kRead | kWrite | kCreate);
  Bytes data(70000, 's');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  const auto st = c->stat("/crc/scrubme");
  ASSERT_TRUE(st.has_value());

  SrbClient::ScrubResult rep = c->scrub();
  EXPECT_GE(rep.objects, 1u);
  EXPECT_EQ(rep.mismatched, 0u);

  ASSERT_TRUE(server_->store().corrupt(st->object_id, 65536));
  rep = c->scrub();
  EXPECT_EQ(rep.mismatched, 1u);
  EXPECT_EQ(rep.quarantined, 1u);

  // kQuarantined is terminal until repaired — and distinct from a plain
  // mismatch so supervisors don't burn retries on it.
  Bytes back(16);
  try {
    c->pread(fd, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kQuarantined);
    EXPECT_FALSE(e.retryable());
  }

  // Repair by rewriting the damaged block, then scrub-heal.
  c->pwrite(fd, ByteSpan(data.data() + 65536, data.size() - 65536), 65536);
  rep = c->scrub();
  EXPECT_EQ(rep.healed, 1u);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), 16u);
  c->close(fd);
}

TEST_F(SrbTest, FlippedGatheredReplyNeverReachesTheStore) {
  // A read reply's data leaves the broker as views of the store's blocks.
  // A bit flipped in flight lands in a private copy of the part it hits:
  // the client sees a retryable checksum mismatch, a clean re-read returns
  // the original bytes, and no store block changed.
  auto fault = std::make_shared<simnet::FaultInjector>();
  fabric_.set_fault_injector(fault);
  auto c = make_client();
  ASSERT_TRUE(c->wire_checksums());
  const auto fd = c->open("/crc/gathered", kRead | kWrite | kCreate);
  const Bytes data = Rng(51).bytes(4 * 65536);
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  const auto st = c->stat("/crc/gathered");
  ASSERT_TRUE(st.has_value());
  // Views of the stored blocks, held as an in-flight reply holds them.
  std::vector<simnet::SharedSlice> held;
  ASSERT_EQ(server_->store().pread_slices(st->object_id, held, data.size(), 0),
            data.size());

  fault->set_corrupt_probability(1.0, "", /*responses_only=*/true);
  Bytes back(data.size());
  try {
    c->pread(fd, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kChecksumMismatch);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.domain(), remio::ErrorDomain::kIntegrity);
  }
  EXPECT_EQ(fault->corruptions(), 1u);
  EXPECT_EQ(c->crc_failures(), 1u);  // the reply, not the request, was hit

  fault->set_corrupt_probability(0.0);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  const simnet::SharedSlice blocks = simnet::gather(std::move(held));
  EXPECT_TRUE(std::equal(data.begin(), data.end(), blocks.view().begin(),
                         blocks.view().end()));
  EXPECT_EQ(c->scrub().mismatched, 0u);
  c->close(fd);
}

}  // namespace
}  // namespace remio::srb
