// Client-side block cache tests: prefetch pattern detection, write-behind
// coalescing bookkeeping, and the cache wired under SemplarFile — a
// randomized property test against an in-memory model, generation-based
// cross-handle invalidation, and eviction under concurrent pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "cache/prefetcher.hpp"
#include "cache/writeback.hpp"
#include "common/rng.hpp"
#include "core/semplar.hpp"
#include "simnet/timescale.hpp"
#include "srb/generation.hpp"
#include "srb/server.hpp"

namespace remio::semplar {
namespace {

// --- Prefetcher -------------------------------------------------------------

TEST(Prefetcher, SequentialRunsPredictFollowingBlocks) {
  cache::Prefetcher pf(4);
  EXPECT_TRUE(pf.on_access(0, 1).empty());  // first touch: no pattern yet
  const auto out = pf.on_access(1, 1);      // confirms sequential
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[3], 5u);
}

TEST(Prefetcher, VaryingRunLengthsStaySequential) {
  cache::Prefetcher pf(2);
  EXPECT_TRUE(pf.on_access(0, 3).empty());
  const auto out = pf.on_access(3, 1);  // starts where the last run ended
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 4u);
  EXPECT_EQ(out[1], 5u);
}

TEST(Prefetcher, StridedAccessPredictsFootprints) {
  cache::Prefetcher pf(4);
  EXPECT_TRUE(pf.on_access(0, 1).empty());
  EXPECT_FALSE(pf.on_access(10, 1).empty() &&
               false);  // first delta only sets the stride
  const auto out = pf.on_access(20, 1);  // stride 10 confirmed
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], 30u);
  EXPECT_EQ(out[1], 40u);
}

TEST(Prefetcher, RandomJumpsBreakTheStreakAndBackwardNeverPredicts) {
  cache::Prefetcher pf(4);
  pf.on_access(0, 1);
  pf.on_access(1, 1);
  EXPECT_TRUE(pf.on_access(50, 1).empty());  // jump: new candidate stride
  pf.reset();
  pf.on_access(100, 1);
  pf.on_access(90, 1);
  EXPECT_TRUE(pf.on_access(80, 1).empty());  // backward stride: no prediction
}

TEST(Prefetcher, DisabledDepthNeverPredicts) {
  cache::Prefetcher pf(0);
  pf.on_access(0, 1);
  EXPECT_TRUE(pf.on_access(1, 1).empty());
}

// --- WritebackBuffer --------------------------------------------------------

TEST(Writeback, MergesAdjacentWritesWithinABlock) {
  cache::CacheCounters counters;
  cache::WritebackBuffer wb(1 << 20, &counters);
  EXPECT_FALSE(wb.write_through());
  wb.mark_dirty(0, 0, 100, 4096);
  wb.mark_dirty(0, 100, 200, 4096);  // abuts: coalesces
  EXPECT_EQ(wb.dirty_bytes(), 200u);
  EXPECT_EQ(counters.writeback_coalesced.load(), 1u);
  const auto runs = wb.plan(4096);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].extent.offset, 0u);
  EXPECT_EQ(runs[0].extent.len, 200u);
}

TEST(Writeback, ChainsBlockBoundaryRunsIntoOneWrite) {
  cache::WritebackBuffer wb(1 << 20, nullptr);
  wb.mark_dirty(0, 1000, 4096, 4096);
  wb.mark_dirty(1, 0, 4096, 4096);
  wb.mark_dirty(2, 0, 50, 4096);
  wb.mark_dirty(7, 10, 20, 4096);  // far away: its own run
  const auto runs = wb.plan(4096);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].extent.offset, 1000u);
  EXPECT_EQ(runs[0].extent.len, 4096u - 1000u + 4096u + 50u);
  EXPECT_EQ(runs[0].parts.size(), 3u);
  EXPECT_EQ(runs[1].extent.offset, 7u * 4096 + 10);
}

TEST(Writeback, HighWaterMarkSignalsAndClearResets) {
  cache::WritebackBuffer wb(300, nullptr);
  EXPECT_FALSE(wb.mark_dirty(0, 0, 200, 4096));
  EXPECT_TRUE(wb.mark_dirty(1, 0, 200, 4096));  // 400 >= 300
  wb.clear(0);
  EXPECT_EQ(wb.dirty_bytes(), 200u);
  wb.clear_all();
  EXPECT_TRUE(wb.empty());
}

// --- Generation attribute ---------------------------------------------------

TEST(Generation, FormatParseRoundTripAndMalformed) {
  srb::Generation g{42, "node0#3"};
  EXPECT_EQ(srb::parse_generation(srb::format_generation(g)), g);
  EXPECT_EQ(srb::parse_generation("").counter, 0u);
  EXPECT_EQ(srb::parse_generation("junk").counter, 0u);
  EXPECT_EQ(srb::parse_generation("12junk:w").counter, 0u);
}

// --- Config knobs -----------------------------------------------------------

TEST(CacheConfig, ValidateRejectsInconsistentKnobs) {
  Config cfg;
  cfg.client_host = "node0";
  validate(cfg);  // defaults: cache off

  Config bad = cfg;
  bad.cache_block_bytes = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.cache_bytes = 100;  // below one block
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.readahead_blocks = 2;  // needs cache_bytes
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.writeback_hwm = 4096;  // needs cache_bytes
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.cache_bytes = 1u << 20;
  bad.writeback_hwm = 2u << 20;  // exceeds capacity
  EXPECT_THROW(validate(bad), std::invalid_argument);

  Config good = cfg;
  good.cache_bytes = 1u << 20;
  good.cache_block_bytes = 64 * 1024;
  good.readahead_blocks = 4;
  good.writeback_hwm = 256 * 1024;
  validate(good);
}

// --- AsyncEngine::try_submit ------------------------------------------------

TEST(AsyncEngine, TrySubmitFailsOnFullQueueInsteadOfBlocking) {
  AsyncEngine engine(1, 1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the worker, then fill the 1-slot queue.
  auto blocker = engine.submit([&] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return std::size_t{0};
  });
  while (!engine.try_submit([&] {
    ++ran;
    return std::size_t{0};
  })) {
    // The blocker may not have dequeued yet; once it has, the slot is free.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Queue now holds one item and the worker is busy: must refuse, not hang.
  EXPECT_FALSE(engine.try_submit([&] {
    ++ran;
    return std::size_t{0};
  }));
  release = true;
  blocker.wait();
  engine.drain();
  EXPECT_EQ(ran.load(), 1);
  engine.shutdown();
  EXPECT_FALSE(engine.try_submit([] { return std::size_t{0}; }));
}

// --- SemplarFile with the cache over a live broker --------------------------

class CachedFileTest : public ::testing::Test {
 protected:
  CachedFileTest() : scale_(2000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec node;
    node.name = "node0";
    node.latency_to_core = 0.002;
    fabric_.add_host(node);
    server_ = std::make_unique<srb::SrbServer>(fabric_, srb::ServerConfig{});
    server_->start();
  }

  Config config(int streams = 1, int io_threads = 0) {
    Config cfg;
    cfg.client_host = "node0";
    cfg.streams_per_node = streams;
    cfg.io_threads = io_threads;
    cfg.conn.tcp_window = 0;  // unshaped for functional tests
    return cfg;
  }

  Config cached_config(std::size_t cache_bytes, std::size_t block_bytes,
                       int readahead, std::size_t hwm, int streams = 1,
                       int io_threads = 0) {
    Config cfg = config(streams, io_threads);
    cfg.cache_bytes = cache_bytes;
    cfg.cache_block_bytes = block_bytes;
    cfg.readahead_blocks = readahead;
    cfg.writeback_hwm = hwm;
    return cfg;
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<srb::SrbServer> server_;
};

TEST_F(CachedFileTest, ReReadIsServedFromCache) {
  SrbfsDriver driver(fabric_, cached_config(1u << 20, 64 * 1024, 0, 0));
  mpiio::File f(driver, "/c/hot",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  remio::Rng rng(7);
  const Bytes data = rng.bytes(256 * 1024);
  ASSERT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());

  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  ASSERT_NE(sf, nullptr);
  Bytes back(data.size());
  for (int pass = 0; pass < 3; ++pass) {
    std::fill(back.begin(), back.end(), 0);
    ASSERT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
    EXPECT_EQ(back, data);
  }
  const auto snap = sf->stats().snapshot();
  // The write populated every block, so every read pass hits entirely.
  EXPECT_EQ(snap.cache_misses, 0u);
  EXPECT_GT(snap.cache_hits, 0u);
  f.close();
}

TEST_F(CachedFileTest, SequentialReadsTriggerUsefulPrefetch) {
  // The fixture's 2000x gives a speculative fill 25 us of wall time to land
  // between demand reads; 200x gives it 250 us, so a briefly descheduled
  // I/O thread still gets a fill in ahead of a demand read.
  simnet::ScopedTimeScale prefetch_scale(200.0);
  // Seed through an uncached handle so the reader's cache starts cold.
  SrbfsDriver seed(fabric_, config());
  remio::Rng rng(11);
  const std::size_t block = 32 * 1024;
  const Bytes data = rng.bytes(32 * block);
  {
    mpiio::File f(seed, "/c/seq",
                  mpiio::kModeWrite | mpiio::kModeCreate | mpiio::kModeTrunc);
    ASSERT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
    f.close();
  }

  SrbfsDriver driver(fabric_, cached_config(64u << 20, block, 4, 0, 1, 2));
  mpiio::File f(driver, "/c/seq", mpiio::kModeRead);
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  Bytes back(data.size());
  for (std::size_t off = 0; off < data.size(); off += block) {
    ASSERT_EQ(f.read_at(off, MutByteSpan(back.data() + off, block)), block);
    // Give speculative fills headroom to land ahead of the next demand read.
    simnet::sleep_sim(0.05);
  }
  EXPECT_EQ(Bytes(back.begin(), back.end()), data);
  const auto snap = sf->stats().snapshot();
  EXPECT_GT(snap.prefetch_issued, 0u);
  EXPECT_GT(snap.prefetch_useful, 0u);
  f.close();
}

TEST_F(CachedFileTest, WriteBehindCoalescesSmallWrites) {
  const std::size_t block = 64 * 1024;
  SrbfsDriver driver(fabric_, cached_config(4u << 20, block, 0, 1u << 20));
  mpiio::File f(driver, "/c/wb",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());

  // 256 sequential 1 KB writes stay under the 1 MB high-water mark.
  remio::Rng rng(13);
  const Bytes data = rng.bytes(256 * 1024);
  for (std::size_t off = 0; off < data.size(); off += 1024)
    ASSERT_EQ(f.write_at(off, ByteSpan(data.data() + off, 1024)), 1024u);

  const auto before = sf->stats().snapshot();
  EXPECT_EQ(before.writeback_flushes, 0u);  // nothing reached the wire yet
  EXPECT_GT(before.writeback_coalesced, 200u);
  EXPECT_EQ(f.size(), data.size());  // logical size includes dirty bytes

  f.flush();
  const auto after = sf->stats().snapshot();
  EXPECT_GE(after.writeback_flushes, 1u);
  EXPECT_LE(after.writeback_flushes, 2u);  // one contiguous run (+ slack)

  // Broker now has the bytes: verify through a second, uncached handle.
  SrbfsDriver plain(fabric_, config());
  mpiio::File g(plain, "/c/wb", mpiio::kModeRead);
  Bytes back(data.size());
  ASSERT_EQ(g.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, data);
  g.close();
  f.close();
}

TEST_F(CachedFileTest, HighWaterMarkFlushesWithoutExplicitFlush) {
  const std::size_t block = 16 * 1024;
  SrbfsDriver driver(fabric_, cached_config(2u << 20, block, 0, 64 * 1024));
  mpiio::File f(driver, "/c/hwm",
                mpiio::kModeWrite | mpiio::kModeCreate | mpiio::kModeTrunc);
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  const Bytes chunk(8 * 1024, 'x');
  for (int i = 0; i < 32; ++i)  // 256 KB total, hwm = 64 KB
    ASSERT_EQ(f.write_at(static_cast<std::uint64_t>(i) * chunk.size(),
                         ByteSpan(chunk.data(), chunk.size())),
              chunk.size());
  EXPECT_GE(sf->stats().snapshot().writeback_flushes, 3u);
  f.close();
}

TEST_F(CachedFileTest, GenerationBumpInvalidatesOtherHandle) {
  const Bytes v1(64 * 1024, 'a');
  const Bytes v2(64 * 1024, 'b');

  SrbfsDriver driver_a(fabric_, cached_config(1u << 20, 16 * 1024, 0, 0));
  SrbfsDriver driver_b(fabric_, cached_config(1u << 20, 16 * 1024, 0, 0));
  mpiio::File a(driver_a, "/c/shared",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  ASSERT_EQ(a.write_at(0, ByteSpan(v1.data(), v1.size())), v1.size());
  a.flush();  // publishes generation 1

  mpiio::File b(driver_b, "/c/shared", mpiio::kModeRead);
  Bytes back(v1.size());
  ASSERT_EQ(b.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, v1);  // b now caches v1

  ASSERT_EQ(a.write_at(0, ByteSpan(v2.data(), v2.size())), v2.size());
  a.flush();  // bumps the generation again

  // b's next size() observes the foreign generation and drops its blocks.
  EXPECT_EQ(b.size(), v2.size());
  ASSERT_EQ(b.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, v2);

  auto* sb = dynamic_cast<SemplarFile*>(&b.handle());
  EXPECT_GT(sb->stats().snapshot().cache_misses, 0u);  // re-fetched after drop
  b.close();
  a.close();
}

TEST_F(CachedFileTest, OwnFlushDoesNotSelfInvalidate) {
  SrbfsDriver driver(fabric_, cached_config(1u << 20, 16 * 1024, 0, 0));
  mpiio::File f(driver, "/c/self",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  const Bytes data(64 * 1024, 'q');
  ASSERT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  f.flush();
  EXPECT_EQ(f.size(), data.size());  // generation check: our own tag
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  const auto snap_before = sf->stats().snapshot();
  Bytes back(data.size());
  ASSERT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  const auto snap_after = sf->stats().snapshot();
  EXPECT_EQ(snap_after.cache_misses, snap_before.cache_misses);  // still hot
  f.close();
}

TEST_F(CachedFileTest, EvictionUnderConcurrentPinsStress) {
  // Capacity of 4 blocks, far more blocks touched, 4 I/O threads issuing
  // async cached reads concurrently: eviction constantly runs against
  // pinned/filling blocks and must neither deadlock nor corrupt data.
  const std::size_t block = 8 * 1024;
  SrbfsDriver driver(fabric_, cached_config(4 * block, block, 0, 0, 2, 4));
  mpiio::File f(driver, "/c/stress",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  remio::Rng rng(17);
  const Bytes data = rng.bytes(64 * block);
  ASSERT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());

  remio::Rng pick(18);
  std::vector<Bytes> bufs;
  std::vector<mpiio::IoRequest> reqs;
  std::vector<std::uint64_t> offs;
  bufs.reserve(64);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t off =
        (pick.next() % (data.size() - 2 * block)) & ~std::uint64_t{7};
    const std::size_t len = block + static_cast<std::size_t>(pick.next() % block);
    bufs.emplace_back(len);
    offs.push_back(off);
    reqs.push_back(f.iread_at(off, MutByteSpan(bufs.back().data(), len)));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::size_t n = reqs[i].wait();
    ASSERT_EQ(n, bufs[i].size());
    EXPECT_TRUE(std::equal(bufs[i].begin(), bufs[i].end(),
                           data.begin() + static_cast<std::ptrdiff_t>(offs[i])))
        << "async read " << i << " at " << offs[i];
  }
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  EXPECT_LE(sf->cache()->resident_blocks(), 16u);  // stayed near capacity
  f.close();
}

TEST_F(CachedFileTest, RandomizedMixedOpsMatchUncachedModel) {
  // Property test: a cached file driven with random reads, writes (sync and
  // async), flushes and size queries behaves byte-for-byte like a plain
  // in-memory file. Small cache forces eviction; write-behind + read-ahead
  // are both on; two streams and two I/O threads exercise concurrency.
  const std::size_t block = 4 * 1024;
  const std::size_t file_span = 96 * block;
  SrbfsDriver driver(fabric_,
                     cached_config(8 * block, block, 2, 16 * 1024, 2, 2));
  mpiio::File f(driver, "/c/prop",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);

  remio::Rng rng(23);
  Bytes model;  // logical file contents; reads past the end are short
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t what = rng.next() % 100;
    const std::uint64_t off = rng.next() % file_span;
    const std::size_t len =
        1 + static_cast<std::size_t>(rng.next() % (3 * block));
    if (what < 40) {  // write
      const Bytes data = rng.bytes(len);
      if (off + len > model.size()) model.resize(off + len, 0);
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(off));
      if (what < 10) {
        ASSERT_EQ(f.iwrite_at(off, ByteSpan(data.data(), data.size())).wait(),
                  data.size());
      } else {
        ASSERT_EQ(f.write_at(off, ByteSpan(data.data(), data.size())), data.size());
      }
    } else if (what < 85) {  // read and compare against the model
      Bytes got(len, static_cast<char>(0xee));
      const std::size_t n = what < 55
                                ? f.iread_at(off, MutByteSpan(got.data(), len)).wait()
                                : f.read_at(off, MutByteSpan(got.data(), len));
      const std::size_t expect =
          off >= model.size()
              ? 0
              : std::min(len, static_cast<std::size_t>(model.size() - off));
      ASSERT_EQ(n, expect) << "read at " << off << " len " << len;
      EXPECT_TRUE(std::equal(got.begin(),
                             got.begin() + static_cast<std::ptrdiff_t>(n),
                             model.begin() + static_cast<std::ptrdiff_t>(off)))
          << "step " << step;
    } else if (what < 95) {  // size
      ASSERT_EQ(f.size(), model.size());
    } else {
      f.flush();
    }
  }
  f.flush();

  // Everything must have reached the broker: verify with an uncached handle.
  SrbfsDriver plain(fabric_, config());
  mpiio::File g(plain, "/c/prop", mpiio::kModeRead);
  ASSERT_EQ(g.size(), model.size());
  Bytes final(model.size());
  ASSERT_EQ(g.read_at(0, MutByteSpan(final.data(), final.size())), final.size());
  EXPECT_EQ(final, model);
  g.close();
  f.close();
}

TEST_F(CachedFileTest, GapWritesReadBackAsZeros) {
  SrbfsDriver driver(fabric_, cached_config(1u << 20, 16 * 1024, 0, 32 * 1024));
  mpiio::File f(driver, "/c/gap",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  const Bytes tail(100, 't');
  const std::uint64_t far = 70 * 1024;  // several blocks past EOF
  ASSERT_EQ(f.write_at(far, ByteSpan(tail.data(), tail.size())), tail.size());
  EXPECT_EQ(f.size(), far + tail.size());

  Bytes hole(1024);
  ASSERT_EQ(f.read_at(10 * 1024, MutByteSpan(hole.data(), hole.size())),
            hole.size());
  EXPECT_TRUE(std::all_of(hole.begin(), hole.end(), [](char c) { return c == 0; }));
  f.flush();

  SrbfsDriver plain(fabric_, config());
  mpiio::File g(plain, "/c/gap", mpiio::kModeRead);
  EXPECT_EQ(g.size(), far + tail.size());
  Bytes back(tail.size());
  ASSERT_EQ(g.read_at(far, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, tail);
  g.close();
  f.close();
}

// --- Cache-resident integrity (client-memory rot) ---------------------------

TEST_F(CachedFileTest, ResidentRotIsCaughtByVerifyResident) {
  // Fill four blocks from the broker (fills compute CRCs), then silently
  // flip one resident byte: verify_resident must find exactly that block.
  {
    SrbfsDriver seed_driver(fabric_, config());
    mpiio::File w(seed_driver, "/c/rot",
                  mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
    const Bytes data = remio::Rng(41).bytes(256 * 1024);
    ASSERT_EQ(w.write_at(0, ByteSpan(data.data(), data.size())), data.size());
    w.close();
  }
  SrbfsDriver driver(fabric_, cached_config(1u << 20, 64 * 1024, 0, 0));
  mpiio::File f(driver, "/c/rot", mpiio::kModeRead);
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  ASSERT_NE(sf, nullptr);
  Bytes back(256 * 1024);
  ASSERT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  ASSERT_EQ(sf->cache()->resident_blocks(), 4u);

  EXPECT_EQ(sf->cache()->verify_resident(), 0u);  // clean scrub
  const auto clean = sf->stats().snapshot();
  EXPECT_EQ(clean.cache_integrity_verified, 4u);
  EXPECT_EQ(clean.cache_integrity_failures, 0u);

  sf->cache()->debug_flip_byte(70000);  // inside block 1
  EXPECT_EQ(sf->cache()->verify_resident(), 1u);
  const auto snap = sf->stats().snapshot();
  EXPECT_EQ(snap.cache_integrity_verified, 8u);
  EXPECT_EQ(snap.cache_integrity_failures, 1u);
  f.close();
}

TEST_F(CachedFileTest, CleanEvictionRunsAFinalSumCheck) {
  // Last-chance detection: a clean block leaving the cache is checked, so
  // rot is noticed even if nobody ever called verify_resident.
  {
    SrbfsDriver seed_driver(fabric_, config());
    mpiio::File w(seed_driver, "/c/evict-rot",
                  mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
    const Bytes data = remio::Rng(43).bytes(192 * 1024);
    ASSERT_EQ(w.write_at(0, ByteSpan(data.data(), data.size())), data.size());
    w.close();
  }
  // Two-block capacity: reading a third block evicts the LRU (block 0).
  SrbfsDriver driver(fabric_, cached_config(128 * 1024, 64 * 1024, 0, 0));
  mpiio::File f(driver, "/c/evict-rot", mpiio::kModeRead);
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  ASSERT_NE(sf, nullptr);
  Bytes buf(64 * 1024);
  ASSERT_EQ(f.read_at(0, MutByteSpan(buf.data(), buf.size())), buf.size());
  ASSERT_EQ(f.read_at(64 * 1024, MutByteSpan(buf.data(), buf.size())),
            buf.size());
  sf->cache()->debug_flip_byte(1234);  // rot block 0 while it is resident
  ASSERT_EQ(f.read_at(128 * 1024, MutByteSpan(buf.data(), buf.size())),
            buf.size());  // forces the eviction of block 0
  const auto snap = sf->stats().snapshot();
  EXPECT_GE(snap.cache_integrity_failures, 1u);
  f.close();
}

TEST_F(CachedFileTest, LocalWritesStaleTheSumWithoutFalsePositives) {
  // A write through the cache makes the block's CRC stale (dirty data is
  // covered by wire + at-rest checksums once flushed); the staled block is
  // skipped by scrubs — never misreported — and serves correct bytes.
  SrbfsDriver driver(fabric_, cached_config(1u << 20, 64 * 1024, 0, 0));
  mpiio::File f(driver, "/c/stale",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  ASSERT_NE(sf, nullptr);
  const Bytes data = remio::Rng(47).bytes(64 * 1024);
  ASSERT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  f.flush();
  // Fresh fill (drop + re-read) so the block has a live CRC...
  sf->cache()->invalidate();
  Bytes back(data.size());
  ASSERT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(sf->cache()->verify_resident(), 0u);
  // ...then overwrite part of it: the sum goes stale, scrubs skip it.
  const Bytes patch(100, 'z');
  ASSERT_EQ(f.write_at(5000, ByteSpan(patch.data(), patch.size())),
            patch.size());
  EXPECT_EQ(sf->cache()->verify_resident(), 0u);
  const auto snap = sf->stats().snapshot();
  EXPECT_EQ(snap.cache_integrity_failures, 0u);
  ASSERT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  Bytes expect = data;
  std::copy(patch.begin(), patch.end(), expect.begin() + 5000);
  EXPECT_EQ(back, expect);
  f.close();
}

TEST_F(CachedFileTest, CacheVerifyCanBeDisabled) {
  {
    SrbfsDriver seed_driver(fabric_, config());
    mpiio::File w(seed_driver, "/c/noverify",
                  mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
    const Bytes data(128 * 1024, 'n');
    ASSERT_EQ(w.write_at(0, ByteSpan(data.data(), data.size())), data.size());
    w.close();
  }
  Config cfg = cached_config(1u << 20, 64 * 1024, 0, 0);
  cfg.integrity.cache_verify = false;
  SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/c/noverify", mpiio::kModeRead);
  auto* sf = dynamic_cast<SemplarFile*>(&f.handle());
  ASSERT_NE(sf, nullptr);
  Bytes back(128 * 1024);
  ASSERT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  sf->cache()->debug_flip_byte(10);  // nobody is looking
  EXPECT_EQ(sf->cache()->verify_resident(), 0u);
  const auto snap = sf->stats().snapshot();
  EXPECT_EQ(snap.cache_integrity_verified, 0u);
  EXPECT_EQ(snap.cache_integrity_failures, 0u);
  f.close();
}

TEST_F(CachedFileTest, DefaultConfigBypassesCacheEntirely) {
  SrbfsDriver driver(fabric_, config());
  auto handle = driver.open("/c/plain", mpiio::kModeWrite | mpiio::kModeCreate);
  auto* sf = dynamic_cast<SemplarFile*>(handle.get());
  ASSERT_NE(sf, nullptr);
  EXPECT_FALSE(sf->cached());
  const Bytes data(4096, 'p');
  sf->write_at(0, ByteSpan(data.data(), data.size()));
  const auto snap = sf->stats().snapshot();
  EXPECT_EQ(snap.cache_hits + snap.cache_misses, 0u);
  handle.reset();
}

}  // namespace
}  // namespace remio::semplar
