// Redundant-read tests (§9 future work, implemented): correctness with 1..4
// streams, short reads at EOF, all-streams-failed error propagation, the
// data-integrity invariant that losers never touch the caller's buffer, and
// coherence with the block cache's unflushed writes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/semplar.hpp"
#include "simnet/timescale.hpp"
#include "srb/server.hpp"

namespace remio::semplar {
namespace {

class RedundantReadTest : public ::testing::Test {
 protected:
  RedundantReadTest() : scale_(2000.0) {
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

  std::unique_ptr<SemplarFile> open_file(int streams, const std::string& path,
                                         std::uint32_t mode,
                                         std::size_t cache_bytes = 0) {
    Config cfg;
    cfg.client_host = "node0";
    cfg.streams_per_node = streams;
    cfg.io_threads = streams;  // parallel racers need parallel threads
    cfg.conn.tcp_window = 0;
    cfg.cache_bytes = cache_bytes;
    if (cache_bytes > 0) cfg.writeback_hwm = cache_bytes / 4;
    return std::make_unique<SemplarFile>(fabric_, cfg, path, mode);
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<srb::SrbServer> server_;
};

TEST_F(RedundantReadTest, CorrectDataAcrossStreamCounts) {
  Rng rng(21);
  const Bytes data = rng.bytes(300 * 1024);
  {
    auto f = open_file(1, "/red/obj", mpiio::kModeWrite | mpiio::kModeCreate);
    f->write_at(0, ByteSpan(data.data(), data.size()));
  }
  for (int streams : {1, 2, 4}) {
    auto f = open_file(streams, "/red/obj", mpiio::kModeRead);
    Bytes out(data.size());
    mpiio::IoRequest req = f->iread_redundant(0, MutByteSpan(out.data(), out.size()));
    EXPECT_EQ(req.wait(), data.size()) << "streams=" << streams;
    EXPECT_EQ(out, data) << "streams=" << streams;
  }
}

TEST_F(RedundantReadTest, PartialRangeAndOffset) {
  const Bytes data = to_bytes("0123456789abcdef");
  {
    auto f = open_file(1, "/red/small", mpiio::kModeWrite | mpiio::kModeCreate);
    f->write_at(0, ByteSpan(data.data(), data.size()));
  }
  auto f = open_file(2, "/red/small", mpiio::kModeRead);
  Bytes out(6);
  EXPECT_EQ(f->iread_redundant(4, MutByteSpan(out.data(), out.size())).wait(), 6u);
  EXPECT_EQ(to_string(ByteSpan(out.data(), out.size())), "456789");
}

TEST_F(RedundantReadTest, ShortReadAtEof) {
  const Bytes data(1000, 'e');
  {
    auto f = open_file(1, "/red/eof", mpiio::kModeWrite | mpiio::kModeCreate);
    f->write_at(0, ByteSpan(data.data(), data.size()));
  }
  auto f = open_file(2, "/red/eof", mpiio::kModeRead);
  Bytes out(5000);
  EXPECT_EQ(f->iread_redundant(0, MutByteSpan(out.data(), out.size())).wait(), 1000u);
}

TEST_F(RedundantReadTest, RepeatedRacesStayConsistent) {
  Rng rng(22);
  const Bytes data = rng.bytes(64 * 1024);
  {
    auto f = open_file(1, "/red/race", mpiio::kModeWrite | mpiio::kModeCreate);
    f->write_at(0, ByteSpan(data.data(), data.size()));
  }
  auto f = open_file(3, "/red/race", mpiio::kModeRead);
  for (int i = 0; i < 10; ++i) {
    Bytes out(data.size());
    EXPECT_EQ(f->iread_redundant(0, MutByteSpan(out.data(), out.size())).wait(),
              data.size());
    EXPECT_EQ(out, data);
  }
}

TEST_F(RedundantReadTest, AllStreamsFailedSurfacesError) {
  auto f = open_file(2, "/red/gone", mpiio::kModeRead | mpiio::kModeWrite |
                                         mpiio::kModeCreate);
  server_->stop();
  Bytes out(128 * 1024);
  mpiio::IoRequest req = f->iread_redundant(0, MutByteSpan(out.data(), out.size()));
  EXPECT_ANY_THROW(req.wait());
}

TEST_F(RedundantReadTest, WireTrafficIsDuplicated) {
  const Bytes data(100 * 1024, 'd');
  {
    auto f = open_file(1, "/red/dup", mpiio::kModeWrite | mpiio::kModeCreate);
    f->write_at(0, ByteSpan(data.data(), data.size()));
  }
  auto f = open_file(2, "/red/dup", mpiio::kModeRead);
  Bytes out(data.size());
  f->iread_redundant(0, MutByteSpan(out.data(), out.size())).wait();
  f->flush();  // both racers done
  // Both streams carried the payload: total received >= 2x the data.
  EXPECT_GE(f->streams().wire_bytes_received(), 2 * data.size());
}

TEST_F(RedundantReadTest, CachedHandleSeesItsOwnUnflushedWrite) {
  // Write-behind keeps the second write in the cache; a redundant read must
  // return it, like read_at does, not the flushed pre-image on the broker.
  auto f = open_file(2, "/red/cached",
                     mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate,
                     /*cache_bytes=*/4u << 20);
  const Bytes old_data(64 * 1024, 'o');
  const Bytes new_data(64 * 1024, 'n');
  f->write_at(0, ByteSpan(old_data.data(), old_data.size()));
  f->flush();
  f->write_at(0, ByteSpan(new_data.data(), new_data.size()));

  Bytes plain(new_data.size());
  EXPECT_EQ(f->read_at(0, MutByteSpan(plain.data(), plain.size())),
            new_data.size());
  EXPECT_EQ(plain, new_data);
  Bytes raced(new_data.size());
  EXPECT_EQ(
      f->iread_redundant(0, MutByteSpan(raced.data(), raced.size())).wait(),
      new_data.size());
  EXPECT_EQ(raced, new_data);
}

}  // namespace
}  // namespace remio::semplar
