// Tests for the simulated network: time scaling, token-bucket conformance,
// shaped sockets, per-connection window caps, shared bottlenecks, fabric
// routing and connection lifecycle.
#include <gtest/gtest.h>

#include <array>
#include <future>
#include <latch>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "simnet/fabric.hpp"
#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"
#include "simnet/token_bucket.hpp"
#include "srb/protocol.hpp"

namespace remio::simnet {
namespace {

constexpr double kScale = 200.0;  // fast tests, ~coarse tolerances

TEST(TimeScale, SimClockAdvancesScaled) {
  ScopedTimeScale scale(kScale);
  const double t0 = sim_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double dt = sim_now() - t0;
  EXPECT_GT(dt, 0.02 * kScale * 0.5);
  EXPECT_LT(dt, 0.02 * kScale * 4.0);
}

TEST(TimeScale, SleepSimMatchesClock) {
  ScopedTimeScale scale(kScale);
  const double t0 = sim_now();
  sleep_sim(2.0);  // 2 sim seconds = 10 ms wall
  const double dt = sim_now() - t0;
  EXPECT_GE(dt, 2.0 * 0.8);
  EXPECT_LT(dt, 2.0 * 3.0);
}

TEST(TimeScale, ContinuityAcrossScaleChange) {
  const double before = sim_now();
  ScopedTimeScale scale(kScale);
  const double after = sim_now();
  EXPECT_GE(after, before - 1e-6);  // never jumps backwards
}

TEST(TokenBucket, UnlimitedNeverBlocks) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(0.0);
  const double t0 = sim_now();
  tb.acquire(100u << 20);
  EXPECT_LT(sim_now() - t0, 1.0);
}

TEST(TokenBucket, RateConformance) {
  ScopedTimeScale scale(50.0);  // ~40 ms wall for the measured phase
  TokenBucket tb(1e6, 64 * 1024);  // 1 MB/sim-s
  // Drain the initial burst, then measure steady state.
  tb.acquire(64 * 1024);
  const double t0 = sim_now();
  const std::size_t chunk = 64 * 1024;
  const int chunks = 32;  // 2 MiB total -> ~2.1 sim-s
  for (int i = 0; i < chunks; ++i) tb.acquire(chunk);
  const double dt = sim_now() - t0;
  const double expected = static_cast<double>(chunk) * chunks / 1e6;
  // Wide envelope: the expected wall time here is ~40 ms and host
  // scheduling stalls of a few ms are routine on a loaded single core.
  EXPECT_GT(dt, expected * 0.5);
  EXPECT_LT(dt, expected * 3.0);
}

TEST(TokenBucket, SharedFairlyBetweenTwoConsumers) {
  ScopedTimeScale scale(50.0);  // ~40 ms wall: jitter-immune
  TokenBucket tb(1e6, 64 * 1024);
  tb.acquire(64 * 1024);  // drain burst
  std::latch start(2);  // neither consumer gets a head start
  auto consume = [&](std::size_t total) {
    start.arrive_and_wait();
    const double t0 = sim_now();
    for (std::size_t got = 0; got < total; got += 32 * 1024) tb.acquire(32 * 1024);
    return sim_now() - t0;
  };
  auto f1 = std::async(std::launch::async, consume, std::size_t{1} << 20);
  auto f2 = std::async(std::launch::async, consume, std::size_t{1} << 20);
  const double d1 = f1.get();
  const double d2 = f2.get();
  // 2 MiB total through a 1 MB/s bucket: both finish near 2.1 sim-s.
  EXPECT_GT(std::min(d1, d2), 1.2);
  EXPECT_LT(std::max(d1, d2), 4.5);
}

TEST(TokenBucket, ConsumedAccounting) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e7);
  tb.acquire(1000);
  tb.acquire(234);
  EXPECT_EQ(tb.consumed(), 1234u);
}

TEST(TokenBucket, ContentionPenaltyNeedsTwoClasses) {
  ScopedTimeScale scale(50.0);  // ~10 ms wall per measured phase
  TokenBucket tb(1e6, 64 * 1024);
  tb.set_contention(0.25, /*window_sim=*/5.0);
  tb.acquire(64 * 1024, 1);  // drain burst; only class 1 active

  // Single class: full rate.
  double t0 = sim_now();
  for (int i = 0; i < 8; ++i) tb.acquire(64 * 1024, 1);
  const double single = sim_now() - t0;
  EXPECT_LT(single, 1.2);  // ~0.52 sim-s at 1 MB/s

  // Touch class 2: rate collapses to 0.25x while both are in-window.
  tb.acquire(1024, 2);
  t0 = sim_now();
  for (int i = 0; i < 8; ++i) tb.acquire(64 * 1024, 1);
  const double contended = sim_now() - t0;
  EXPECT_GT(contended, single * 2.0);
}

TEST(TokenBucket, ContentionExpiresAfterWindow) {
  ScopedTimeScale scale(50.0);  // ~10 ms wall for the measured phase
  TokenBucket tb(1e6, 64 * 1024);
  tb.set_contention(0.25, /*window_sim=*/0.2);
  tb.acquire(64 * 1024, 1);
  tb.acquire(1024, 2);   // second class appears...
  sleep_sim(1.0);        // ...and ages out of the window
  const double t0 = sim_now();
  for (int i = 0; i < 8; ++i) tb.acquire(64 * 1024, 1);
  EXPECT_LT(sim_now() - t0, 1.2);  // back to full rate
}

TEST(TokenBucket, OversizedAcquirePaysInstallments) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e6, 64 * 1024);  // burst far below the request
  tb.acquire(64 * 1024);           // drain initial credit
  const double t0 = sim_now();
  tb.acquire(512 * 1024);  // 8 bursts' worth
  const double dt = sim_now() - t0;
  // Must wait for ~the full amount at rate, not ride the burst.
  EXPECT_GT(dt, 0.25);
  EXPECT_LT(dt, 3.0);
}

TEST(TokenBucket, TryAcquirePartial) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e6, 64 * 1024);
  const std::uint64_t got = tb.try_acquire(1u << 20);
  EXPECT_LE(got, 64u * 1024u);
  EXPECT_GT(got, 0u);
}

// --- fabric + sockets ----------------------------------------------------------

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : scale_(kScale) {
    HostSpec client;
    client.name = "client";
    client.latency_to_core = 0.05;  // 100 ms one-way client<->server
    fabric_.add_host(client);

    HostSpec server;
    server.name = "server";
    server.latency_to_core = 0.05;
    fabric_.add_host(server);
  }

  ScopedTimeScale scale_;
  Fabric fabric_;
};

TEST_F(FabricTest, ConnectRefusedWithoutListener) {
  EXPECT_THROW(fabric_.connect("client", "server", 9), NetError);
}

TEST_F(FabricTest, ConnectUnknownHostThrows) {
  EXPECT_THROW(fabric_.connect("nope", "server", 9), NetError);
  EXPECT_THROW(fabric_.connect("client", "nope", 9), NetError);
}

TEST_F(FabricTest, LatencyIsSummed) {
  EXPECT_DOUBLE_EQ(fabric_.latency("client", "server"), 0.1);
}

TEST_F(FabricTest, ConnectCostsOneRtt) {
  // One RTT is 1 ms of wall time at kScale, so a single preemption of the
  // dialing thread would count as several RTTs; 10 ms keeps it clear.
  ScopedTimeScale rtt_scale(20.0);
  auto acceptor = fabric_.listen("server", 9);
  const double t0 = sim_now();
  auto sock = fabric_.connect("client", "server", 9);
  const double dt = sim_now() - t0;
  EXPECT_GE(dt, 0.2 * 0.8);  // RTT = 0.2 sim-s
  EXPECT_LT(dt, 0.2 * 3.0);
  acceptor->close();
}

TEST_F(FabricTest, DataRoundTrip) {
  auto acceptor = fabric_.listen("server", 9);
  auto echo = std::async(std::launch::async, [&] {
    auto server_sock = acceptor->accept();
    ASSERT_TRUE(server_sock.has_value());
    Bytes buf(5);
    ASSERT_TRUE((*server_sock)->recv_all(MutByteSpan(buf.data(), buf.size())));
    (*server_sock)->send_all(ByteSpan(buf.data(), buf.size()));
    (*server_sock)->close();
  });

  auto client = fabric_.connect("client", "server", 9);
  const Bytes msg = to_bytes("hello");
  client->send_all(ByteSpan(msg.data(), msg.size()));
  Bytes back(5);
  EXPECT_TRUE(client->recv_all(MutByteSpan(back.data(), back.size())));
  EXPECT_EQ(to_string(ByteSpan(back.data(), back.size())), "hello");
  echo.get();
}

TEST_F(FabricTest, OneWayLatencyAppliedToData) {
  auto acceptor = fabric_.listen("server", 9);
  auto client = fabric_.connect("client", "server", 9);
  auto server_sock = acceptor->accept();
  ASSERT_TRUE(server_sock.has_value());

  const double t0 = sim_now();
  const Bytes b = to_bytes("x");
  client->send_all(ByteSpan(b.data(), b.size()));
  Bytes got(1);
  ASSERT_TRUE((*server_sock)->recv_all(MutByteSpan(got.data(), got.size())));
  const double dt = sim_now() - t0;
  EXPECT_GE(dt, 0.1 * 0.7);  // one-way = 0.1 sim-s
  // Generous upper bound: at this scale 0.1 sim-s is only 0.5 ms of wall
  // time, so scheduling jitter can multiply it.
  EXPECT_LT(dt, 0.1 * 12.0);
}

TEST_F(FabricTest, WindowCapLimitsThroughput) {
  ScopedTimeScale fine_scale(100.0);  // ~32 ms wall transfer: jitter-immune
  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 64 * 1024;  // / RTT 0.2 -> 320 KB/sim-s
  auto client = fabric_.connect("client", "server", 9, opts);
  auto server_sock = acceptor->accept();
  ASSERT_TRUE(server_sock.has_value());

  auto reader = std::async(std::launch::async, [&] {
    Bytes sink(1 << 20);
    std::size_t total = 0;
    while (total < sink.size()) {
      const std::size_t n =
          (*server_sock)->recv_some(MutByteSpan(sink.data(), sink.size() - total));
      if (n == 0) break;
      total += n;
    }
    return total;
  });

  Bytes payload(1 << 20);  // 1 MiB at 320 KB/s ~ 3.2 sim-s
  const double t0 = sim_now();
  client->send_all(ByteSpan(payload.data(), payload.size()));
  client->shutdown_send();
  EXPECT_EQ(reader.get(), payload.size());
  const double dt = sim_now() - t0;
  EXPECT_GT(dt, 1.8);
  EXPECT_LT(dt, 9.0);
}

TEST_F(FabricTest, TwoStreamsDoubleWindowLimitedThroughput) {
  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 64 * 1024;

  auto run_transfer = [&](int n_streams) {
    std::vector<std::unique_ptr<Socket>> clients;
    std::vector<std::unique_ptr<Socket>> servers;
    for (int i = 0; i < n_streams; ++i) {
      clients.push_back(fabric_.connect("client", "server", 9, opts));
      auto s = acceptor->accept();
      servers.push_back(std::move(*s));
    }
    const std::size_t per_stream = (1u << 20) / static_cast<unsigned>(n_streams);
    std::vector<std::future<void>> senders;
    std::vector<std::future<std::size_t>> readers;
    const double t0 = sim_now();
    for (int i = 0; i < n_streams; ++i) {
      senders.push_back(std::async(std::launch::async, [&, i] {
        Bytes payload(per_stream);
        clients[static_cast<std::size_t>(i)]->send_all(
            ByteSpan(payload.data(), payload.size()));
        clients[static_cast<std::size_t>(i)]->shutdown_send();
      }));
      readers.push_back(std::async(std::launch::async, [&, i] {
        Bytes sink(per_stream);
        std::size_t total = 0;
        while (total < per_stream) {
          const std::size_t n = servers[static_cast<std::size_t>(i)]->recv_some(
              MutByteSpan(sink.data(), per_stream - total));
          if (n == 0) break;
          total += n;
        }
        return total;
      }));
    }
    for (auto& s : senders) s.get();
    std::size_t total = 0;
    for (auto& r : readers) total += r.get();
    EXPECT_EQ(total, 1u << 20);
    return sim_now() - t0;
  };

  // Finer scale for this comparison: transfers last ~150 ms of wall time,
  // well above scheduler jitter and the copying CPU time charged to the sim
  // clock at wall x scale.
  ScopedTimeScale fine_scale(20.0);
  const double one = run_transfer(1);
  const double two = run_transfer(2);
  // Same total bytes over twice the aggregate cap: ~2x faster.
  EXPECT_LT(two, one * 0.78);
  acceptor->close();
}

TEST_F(FabricTest, SharedPathResourceThrottlesBothStreams) {
  // Rebuild the client host with a shared 200 KB/s egress bucket.
  auto bottleneck = std::make_shared<TokenBucket>(200e3, 64 * 1024);
  HostSpec client;
  client.name = "client";
  client.latency_to_core = 0.05;
  client.egress = {bottleneck};
  fabric_.add_host(client);

  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 0;  // no per-stream cap: the shared bucket dominates

  auto c1 = fabric_.connect("client", "server", 9, opts);
  auto c2 = fabric_.connect("client", "server", 9, opts);
  auto s1 = acceptor->accept();
  auto s2 = acceptor->accept();

  auto pump = [&](Socket& tx, Socket& rx, std::size_t bytes) {
    auto reader = std::async(std::launch::async, [&rx, bytes] {
      Bytes sink(bytes);
      std::size_t total = 0;
      while (total < bytes) {
        const std::size_t n = rx.recv_some(MutByteSpan(sink.data(), bytes - total));
        if (n == 0) break;
        total += n;
      }
    });
    Bytes payload(bytes);
    tx.send_all(ByteSpan(payload.data(), payload.size()));
    tx.shutdown_send();
    reader.get();
  };

  const double t0 = sim_now();
  auto f1 = std::async(std::launch::async, [&] { pump(*c1, **s1, 256 * 1024); });
  auto f2 = std::async(std::launch::async, [&] { pump(*c2, **s2, 256 * 1024); });
  f1.get();
  f2.get();
  const double dt = sim_now() - t0;
  // 512 KiB through 200 KB/s shared: >= ~2 sim-s even with burst credit.
  EXPECT_GT(dt, 1.4);
}

TEST_F(FabricTest, EofAfterShutdown) {
  auto acceptor = fabric_.listen("server", 9);
  auto client = fabric_.connect("client", "server", 9);
  auto server_sock = acceptor->accept();
  const Bytes b = to_bytes("bye");
  client->send_all(ByteSpan(b.data(), b.size()));
  client->shutdown_send();
  Bytes got(3);
  EXPECT_TRUE((*server_sock)->recv_all(MutByteSpan(got.data(), got.size())));
  char extra;
  EXPECT_EQ((*server_sock)->recv_some(MutByteSpan(&extra, 1)), 0u);  // EOF
}

TEST_F(FabricTest, SendAfterPeerCloseThrows) {
  auto acceptor = fabric_.listen("server", 9);
  auto client = fabric_.connect("client", "server", 9);
  auto server_sock = acceptor->accept();
  (*server_sock)->close();
  const Bytes big(256 * 1024);
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) client->send_all(ByteSpan(big.data(), big.size()));
      },
      NetError);
}

TEST_F(FabricTest, AcceptorCloseUnblocksAccept) {
  auto acceptor = fabric_.listen("server", 9);
  auto waiter = std::async(std::launch::async, [&] { return acceptor->accept(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  acceptor->close();
  EXPECT_FALSE(waiter.get().has_value());
}

TEST_F(FabricTest, ManyConcurrentConnections) {
  auto acceptor = fabric_.listen("server", 9);
  constexpr int kConns = 16;
  auto server_side = std::async(std::launch::async, [&] {
    std::vector<std::unique_ptr<Socket>> socks;
    for (int i = 0; i < kConns; ++i) {
      auto s = acceptor->accept();
      if (!s) break;
      socks.push_back(std::move(*s));
    }
    std::size_t total = 0;
    for (auto& s : socks) {
      Bytes b(8);
      if (s->recv_all(MutByteSpan(b.data(), b.size()))) total += b.size();
    }
    return total;
  });

  std::vector<std::future<void>> dialers;
  for (int i = 0; i < kConns; ++i)
    dialers.push_back(std::async(std::launch::async, [&] {
      auto c = fabric_.connect("client", "server", 9);
      const Bytes b(8, 'z');
      c->send_all(ByteSpan(b.data(), b.size()));
      c->shutdown_send();
      // Keep the socket alive until the payload is consumed.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }));
  for (auto& d : dialers) d.get();
  EXPECT_EQ(server_side.get(), static_cast<std::size_t>(kConns) * 8);
}

TEST_F(FabricTest, DataIntegrityUnderShaping) {
  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 128 * 1024;
  opts.quantum = 8 * 1024;
  auto client = fabric_.connect("client", "server", 9, opts);
  auto server_sock = acceptor->accept();

  Rng rng(99);
  const Bytes payload = rng.bytes(300 * 1024 + 37);
  auto reader = std::async(std::launch::async, [&]() -> Bytes {
    Bytes sink(payload.size());
    std::size_t total = 0;
    while (total < sink.size()) {
      const std::size_t n = (*server_sock)
                                ->recv_some(MutByteSpan(sink.data() + total,
                                                        sink.size() - total));
      if (n == 0) break;
      total += n;
    }
    sink.resize(total);
    return sink;
  });
  client->send_all(ByteSpan(payload.data(), payload.size()));
  client->shutdown_send();
  EXPECT_EQ(reader.get(), payload);
}


// --- owned sends: quanta are slices of the sender's buffer -------------------

/// A directly connected pair whose shaping splits sends into 4 KiB quanta.
std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> sliced_pair() {
  ConnShaping shaping;
  shaping.quantum = 4096;
  shaping.window_bytes = 64 * 1024;
  return Socket::make_pair(shaping, "client", "server");
}

/// Positions of the bits in which `a` and `b` (equal sizes) differ.
std::vector<std::size_t> differing_bits(const Bytes& a, const Bytes& b) {
  std::vector<std::size_t> bits;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t k = 0; k < 8; ++k)
      if (((a[i] ^ b[i]) >> k) & 1) bits.push_back(i * 8 + k);
  return bits;
}

TEST(OwnedSend, ManyQuantaArriveByteExact) {
  ScopedTimeScale scale(kScale);
  auto pair = sliced_pair();
  Socket& client = *pair.first;
  Socket& server = *pair.second;
  // Several times the in-flight window: the sender blocks on the window
  // while earlier slices of its one buffer are still being drained.
  const Bytes payload = Rng(5).bytes(300 * 1024 + 17);
  auto reader = std::async(std::launch::async, [&]() -> Bytes {
    Bytes got(payload.size());
    EXPECT_TRUE(server.recv_all(MutByteSpan(got.data(), got.size())));
    return got;
  });
  Bytes owned = payload;
  client.send_all(std::move(owned));
  EXPECT_EQ(reader.get(), payload);
  EXPECT_EQ(client.bytes_sent(), payload.size());
}

TEST(OwnedSend, PipeBufferedReturnsToZeroAndReleasesTheBuffer) {
  ScopedTimeScale scale(kScale);
  detail::Pipe pipe(1 << 20);
  auto buf = std::make_shared<const Bytes>(Rng(6).bytes(10000));
  for (std::size_t off = 0; off < buf->size(); off += 4096)
    pipe.push(buf, off, std::min<std::size_t>(off + 4096, buf->size()), sim_now());
  EXPECT_EQ(pipe.buffered(), buf->size());
  Bytes got;
  while (got.size() < buf->size()) {
    const SharedSlice part = pipe.pop(3000);  // splits a 4096-byte slice
    ASSERT_FALSE(part.empty());
    EXPECT_EQ(part.buf, buf);  // a view of the pushed buffer, not a copy
    got.insert(got.end(), part.view().begin(), part.view().end());
    EXPECT_EQ(pipe.buffered(), buf->size() - got.size());
  }
  EXPECT_EQ(got, *buf);
  EXPECT_EQ(pipe.buffered(), 0u);
  EXPECT_EQ(buf.use_count(), 1);  // drained slices hold no reference
}

TEST(OwnedSend, InjectedCorruptionFlipsExactlyOneBitPastThePrefix) {
  ScopedTimeScale scale(kScale);
  auto [client, server] = sliced_pair();
  auto fault = std::make_shared<FaultInjector>();
  fault->set_corrupt_probability(1.0);
  client->set_fault(fault, "owned", /*corrupt_only=*/true);
  Rng rng(7);
  constexpr int kSends = 24;
  for (int i = 0; i < kSends; ++i) {
    const Bytes sent = rng.bytes(3 * 4096 + rng.below(4096));
    Bytes owned = sent;
    client->send_all(std::move(owned));
    Bytes got(sent.size());
    ASSERT_TRUE(server->recv_all(MutByteSpan(got.data(), got.size())));
    const auto bits = differing_bits(sent, got);
    ASSERT_EQ(bits.size(), 1u) << "send " << i;
    EXPECT_GE(bits[0], 32u) << "the 4-byte length prefix must survive";
  }
  EXPECT_EQ(fault->corruptions(), static_cast<std::uint64_t>(kSends));
}

TEST(OwnedSend, SpanSendNeverMutatesTheCallersBytes) {
  ScopedTimeScale scale(kScale);
  auto [client, server] = sliced_pair();
  auto fault = std::make_shared<FaultInjector>();
  fault->set_corrupt_probability(1.0);
  client->set_fault(fault, "span", /*corrupt_only=*/true);
  const Bytes pristine = Rng(8).bytes(5 * 4096 + 3);
  const Bytes caller = pristine;
  client->send_all(ByteSpan(caller.data(), caller.size()));
  Bytes got(caller.size());
  ASSERT_TRUE(server->recv_all(MutByteSpan(got.data(), got.size())));
  EXPECT_EQ(caller, pristine);                          // untouched
  EXPECT_EQ(differing_bits(pristine, got).size(), 1u);  // the copy was hit
}

// --- in-place receive: a frame arrives as a view of the sender's buffer ----

/// [len:u32][body]: the layout of one SRB frame.
Bytes length_framed(const Bytes& body) {
  Bytes frame;
  ByteWriter w(frame);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.raw(ByteSpan(body.data(), body.size()));
  return frame;
}

TEST(RecvInPlace, OneSendArrivesAsAViewOfTheSendersBuffer) {
  ScopedTimeScale scale(kScale);
  auto [client, server] = sliced_pair();
  const Bytes body = Rng(9).bytes(5 * 4096 + 11);  // six quanta
  Bytes frame = length_framed(body);
  const char* sent_at = frame.data();
  client->send_all(std::move(frame));
  const SharedSlice got = srb::recv_frame(*server);
  EXPECT_EQ(got.view().data(), sent_at + 4);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), got.view().begin(),
                         got.view().end()));
  EXPECT_EQ(server->bytes_received(), client->bytes_sent());
}

TEST(RecvInPlace, FrameSplitAcrossSendsIsReassembledByteExact) {
  ScopedTimeScale scale(kScale);
  auto [client, server] = sliced_pair();
  const Bytes body = Rng(10).bytes(3 * 4096 + 5);
  const Bytes frame = length_framed(body);
  const ByteSpan wire(frame.data(), frame.size());
  const std::size_t half = 4 + body.size() / 2;
  // Prefix and body apart; then body halves apart, the first half riding
  // with the prefix.
  for (const std::size_t cut : {std::size_t{4}, half}) {
    client->send_all(wire.first(cut));
    client->send_all(wire.subspan(cut));
    const SharedSlice got = srb::recv_frame(*server);
    EXPECT_TRUE(std::equal(body.begin(), body.end(), got.view().begin(),
                           got.view().end()))
        << "cut at " << cut;
  }
  // Every byte of the body in its own send.
  client->send_all(wire.first(4));
  for (const char c : body) client->send_all(ByteSpan(&c, 1));
  const SharedSlice got = srb::recv_frame(*server);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), got.view().begin(),
                         got.view().end()));
}

TEST(RecvInPlace, FrameLargerThanTheWindowFlowsThrough) {
  ScopedTimeScale scale(kScale);
  ConnShaping shaping;  // 512 KiB quanta, 4 MiB window
  auto pair = Socket::make_pair(shaping, "client", "server");
  Socket& client = *pair.first;
  const Bytes body = Rng(11).bytes((8u << 20) + 1);
  Bytes frame = length_framed(body);
  const char* sent_at = frame.data();
  auto sender = std::async(std::launch::async, [&client, &frame] {
    client.send_all(std::move(frame));
  });
  const SharedSlice got = srb::recv_frame(*pair.second);
  sender.get();
  EXPECT_EQ(got.view().data(), sent_at + 4);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), got.view().begin(),
                         got.view().end()));

  // The pipe gives window back slice by slice, so a receiver that keeps
  // every slice of one buffer never stalls its sender.
  detail::Pipe pipe(shaping.window_bytes);
  auto buf = std::make_shared<const Bytes>(body);
  auto pusher = std::async(std::launch::async, [&pipe, &buf, &shaping] {
    for (std::size_t off = 0; off < buf->size(); off += shaping.quantum)
      pipe.push(buf, off, std::min(off + shaping.quantum, buf->size()), sim_now());
  });
  std::vector<SharedSlice> held;
  std::size_t popped = 0;
  while (popped < buf->size()) {
    held.push_back(pipe.pop(buf->size() - popped));
    ASSERT_FALSE(held.back().empty());
    popped += held.back().size();
    EXPECT_LE(pipe.buffered(), shaping.window_bytes);
  }
  pusher.get();
  EXPECT_EQ(pipe.buffered(), 0u);
  EXPECT_EQ(held.front().begin, 0u);
  EXPECT_EQ(held.back().end, buf->size());
}

TEST(RecvInPlace, EofMidFrameThrows) {
  ScopedTimeScale scale(kScale);
  {
    auto [client, server] = sliced_pair();
    Bytes torn;
    ByteWriter w(torn);
    w.u32(1000);  // promises 1000 bytes, delivers 10
    w.raw(Rng(12).bytes(10));
    client->send_all(std::move(torn));
    client->shutdown_send();
    EXPECT_THROW(srb::recv_frame(*server), NetError);
  }
  {
    auto [client, server] = sliced_pair();
    const char half_prefix[2] = {8, 0};
    client->send_all(ByteSpan(half_prefix, 2));
    client->shutdown_send();
    EXPECT_THROW(srb::recv_frame(*server), NetError);
  }
  {
    auto [client, server] = sliced_pair();
    client->shutdown_send();
    EXPECT_TRUE(srb::recv_frame(*server).empty());  // clean EOF
  }
}

TEST(RecvInPlace, ViewOutlivesTheSendingSocket) {
  ScopedTimeScale scale(kScale);
  const Bytes body = Rng(13).bytes(4 * 4096 + 7);
  SharedSlice got;
  {
    auto [client, server] = sliced_pair();
    client->send_all(length_framed(body));
    got = srb::recv_frame(*server);
  }  // both ends destroyed; the slice alone owns the bytes now
  EXPECT_EQ(got.buf.use_count(), 1);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), got.view().begin(),
                         got.view().end()));
}

// --- gathered sends: one message from several buffers -----------------------

/// A pair with 4 KiB quanta whose client sends charge a stream cap and one
/// path bucket, both too fast to ever wait, so charges can be counted.
struct ChargedPair {
  std::shared_ptr<TokenBucket> path = std::make_shared<TokenBucket>(1e12, 1e12, "path");
  std::unique_ptr<Socket> client;
  std::unique_ptr<Socket> server;

  ChargedPair() {
    ConnShaping shaping;
    shaping.quantum = 4096;
    shaping.window_bytes = 64 * 1024;
    shaping.stream_rate = 1e12;
    shaping.stream_burst = 1e12;
    shaping.fwd_path = {path};
    std::tie(client, server) = Socket::make_pair(shaping, "client", "server");
  }

  /// {cap charges, cap bytes, path charges, path bytes, bytes sent}.
  std::array<std::uint64_t, 5> charges() const {
    return {client->stream_cap()->charges(), client->stream_cap()->consumed(),
            path->charges(), path->consumed(), client->bytes_sent()};
  }
};

std::array<std::uint64_t, 5> operator-(std::array<std::uint64_t, 5> a,
                                       const std::array<std::uint64_t, 5>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

/// `msg` as parts of two buffers: two adjacent slices of the first, an
/// empty part, and the whole second, cut off the 4 KiB quantum grid.
std::vector<SharedSlice> as_parts(const Bytes& msg, std::size_t cut) {
  const auto a = std::make_shared<const Bytes>(msg.begin(), msg.begin() + static_cast<std::ptrdiff_t>(cut));
  const auto b = std::make_shared<const Bytes>(msg.begin() + static_cast<std::ptrdiff_t>(cut), msg.end());
  return {{a, 0, 3}, {a, 3, cut}, {b, 0, 0}, {b, 0, b->size()}};
}

TEST(GatherSend, PartsChargeLikeOneBufferAndArriveAsViews) {
  ScopedTimeScale scale(kScale);
  ChargedPair pair;
  const Bytes msg = Rng(14).bytes(6 * 4096 + 123);

  auto before = pair.charges();
  pair.client->send_all(Bytes(msg));
  const auto one_part = pair.charges() - before;
  EXPECT_EQ(one_part[0], 7u);  // one charge per quantum
  EXPECT_EQ(one_part[2], 7u);
  EXPECT_EQ(one_part[4], msg.size());
  std::vector<SharedSlice> got = pair.server->recv_parts(msg.size());
  ASSERT_EQ(got.size(), 1u);  // the quanta of one buffer merge back
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), got[0].view().begin(), got[0].view().end()));

  const std::vector<SharedSlice> parts = as_parts(msg, 10000);
  before = pair.charges();
  pair.client->send_all(parts);
  EXPECT_EQ(pair.charges() - before, one_part);
  got = pair.server->recv_parts(msg.size());
  // Views of the sender's two buffers, adjacent slices merged, no copy.
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].buf, parts[0].buf);
  EXPECT_EQ(got[1].buf, parts[3].buf);
  const SharedSlice whole = gather(std::move(got));
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), whole.view().begin(), whole.view().end()));
  EXPECT_EQ(pair.server->bytes_received(), 2 * msg.size());
}

TEST(GatherSend, FlipLandsInAPrivateCopyOfOnePart) {
  ScopedTimeScale scale(kScale);
  auto [client, server] = sliced_pair();
  auto fault = std::make_shared<FaultInjector>();
  fault->set_corrupt_probability(1.0);
  client->set_fault(fault, "gather", /*corrupt_only=*/true);
  Rng rng(15);
  constexpr int kSends = 24;
  for (int i = 0; i < kSends; ++i) {
    const Bytes sent = rng.bytes(3 * 4096 + rng.below(4096));
    const std::vector<SharedSlice> parts = as_parts(sent, 1 + rng.below(sent.size() - 1));
    const Bytes a = *parts[0].buf;
    const Bytes b = *parts[3].buf;
    client->send_all(parts);
    Bytes got(sent.size());
    ASSERT_TRUE(server->recv_all(MutByteSpan(got.data(), got.size())));
    const auto bits = differing_bits(sent, got);
    ASSERT_EQ(bits.size(), 1u) << "send " << i;
    EXPECT_GE(bits[0], 32u) << "the 4-byte length prefix must survive";
    EXPECT_EQ(*parts[0].buf, a) << "send " << i;  // the shared buffers are untouched
    EXPECT_EQ(*parts[3].buf, b) << "send " << i;
  }
  EXPECT_EQ(fault->corruptions(), static_cast<std::uint64_t>(kSends));
}

}  // namespace
}  // namespace remio::simnet
