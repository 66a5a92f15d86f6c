// Adversarial wire-protocol tests: the broker must survive malformed,
// hostile and truncated frames from raw sockets — sessions terminate
// cleanly, the server stays up, and well-behaved clients keep working.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "simnet/timescale.hpp"
#include "srb/client.hpp"
#include "srb/server.hpp"
#include "wire_helpers.hpp"

namespace remio::srb {
namespace {

class ProtocolFuzzTest : public ::testing::Test {
 protected:
  ProtocolFuzzTest() : scale_(5000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec node;
    node.name = "evil";
    fabric_.add_host(node);
    server_ = std::make_unique<SrbServer>(fabric_, ServerConfig{});
    server_->start();
  }

  std::unique_ptr<simnet::Socket> raw_connect() {
    return fabric_.connect("evil", "orion", 5544);
  }

  /// The canary: a well-behaved client round trip must still succeed.
  void expect_server_alive() {
    SrbClient client(fabric_, "evil", "orion", 5544);
    const auto fd = client.open("/alive", kRead | kWrite | kCreate);
    const Bytes data = to_bytes("ping");
    EXPECT_EQ(client.pwrite(fd, ByteSpan(data.data(), data.size()), 0), 4u);
    client.close(fd);
    client.unlink("/alive");
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<SrbServer> server_;
};

TEST_F(ProtocolFuzzTest, ZeroLengthFrame) {
  auto sock = raw_connect();
  const char zeros[4] = {0, 0, 0, 0};  // len = 0 is illegal
  sock->send_all(ByteSpan(zeros, 4));
  char byte;
  EXPECT_EQ(sock->recv_some(MutByteSpan(&byte, 1)), 0u);  // session closed
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, OversizedLengthRejected) {
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(0xffffffffu);  // 4 GiB claim
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  char byte;
  EXPECT_EQ(sock->recv_some(MutByteSpan(&byte, 1)), 0u);
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, UnknownOpcode) {
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1);
  w.u8(0xee);  // no such op
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  // The server replies with a protocol error, then closes.
  Bytes reply(16);
  (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, TruncatedPayloads) {
  // Each op with an empty body: every handler must reject cleanly.
  for (const auto op : {Op::kObjOpen, Op::kObjClose, Op::kObjRead, Op::kObjWrite,
                        Op::kObjSeek, Op::kObjStat, Op::kObjUnlink, Op::kCollCreate,
                        Op::kCollList, Op::kSetAttr, Op::kGetAttr}) {
    auto sock = raw_connect();
    Bytes msg;
    ByteWriter w(msg);
    w.u32(1);
    w.u8(static_cast<std::uint8_t>(op));
    sock->send_all(ByteSpan(msg.data(), msg.size()));
    Bytes reply(64);
    (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  }
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, HostileStringLength) {
  // kObjOpen with a string length prefix far beyond the frame.
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1 + 4 + 2);
  w.u8(static_cast<std::uint8_t>(Op::kObjOpen));
  w.u32(0x7fffffff);  // claimed path length
  w.raw(to_bytes("ab"));
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  Bytes reply(64);
  (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, MidFrameDisconnect) {
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1000);  // promise 1000 bytes...
  w.u8(static_cast<std::uint8_t>(Op::kObjOpen));
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  sock->close();  // ...deliver 1 and hang up
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, RandomGarbageStream) {
  Rng rng(1234);
  for (int round = 0; round < 20; ++round) {
    auto sock = raw_connect();
    const Bytes junk = rng.bytes(8 + rng.below(256));
    try {
      sock->send_all(ByteSpan(junk.data(), junk.size()));
      sock->shutdown_send();
      Bytes reply(64);
      while (sock->recv_some(MutByteSpan(reply.data(), reply.size())) > 0) {
      }
    } catch (const simnet::NetError&) {
      // Server may slam the connection mid-send; that's a valid outcome.
    }
  }
  expect_server_alive();
}

// ---------------------------------------------------------------------------
// List-I/O verb fuzz (kObjReadList / kObjWriteList). Every frame below is
// *fully framed* — the length prefix is honoured — so any inconsistency
// inside it is semantic: the server must answer kInvalid and KEEP the
// session (asserted by issuing a well-formed op on the same socket after).
// ---------------------------------------------------------------------------

class ListVerbFuzzTest : public ProtocolFuzzTest {
 protected:
  /// One framed request/response round trip on a raw socket.
  Status roundtrip(simnet::Socket& sock, Op op, const Bytes& body,
                   Bytes* resp_body = nullptr) {
    send_frame(sock, static_cast<std::uint8_t>(op),
               ByteSpan(body.data(), body.size()));
    const simnet::SharedSlice frame = recv_frame(sock);
    EXPECT_FALSE(frame.empty()) << "session dropped";
    ByteReader r(frame.view());
    const auto st = static_cast<Status>(r.i32());
    if (resp_body != nullptr) {
      const ByteSpan rest = r.rest();
      resp_body->assign(rest.begin(), rest.end());
    }
    return st;
  }

  /// Opens an object through raw frames; returns the session-local fd.
  std::int32_t raw_open(simnet::Socket& sock, const std::string& path) {
    Bytes body;
    ByteWriter w(body);
    w.str(path);
    w.u32(kRead | kWrite | kCreate);
    Bytes resp;
    EXPECT_EQ(roundtrip(sock, Op::kObjOpen, body, &resp), Status::kOk);
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    return r.i32();
  }

  /// The same-session canary: a valid 1-extent write list must succeed.
  void expect_session_alive(simnet::Socket& sock, std::int32_t fd) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.u32(1);
    w.u64(0);
    w.u32(4);
    w.raw(to_bytes("ping"));
    EXPECT_EQ(roundtrip(sock, Op::kObjWriteList, body), Status::kOk);
  }

  /// Encodes fd + count + the given (offset,len) pairs.
  static Bytes list_header(std::int32_t fd, std::uint32_t count,
                           const std::vector<std::pair<std::uint64_t,
                                                       std::uint32_t>>& ext) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.u32(count);
    for (const auto& [off, len] : ext) {
      w.u64(off);
      w.u32(len);
    }
    return body;
  }
};

TEST_F(ListVerbFuzzTest, TruncatedExtentArrayRejectedKeepsSession) {
  // Claims 16 extents, delivers 2 — a complete frame with a short array.
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/trunc");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    const Bytes body = list_header(fd, 16, {{0, 64}, {64, 64}});
    EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, CountAboveCapRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/cap");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    for (const std::uint32_t count :
         {kMaxListExtents + 1, kMaxListExtents + 4096, 0xffffffffu}) {
      const Bytes body = list_header(fd, count, {{0, 8}});
      EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid) << count;
    }
    // count == 0 is equally invalid.
    EXPECT_EQ(roundtrip(*sock, op, list_header(fd, 0, {})), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, UnsortedExtentsRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/unsorted");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    const Bytes body = list_header(fd, 2, {{4096, 64}, {0, 64}});
    EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, OverlappingExtentsRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/overlap");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    // Sorted by offset but [0,100) overlaps [50,150).
    const Bytes body = list_header(fd, 2, {{0, 100}, {50, 100}});
    EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, ZeroLengthExtentRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/zero");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    for (const auto& ext :
         std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>{
             {{0, 0}}, {{0, 64}, {64, 0}, {128, 64}}}) {
      const Bytes body =
          list_header(fd, static_cast<std::uint32_t>(ext.size()), ext);
      EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
    }
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, WriteListPayloadMismatchRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/mismatch");
  // Extents promise 128 bytes; deliver 5 (short) and 200 (long).
  for (const std::size_t payload : {std::size_t{5}, std::size_t{200}}) {
    Bytes body = list_header(fd, 2, {{0, 64}, {64, 64}});
    ByteWriter w(body);
    const Bytes junk(payload, 'x');
    w.raw(ByteSpan(junk.data(), junk.size()));
    EXPECT_EQ(roundtrip(*sock, Op::kObjWriteList, body), Status::kInvalid)
        << payload;
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, ReadListSumAboveReplyCapRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/replycap");
  // 33 extents of 2 MiB = 66 MiB > kMaxMessage / 2.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ext;
  for (std::uint64_t i = 0; i < 33; ++i) ext.push_back({i << 21, 2u << 20});
  const Bytes body = list_header(fd, 33, ext);
  EXPECT_EQ(roundtrip(*sock, Op::kObjReadList, body), Status::kInvalid);
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, ExtentEndPastU64RejectedKeepsSession) {
  // offset + len wraps to 8: such an extent passes an order check on its
  // wrapped end() and would address bytes before the object's buffer.
  constexpr std::uint64_t kWraps =
      std::numeric_limits<std::uint64_t>::max() - 7;
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/wrap");
  const Bytes image = Rng(7).bytes(4096);
  Bytes seed = list_header(fd, 1, {{0, 4096}});
  ByteWriter(seed).raw(ByteSpan(image.data(), image.size()));
  ASSERT_EQ(roundtrip(*sock, Op::kObjWriteList, seed), Status::kOk);

  for (const auto& ext :
       std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>{
           {{kWraps, 16}}, {{0, 16}, {kWraps, 16}}}) {
    const auto count = static_cast<std::uint32_t>(ext.size());
    Bytes write = list_header(fd, count, ext);
    const Bytes junk(16 * ext.size(), 'x');
    ByteWriter(write).raw(ByteSpan(junk.data(), junk.size()));
    EXPECT_EQ(roundtrip(*sock, Op::kObjWriteList, write), Status::kInvalid);
    EXPECT_EQ(roundtrip(*sock, Op::kObjReadList, list_header(fd, count, ext)),
              Status::kInvalid);
  }

  // The object's bytes are unchanged, read back on the same session.
  Bytes resp;
  ASSERT_EQ(roundtrip(*sock, Op::kObjReadList, list_header(fd, 1, {{0, 4096}}),
                      &resp),
            Status::kOk);
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u32(), 4096u);
  const ByteSpan back = r.rest();
  EXPECT_EQ(Bytes(back.begin(), back.end()), image);
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, RandomizedListFrameFuzzNeverKillsSession) {
  // Random counts / extents / payload sizes, always fully framed: whatever
  // the semantic verdict, the session must answer every frame and survive.
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/random");
  Rng rng(20260807);
  for (int i = 0; i < 200; ++i) {
    const auto op = rng.chance(0.5) ? Op::kObjReadList : Op::kObjWriteList;
    const std::uint32_t count = static_cast<std::uint32_t>(rng.below(12));
    const std::uint32_t encoded =
        rng.chance(0.2) ? count + static_cast<std::uint32_t>(rng.below(5000))
                        : count;
    Bytes body;
    ByteWriter w(body);
    w.i32(rng.chance(0.9) ? fd : static_cast<std::int32_t>(rng.below(100)));
    w.u32(encoded);
    std::uint64_t off = rng.below(1 << 20);
    for (std::uint32_t e = 0; e < count; ++e) {
      // Mostly sorted-disjoint, sometimes hostile.
      if (rng.chance(0.15)) off = rng.below(1 << 20);
      const std::uint32_t len = static_cast<std::uint32_t>(rng.below(512));
      w.u64(off);
      w.u32(len);
      off += len;
    }
    if (op == Op::kObjWriteList) {
      const Bytes junk = rng.bytes(rng.below(4096));
      w.raw(ByteSpan(junk.data(), junk.size()));
    }
    (void)roundtrip(*sock, op, body);  // any status; session must answer
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

// ---------------------------------------------------------------------------
// Structure-aware corruption fuzz: single-bit flips aimed at each region of
// a checksummed frame — opcode, payload body, CRC trailer, and the length
// prefix. The contract under test: NO flipped frame is ever dispatched
// (wrong data must never land in the store); in-phase flips (anything the
// trailer covers) are answered kChecksumMismatch with the session intact,
// and length-prefix flips — which destroy framing itself — cost at most the
// session, never the server and never the data.
// ---------------------------------------------------------------------------

class CorruptionFuzzTest : public ProtocolFuzzTest {
 protected:
  /// kConnect with the checksum feature flag over raw frames; returns true
  /// when the server granted it (it must, by default).
  bool raw_connect_crc(simnet::Socket& sock) {
    Bytes body;
    ByteWriter w(body);
    w.str("corruption-fuzz");
    w.str("");  // no tenant
    w.u32(kFeatureWireChecksums);
    send_frame(sock, static_cast<std::uint8_t>(Op::kConnect),
               ByteSpan(body.data(), body.size()));
    const simnet::SharedSlice frame = recv_frame(sock);
    if (frame.empty()) return false;
    ByteReader r(frame.view());
    if (static_cast<Status>(r.i32()) != Status::kOk) return false;
    (void)r.str();  // banner
    return r.remaining() >= 4 && (r.u32() & kFeatureWireChecksums) != 0;
  }

  /// Builds the exact bytes a checksummed request occupies on the wire.
  static Bytes build_crc_frame(Op op, const Bytes& body) {
    Bytes frame;
    ByteWriter w(frame);
    w.u32(static_cast<std::uint32_t>(1 + body.size() + 4));
    w.u8(static_cast<std::uint8_t>(op));
    w.raw(ByteSpan(body.data(), body.size()));
    w.u32(crc32c(ByteSpan(frame.data() + 4, frame.size() - 4)));
    return frame;
  }

  /// Sends a pristine checksummed request, verifies the response trailer,
  /// returns the status.
  Status crc_roundtrip(simnet::Socket& sock, Op op, const Bytes& body,
                       Bytes* resp_body = nullptr) {
    send_frame_crc(sock, static_cast<std::uint8_t>(op),
                   ByteSpan(body.data(), body.size()));
    const simnet::SharedSlice msg = recv_frame(sock);
    EXPECT_FALSE(msg.empty()) << "session dropped";
    ByteSpan frame = msg.view();
    EXPECT_TRUE(strip_frame_crc(frame)) << "response trailer corrupt";
    ByteReader r(frame);
    const auto st = static_cast<Status>(r.i32());
    if (resp_body != nullptr) {
      const ByteSpan rest = r.rest();
      resp_body->assign(rest.begin(), rest.end());
    }
    return st;
  }

  std::int32_t crc_open(simnet::Socket& sock, const std::string& path) {
    Bytes body;
    ByteWriter w(body);
    w.str(path);
    w.u32(kRead | kWrite | kCreate);
    Bytes resp;
    EXPECT_EQ(crc_roundtrip(sock, Op::kObjOpen, body, &resp), Status::kOk);
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    return r.i32();
  }

  /// A kObjWrite request body: fd, offset, payload.
  static Bytes write_body(std::int32_t fd, std::uint64_t offset,
                          const Bytes& payload) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.i64(static_cast<std::int64_t>(offset));
    w.blob(ByteSpan(payload.data(), payload.size()));
    return body;
  }
};

TEST_F(CorruptionFuzzTest, EveryInPhaseBitFlipDetectedInRhythm) {
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/flip");

  // Baseline content the mutations must never be able to change.
  const Bytes baseline(512, 'B');
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjWrite, write_body(fd, 0, baseline)),
            Status::kOk);

  const Bytes evil(512, 'E');
  const Bytes pristine = build_crc_frame(Op::kObjWrite, write_body(fd, 0, evil));
  Rng rng(0xf11bf11bu);
  int header_flips = 0, payload_flips = 0, trailer_flips = 0;
  for (int round = 0; round < 300; ++round) {
    // Aim deliberately: opcode byte, CRC trailer, or anywhere in the body.
    std::size_t byte;
    const int region = static_cast<int>(rng.below(3));
    if (region == 0) {
      byte = 4;  // opcode
      ++header_flips;
    } else if (region == 1) {
      byte = pristine.size() - 4 + rng.below(4);  // trailer
      ++trailer_flips;
    } else {
      byte = 5 + rng.below(pristine.size() - 5 - 4);  // body
      ++payload_flips;
    }
    Bytes mutated = pristine;
    mutated[byte] ^= static_cast<char>(1u << rng.below(8));

    sock->send_all(ByteSpan(mutated.data(), mutated.size()));
    const simnet::SharedSlice msg = recv_frame(*sock);
    ASSERT_FALSE(msg.empty()) << "session died on round " << round;
    ByteSpan frame = msg.view();
    ASSERT_TRUE(strip_frame_crc(frame));
    ByteReader r(frame);
    // Every single-bit flip the trailer covers (and flips OF the trailer)
    // must be rejected as a checksum mismatch — by CRC's single-bit-error
    // guarantee there are no collisions to worry about.
    ASSERT_EQ(static_cast<Status>(r.i32()), Status::kChecksumMismatch)
        << "round " << round << " byte " << byte;
  }
  EXPECT_GT(header_flips, 0);
  EXPECT_GT(payload_flips, 0);
  EXPECT_GT(trailer_flips, 0);

  // In-rhythm recovery: the very same session still serves, and none of the
  // 300 corrupted writes leaked a byte into the store.
  Bytes body;
  ByteWriter w(body);
  w.i32(fd);
  w.i64(0);
  w.u32(512);
  Bytes resp;
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjRead, body, &resp), Status::kOk);
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  const Bytes back = r.blob();
  EXPECT_EQ(back, baseline);
  expect_server_alive();
}

TEST_F(CorruptionFuzzTest, LengthPrefixFlipsNeverLandData) {
  // Flips in the 4-byte length prefix sit OUTSIDE the checksum (by design:
  // covering it would desync framing on every detection). Such a flip can
  // legitimately kill the session — but it must never produce a dispatched
  // frame, and the server must survive.
  const Bytes baseline(256, 'B');
  {
    auto setup = raw_connect();
    ASSERT_TRUE(raw_connect_crc(*setup));
    const std::int32_t fd = crc_open(*setup, "/fuzz/len");
    ASSERT_EQ(crc_roundtrip(*setup, Op::kObjWrite, write_body(fd, 0, baseline)),
              Status::kOk);
  }

  Rng rng(0x1e471e47u);
  for (int round = 0; round < 32; ++round) {
    auto sock = raw_connect();
    ASSERT_TRUE(raw_connect_crc(*sock));
    const std::int32_t fd = crc_open(*sock, "/fuzz/len");
    const Bytes evil(256, 'E');
    Bytes mutated = build_crc_frame(Op::kObjWrite, write_body(fd, 0, evil));
    mutated[rng.below(4)] ^= static_cast<char>(1u << rng.below(8));
    try {
      sock->send_all(ByteSpan(mutated.data(), mutated.size()));
      sock->shutdown_send();  // a bigger claimed length now reads as EOF
      Bytes drain(256);
      while (sock->recv_some(MutByteSpan(drain.data(), drain.size())) > 0) {
      }
    } catch (const simnet::NetError&) {
      // Server slammed the session: acceptable for a framing-level fault.
    }
  }

  // However the 32 sessions ended, the evil payload never landed.
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/len");
  Bytes body;
  ByteWriter w(body);
  w.i32(fd);
  w.i64(0);
  w.u32(256);
  Bytes resp;
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjRead, body, &resp), Status::kOk);
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  EXPECT_EQ(r.blob(), baseline);
  expect_server_alive();
}

TEST_F(CorruptionFuzzTest, MultiBitRandomMutationsNeverLandData) {
  // Beyond the single-bit guarantee: arbitrary k-bit mutations of one frame
  // (k in 1..8). A pathological collision would be caught here as a silent
  // acceptance of wrong data, which the baseline read-back would expose.
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/multi");
  const Bytes baseline(384, 'B');
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjWrite, write_body(fd, 0, baseline)),
            Status::kOk);

  const Bytes evil(384, 'E');
  const Bytes pristine = build_crc_frame(Op::kObjWrite, write_body(fd, 0, evil));
  Rng rng(0x5eed5eedu);
  for (int round = 0; round < 200; ++round) {
    Bytes mutated = pristine;
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte = 4 + rng.below(mutated.size() - 4);
      mutated[byte] ^= static_cast<char>(1u << rng.below(8));
    }
    sock->send_all(ByteSpan(mutated.data(), mutated.size()));
    const simnet::SharedSlice msg = recv_frame(*sock);
    ASSERT_FALSE(msg.empty());
    ByteSpan frame = msg.view();
    ASSERT_TRUE(strip_frame_crc(frame));
    ByteReader r(frame);
    ASSERT_EQ(static_cast<Status>(r.i32()), Status::kChecksumMismatch)
        << "round " << round;
  }

  Bytes body;
  ByteWriter w(body);
  w.i32(fd);
  w.i64(0);
  w.u32(384);
  Bytes resp;
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjRead, body, &resp), Status::kOk);
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  EXPECT_EQ(r.blob(), baseline);
  expect_server_alive();
}

TEST_F(CorruptionFuzzTest, FlipsInMultiBlockWritesMissTheStoreAndItsSums) {
  // A multi-block write at an unaligned offset is verified in pieces cut at
  // the store's block grid, and the store adopts the pieces' CRCs as block
  // sums. Flips aimed at the fields that place the cuts (offsets, lengths,
  // extent count), at the payload and at the trailer must each still get
  // kChecksumMismatch in rhythm; the store must keep its bytes, and every
  // sum must still match its block. Both write verbs take cuts.
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/cuts");
  constexpr std::uint64_t kOffset = 65536 - 100;
  constexpr std::size_t kLen = 200000;
  Bytes image = Rng(0xc075u).bytes(kOffset + kLen + 70000);
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjWrite, write_body(fd, 0, image)),
            Status::kOk);

  const auto read_back = [&] {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.i64(0);
    w.u32(static_cast<std::uint32_t>(image.size()));
    Bytes resp;
    EXPECT_EQ(crc_roundtrip(*sock, Op::kObjRead, body, &resp), Status::kOk);
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    return r.blob();
  };
  Rng rng(0xc075f11bu);
  // Sends `pristine` with one bit flipped in each region (byte ranges of the
  // wire frame) in turn, then checks nothing reached the store.
  const auto fuzz = [&](const Bytes& pristine,
                        const std::vector<std::pair<std::size_t, std::size_t>>& regions) {
    for (int round = 0; round < 48; ++round) {
      const auto [lo, hi] = regions[static_cast<std::size_t>(round) % regions.size()];
      const std::size_t byte = lo + rng.below(hi - lo);
      Bytes mutated = pristine;
      mutated[byte] ^= static_cast<char>(1u << rng.below(8));
      sock->send_all(ByteSpan(mutated.data(), mutated.size()));
      const simnet::SharedSlice msg = recv_frame(*sock);
      ASSERT_FALSE(msg.empty()) << "session died on round " << round;
      ByteSpan frame = msg.view();
      ASSERT_TRUE(strip_frame_crc(frame));
      ByteReader r(frame);
      ASSERT_EQ(static_cast<Status>(r.i32()), Status::kChecksumMismatch)
          << "round " << round << " byte " << byte;
    }
    EXPECT_EQ(read_back(), image);
    EXPECT_EQ(server_->store().scrub().mismatched, 0u);
  };

  // kObjWrite: [len][op][fd][offset][blob len][payload][crc]
  const Bytes evil = Rng(0xe111u).bytes(kLen);
  const Bytes write = build_crc_frame(Op::kObjWrite, write_body(fd, kOffset, evil));
  fuzz(write, {{9, 17}, {17, 21}, {21, write.size() - 4}, {write.size() - 4, write.size()}});

  // kObjWriteList: [len][op][fd][count][count x (offset, len)][data][crc]
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> extents = {
      {kOffset, 100000}, {kOffset + 100000 + 4321, 70000}};
  const Bytes list_data = Rng(0xe112u).bytes(170000);
  Bytes body;
  ByteWriter w(body);
  w.i32(fd);
  w.u32(static_cast<std::uint32_t>(extents.size()));
  for (const auto& [off, len] : extents) {
    w.u64(off);
    w.u32(len);
  }
  w.raw(ByteSpan(list_data.data(), list_data.size()));
  const Bytes list = build_crc_frame(Op::kObjWriteList, body);
  const std::size_t data_at = 4 + 1 + 4 + 4 + 12 * extents.size();
  fuzz(list, {{9, 13}, {13, data_at}, {data_at, list.size() - 4},
              {list.size() - 4, list.size()}});

  // The pristine frames land, and the sums the store adopted from their
  // pieces match the stored blocks.
  sock->send_all(ByteSpan(write.data(), write.size()));
  sock->send_all(ByteSpan(list.data(), list.size()));
  for (int i = 0; i < 2; ++i) {
    const simnet::SharedSlice msg = recv_frame(*sock);
    ASSERT_FALSE(msg.empty());
    ByteSpan frame = msg.view();
    ASSERT_TRUE(strip_frame_crc(frame));
    ByteReader r(frame);
    ASSERT_EQ(static_cast<Status>(r.i32()), Status::kOk);
  }
  std::copy(evil.begin(), evil.end(), image.begin() + kOffset);
  std::size_t at = 0;
  for (const auto& [off, len] : extents) {
    std::copy_n(list_data.begin() + static_cast<std::ptrdiff_t>(at), len,
                image.begin() + static_cast<std::ptrdiff_t>(off));
    at += len;
  }
  EXPECT_EQ(read_back(), image);
  EXPECT_EQ(server_->store().scrub().mismatched, 0u);
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, ReadLengthAboveCapRejected) {
  // A read request asking for more than the server's per-message cap.
  SrbClient client(fabric_, "evil", "orion", 5544);
  const auto fd = client.open("/cap", kRead | kWrite | kCreate);
  auto sock = raw_connect();  // separate raw session with its own connect
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1 + 4 + 8 + 4);
  w.u8(static_cast<std::uint8_t>(Op::kObjRead));
  w.i32(fd);  // fd from another session: either bad-fd or proto error is fine
  w.i64(0);
  w.u32(kMaxMessage);  // over the cap
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  Bytes reply(64);
  (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  client.close(fd);
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, SeekOverflowAndBadWhenceRejectedKeepsSession) {
  SrbClient client(fabric_, "evil", "orion", 5544);
  const auto fd = client.open("/seek", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("ping");
  ASSERT_EQ(client.pwrite(fd, ByteSpan(data.data(), data.size()), 0), 4u);
  const auto seek_status = [&](std::int64_t off, Whence whence) {
    try {
      client.seek(fd, off, whence);
      return Status::kOk;
    } catch (const SrbError& e) {
      return e.status();
    }
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(client.seek(fd, kMax, Whence::kSet), kMax);
  EXPECT_EQ(seek_status(kMax, Whence::kCur), Status::kInvalid);  // fp + kMax
  EXPECT_EQ(seek_status(kMax, Whence::kEnd), Status::kInvalid);  // 4 + kMax
  EXPECT_EQ(seek_status(0, static_cast<Whence>(7)), Status::kInvalid);
  // A refused seek leaves the file pointer alone, and the session serves on.
  EXPECT_EQ(client.seek(fd, 0, Whence::kCur), kMax);
  EXPECT_EQ(client.seek(fd, -4, Whence::kEnd), 0);
  Bytes back(4);
  EXPECT_EQ(client.read(fd, MutByteSpan(back.data(), back.size())), 4u);
  EXPECT_EQ(back, data);
  client.close(fd);
  expect_server_alive();
}

// ---------------------------------------------------------------------------
// Framing layout: frames built in place by start_frame/finish_frame carry
// exactly the bytes of the original [len][head][body][crc32c?] encoding.
// ---------------------------------------------------------------------------

/// The reference encoding, assembled field by field.
Bytes legacy_frame(ByteSpan head, ByteSpan body, bool with_crc) {
  Bytes out;
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(head.size() + body.size() + (with_crc ? 4 : 0)));
  w.raw(head);
  w.raw(body);
  if (with_crc) {
    Crc32c crc;
    crc.update(head);
    crc.update(body);
    w.u32(crc.value());
  }
  return out;
}

/// What a socket has charged so far: its stream cap, one path bucket, and
/// its own byte counter.
struct Charges {
  std::uint64_t cap_charges, cap_bytes, path_charges, path_bytes, sent;
  bool operator==(const Charges&) const = default;
};

Charges charges_of(const simnet::Socket& sock, const simnet::TokenBucket& path) {
  return {sock.stream_cap()->charges(), sock.stream_cap()->consumed(),
          path.charges(), path.consumed(), sock.bytes_sent()};
}

Charges operator-(const Charges& a, const Charges& b) {
  return {a.cap_charges - b.cap_charges, a.cap_bytes - b.cap_bytes,
          a.path_charges - b.path_charges, a.path_bytes - b.path_bytes,
          a.sent - b.sent};
}

TEST(Framing, FinishFrameMatchesLegacyBytes) {
  simnet::ScopedTimeScale scale(5000.0);
  // A capped stream and one path bucket, both too fast to ever wait, and
  // small quanta, so a frame spans many and its charges can be compared.
  simnet::ConnShaping shaping;
  shaping.quantum = 4096;
  shaping.stream_rate = 1e12;
  shaping.stream_burst = 1e12;
  const auto path = std::make_shared<simnet::TokenBucket>(1e12, 1e12, "path");
  shaping.fwd_path = {path};
  auto [tx, rx] = simnet::Socket::make_pair(shaping, "a", "b");
  const Bytes body = Rng(42).bytes(70000);
  const ByteSpan body_span(body.data(), body.size());
  const char op = static_cast<char>(Op::kObjWrite);
  Bytes status;
  ByteWriter(status).i32(static_cast<std::int32_t>(Status::kQuarantined));
  for (const bool with_crc : {false, true}) {
    // Request shape through the send_frame wrappers.
    if (with_crc)
      send_frame_crc(*tx, static_cast<std::uint8_t>(op), body_span);
    else
      send_frame(*tx, static_cast<std::uint8_t>(op), body_span);
    Bytes want = legacy_frame(ByteSpan(&op, 1), body_span, with_crc);
    Bytes got(want.size());
    ASSERT_TRUE(rx->recv_all(MutByteSpan(got.data(), got.size())));
    EXPECT_EQ(got, want) << "request, crc " << with_crc;

    // Response shape, built in place the way the broker builds replies.
    Charges before = charges_of(*tx, *path);
    Bytes frame = start_frame(status.size() + body.size());
    ByteWriter w(frame);
    w.raw(ByteSpan(status.data(), status.size()));
    w.raw(body_span);
    finish_frame(*tx, std::move(frame), with_crc);
    const Charges one_buffer = charges_of(*tx, *path) - before;
    want = legacy_frame(ByteSpan(status.data(), status.size()), body_span, with_crc);
    got.assign(want.size(), 0);
    ASSERT_TRUE(rx->recv_all(MutByteSpan(got.data(), got.size())));
    EXPECT_EQ(got, want) << "response, crc " << with_crc;
    const std::uint64_t quanta = (want.size() + shaping.quantum - 1) / shaping.quantum;
    EXPECT_EQ(one_buffer.cap_charges, quanta);
    EXPECT_EQ(one_buffer.path_charges, quanta);
    EXPECT_EQ(one_buffer.sent, want.size());

    // The same response gathered, as the broker sends a read reply: the
    // body rides as slices of other buffers — cut off the quantum grid,
    // with an empty part and two adjacent slices of one buffer — and only
    // the status is hashed, combined with the body's CRC. The wire bytes
    // and every shaping charge are those of the one-buffer frame.
    before = charges_of(*tx, *path);
    const auto a = std::make_shared<const Bytes>(body.begin(), body.begin() + 40000);
    const auto b = std::make_shared<const Bytes>(body.begin() + 40000, body.end());
    FrameData data;
    data.parts = {{a, 0, 1000}, {a, 1000, 40000}, {b, 0, 0}, {b, 0, b->size()}};
    data.crc = crc32c(body_span);
    frame = start_frame(status.size());
    ByteWriter(frame).raw(ByteSpan(status.data(), status.size()));
    finish_frame(*tx, std::move(frame), with_crc, std::move(data));
    EXPECT_EQ(charges_of(*tx, *path) - before, one_buffer) << "crc " << with_crc;
    got.assign(want.size(), 0);
    ASSERT_TRUE(rx->recv_all(MutByteSpan(got.data(), got.size())));
    EXPECT_EQ(got, want) << "gathered response, crc " << with_crc;
  }
}

// ---------------------------------------------------------------------------
// Client-side response checks, driven by a fake broker that answers kObjRead
// with bodies a real broker never sends.
// ---------------------------------------------------------------------------

/// Serves one connection on orion:5545: kConnect and kObjOpen get proper
/// answers (no feature flags, so the session runs unchecksummed), every
/// kObjRead and kObjReadList gets `read_body` with status kOk, anything
/// else a bare kOk. A read reply goes out in several sends, cut at the
/// frame positions in `cuts`, so it reaches the client as several slices.
class FakeBroker {
 public:
  FakeBroker(simnet::Fabric& fabric, Bytes read_body,
             std::vector<std::size_t> cuts = {})
      : acceptor_(fabric.listen("orion", 5545)),
        read_body_(std::move(read_body)),
        cuts_(std::move(cuts)) {
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeBroker() {
    acceptor_->close();
    thread_.join();
  }
  FakeBroker(const FakeBroker&) = delete;
  FakeBroker& operator=(const FakeBroker&) = delete;

 private:
  void serve() {
    auto sock = acceptor_->accept();
    if (!sock) return;
    try {
      for (;;) {
        const simnet::SharedSlice req = recv_frame(**sock);
        if (req.empty()) break;
        Bytes reply = start_frame(16 + read_body_.size());
        ByteWriter w(reply);
        w.i32(static_cast<std::int32_t>(Status::kOk));
        const auto op = static_cast<Op>(req.view()[0]);
        switch (op) {
          case Op::kConnect: w.str("fake-broker"); break;
          case Op::kObjOpen: w.i32(3); break;
          case Op::kObjRead:
          case Op::kObjReadList:
            w.raw(ByteSpan(read_body_.data(), read_body_.size()));
            break;
          default: break;
        }
        if (op != Op::kObjRead && op != Op::kObjReadList) {
          finish_frame(**sock, std::move(reply), /*with_crc=*/false);
          continue;
        }
        const auto len = static_cast<std::uint32_t>(reply.size() - 4);
        std::memcpy(reply.data(), &len, 4);
        const ByteSpan wire(reply.data(), reply.size());
        std::size_t at = 0;
        for (const std::size_t cut : cuts_) {
          ASSERT_LT(cut, wire.size());
          (*sock)->send_all(wire.subspan(at, cut - at));
          at = cut;
        }
        (*sock)->send_all(wire.subspan(at));
      }
    } catch (const simnet::NetError&) {
      // The client hung up mid-exchange; nothing left to serve.
    }
  }

  std::shared_ptr<simnet::Acceptor> acceptor_;
  Bytes read_body_;
  std::vector<std::size_t> cuts_;
  std::thread thread_;
};

/// A kObjRead response body: a blob claiming `claimed` bytes that carries
/// `carried` of them.
Bytes read_body(std::uint32_t claimed, std::size_t carried) {
  Bytes body;
  ByteWriter w(body);
  w.u32(claimed);
  const Bytes data(carried, 'D');
  w.raw(ByteSpan(data.data(), data.size()));
  return body;
}

/// How a test reads 64 bytes: pread, read (the file-pointer variant), or
/// preadv of two 32-byte extents.
enum class ReadVerb { kPread, kRead, kReadv };

/// A kObjReadList response body for two extents: the count, the claimed
/// actual lengths, and `carried` data bytes.
Bytes readv_body(std::uint32_t first, std::uint32_t second, std::size_t carried) {
  Bytes body;
  ByteWriter w(body);
  w.u32(2);
  w.u32(first);
  w.u32(second);
  const Bytes data(carried, 'D');
  w.raw(ByteSpan(data.data(), data.size()));
  return body;
}

/// Reads 64 bytes with `verb` from a fake broker answering `body` (in sends
/// cut at `cuts`); returns how many bytes the client reported.
std::size_t read_from(SrbClient& client, ReadVerb verb, MutByteSpan out) {
  const std::int32_t fd = client.open("/fake", kRead);
  switch (verb) {
    case ReadVerb::kPread: return client.pread(fd, out, 0);
    case ReadVerb::kRead: return client.read(fd, out);
    case ReadVerb::kReadv: return client.preadv(fd, {{0, 32}, {100, 32}}, out);
  }
  return 0;
}

/// Expects kProtocol and that nothing past the caller's span was written.
void expect_read_rejected(simnet::Fabric& fabric, Bytes body, ReadVerb verb,
                          std::vector<std::size_t> cuts = {}) {
  FakeBroker broker(fabric, std::move(body), std::move(cuts));
  SrbClient client(fabric, "evil", "orion", 5545);
  Bytes buf(64 + 32, 'G');  // 32 guard bytes follow the caller's span
  try {
    (void)read_from(client, verb, MutByteSpan(buf.data(), 64));
    ADD_FAILURE() << "malformed read response accepted";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kProtocol);
    EXPECT_EQ(e.domain(), remio::ErrorDomain::kProtocol);
    EXPECT_FALSE(e.retryable());
  }
  for (std::size_t i = 64; i < buf.size(); ++i)
    ASSERT_EQ(buf[i], 'G') << "wrote past the caller's span at " << i;
}

TEST_F(ProtocolFuzzTest, OversizedReadResponseRejected) {
  for (const ReadVerb verb : {ReadVerb::kPread, ReadVerb::kRead})
    expect_read_rejected(fabric_, read_body(96, 96), verb);
}

TEST_F(ProtocolFuzzTest, TruncatedReadResponseIsNotEof) {
  for (const ReadVerb verb : {ReadVerb::kPread, ReadVerb::kRead})
    expect_read_rejected(fabric_, read_body(64, 10), verb);
}

TEST_F(ProtocolFuzzTest, ReadRepliesSplitAcrossSendsAreCheckedAndParsed) {
  // Frame positions: [len:4][status:4][read: len:4 | readv: count:4
  // actual:4 actual:4][data]. The cuts land inside the status, inside the
  // body's head, and inside the data, so the reply reaches the client as
  // four slices.
  const std::vector<std::size_t> read_cuts = {6, 10, 14};
  const std::vector<std::size_t> readv_cuts = {6, 18, 24};
  // Oversized and truncated bodies are still rejected.
  for (const ReadVerb verb : {ReadVerb::kPread, ReadVerb::kRead}) {
    expect_read_rejected(fabric_, read_body(96, 96), verb, read_cuts);
    expect_read_rejected(fabric_, read_body(64, 10), verb, read_cuts);
  }
  expect_read_rejected(fabric_, readv_body(48, 16, 64), ReadVerb::kReadv, readv_cuts);
  expect_read_rejected(fabric_, readv_body(32, 32, 40), ReadVerb::kReadv, readv_cuts);

  // A well-formed reply whose head is split across slices parses exactly.
  const auto expect_parsed = [&](Bytes body, ReadVerb verb,
                                 std::vector<std::size_t> cuts, std::size_t n) {
    FakeBroker broker(fabric_, std::move(body), std::move(cuts));
    SrbClient client(fabric_, "evil", "orion", 5545);
    Bytes buf(64 + 32, 'G');
    EXPECT_EQ(read_from(client, verb, MutByteSpan(buf.data(), 64)), n);
    for (std::size_t i = 0; i < buf.size(); ++i)
      ASSERT_EQ(buf[i], i < n ? 'D' : 'G') << "byte " << i;
  };
  expect_parsed(read_body(64, 64), ReadVerb::kPread, read_cuts, 64);
  expect_parsed(read_body(50, 50), ReadVerb::kRead, read_cuts, 50);
  expect_parsed(readv_body(32, 32, 64), ReadVerb::kReadv, readv_cuts, 64);
}

}  // namespace
}  // namespace remio::srb
