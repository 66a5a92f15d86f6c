// SRB wire protocol: length-framed request/response messages over a simnet
// socket. The verbs mirror the POSIX-equivalent synchronous API the real SRB
// exports (§3.1) — open/read/write/seek/close plus catalog operations.
//
//   request  := len:u32 opcode:u8 payload
//   response := len:u32 status:i32 payload
//
// len counts the bytes after the length field itself.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "simnet/socket.hpp"

namespace remio::srb {

enum class Op : std::uint8_t {
  kConnect = 1,
  kDisconnect = 2,
  kObjOpen = 3,
  kObjClose = 4,
  kObjRead = 5,
  kObjWrite = 6,
  kObjSeek = 7,
  kObjStat = 8,
  kObjUnlink = 9,
  kCollCreate = 10,
  kCollList = 11,
  kSetAttr = 12,
  kGetAttr = 13,
  // List I/O (noncontiguous access, Thakur et al.): one round-trip carries
  // many (offset, len) extents.
  //   kObjReadList request  := fd:i32 count:u32 count*(offset:u64 len:u32)
  //   kObjReadList response := count:u32 count*actual_len:u32 data...
  //   kObjWriteList request := fd:i32 count:u32 count*(offset:u64 len:u32)
  //                            data...   (concatenated, sum(len) bytes)
  //   kObjWriteList response:= total:u64
  // Extents must be sorted by offset, non-overlapping, and nonzero-length;
  // the server answers kInvalid (keeping the session) otherwise.
  kObjReadList = 14,
  kObjWriteList = 15,
  // Admin: walk every stored object's block checksums (ObjectStore::scrub).
  //   kAdminScrub request  := (empty)
  //   kAdminScrub response := objects:u64 blocks:u64 mismatched:u64
  //                           quarantined:u64 healed:u64
  kAdminScrub = 16,
};

enum class Status : std::int32_t {
  kOk = 0,
  kNotFound = -1,
  kExists = -2,
  kBadFd = -3,
  kIoError = -4,
  kProtocol = -5,
  kInvalid = -6,
  kNoMcat = -7,
  /// A per-tenant quota (objects, bytes, or inflight requests) would be
  /// exceeded. Semantic, session-preserving: the client can shed load or
  /// free space and retry.
  kQuotaExceeded = -8,
  /// A checksum failed: a frame arrived corrupted (in-flight bit flip) or a
  /// stored block no longer matches its at-rest CRC. Session-preserving and
  /// RETRYABLE — the request/response rhythm is intact, so the client can
  /// simply re-issue the idempotent, offset-addressed op.
  kChecksumMismatch = -9,
  /// The object failed a scrub and is quarantined: reads are refused until
  /// the data is rewritten and a re-scrub validates it. NOT retryable —
  /// replaying the read cannot succeed.
  kQuarantined = -10,
};

const char* status_name(Status s);

/// Open flags (bitmask).
enum OpenFlags : std::uint32_t {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kCreate = 1u << 2,
  kTrunc = 1u << 3,
};

/// Seek whence, matching POSIX semantics.
enum class Whence : std::uint8_t { kSet = 0, kCur = 1, kEnd = 2 };

/// Feature bits, negotiated at kConnect: the client appends a flags:u32 as
/// an optional trailing request field (omitted entirely when it wants no
/// features, making it bit-identical to a pre-feature client); the server
/// echoes the accepted subset as an optional trailing response field, only
/// when the client sent one. Old peers never read the trailing bytes, so
/// interop falls back to the unadorned protocol in both directions.
enum FeatureFlags : std::uint32_t {
  /// Every post-connect frame carries a CRC32C trailer (see finish_frame).
  kFeatureWireChecksums = 1u << 0,
};

/// Hard cap on a single message; protects the server from hostile lengths.
constexpr std::uint32_t kMaxMessage = 128u << 20;

/// Hard cap on the extent count in one list-I/O message (the per-extent
/// header alone is 12 bytes; this bounds server-side allocation before any
/// data is read).
constexpr std::uint32_t kMaxListExtents = 4096;

/// Starts a frame in one buffer sized for its final layout: the 4-byte
/// length prefix (patched by finish_frame), room for `reserve` bytes of
/// head and body appended by the caller, and room for the CRC trailer, so
/// nothing the frame carries is copied again before it reaches the socket.
Bytes start_frame(std::size_t reserve);

/// A frame's data carried by reference: slices of immutable buffers the
/// frame does not own (a read reply's bytes as views of the store's
/// blocks), and the CRC32C of their concatenation.
struct FrameData {
  std::vector<simnet::SharedSlice> parts;
  std::uint32_t crc = 0;
};

/// Completes a frame begun by start_frame — patches the length prefix and,
/// with `with_crc`, appends the CRC32C trailer — and moves it into the
/// socket. Checksummed framing (kFeatureWireChecksums sessions) gives the
/// content a crc32c:u32 trailer over [head|body], and len counts it:
/// [len][head][body...][crc32c]. The length prefix itself stays uncovered:
/// it is what keeps the two ends in phase, and the fault model (like TCP
/// segmentation) preserves it, so a corrupted frame is still a *complete*
/// frame and the receiver can answer kChecksumMismatch in rhythm.
/// `data`, when it has parts, is the rest of the body: the frame is sent as
/// the slices [len|head], data's parts, [crc32c] without gathering them,
/// and the trailer combines the head's CRC with data.crc, so only the head
/// is hashed here. The bytes on the wire are those of the one-buffer frame.
void finish_frame(simnet::Socket& sock, Bytes&& frame, bool with_crc,
                  FrameData&& data = {});

/// Verifies and strips the CRC32C trailer of a received frame in place.
/// Returns false on mismatch (or a frame too short to carry the trailer);
/// the caller decides the reaction (server: reply kChecksumMismatch and
/// keep the session; client: throw a retryable integrity error).
/// `cuts` (ascending positions in the content, the last at most the
/// content's length) split the hashing: the content is hashed piece by
/// piece, the pieces' CRCs combined and checked against the trailer, and on
/// a match `pieces[i]` holds the CRC of [cuts[i], cuts[i+1]) — bytes the
/// trailer has just vouched for. `pieces` has cuts.size() - 1 entries (none
/// without cuts).
bool strip_frame_crc(ByteSpan& frame, std::span<const std::size_t> cuts = {},
                     std::span<std::uint32_t> pieces = {});
/// The same check over a frame received as slices (recv_frame_parts): the
/// content is hashed part by part and the trailer taken off the tail.
bool strip_frame_crc(std::vector<simnet::SharedSlice>& frame);

/// Receives one frame and returns its content (everything after the length
/// prefix) without copying it: a frame sent in one piece arrives as a view
/// of the buffer its sender moved into the socket, and the slice keeps that
/// buffer alive for as long as the receiver holds it. An empty slice means
/// clean EOF before a frame. Throws simnet::NetError on mid-frame EOF or a
/// bad length.
simnet::SharedSlice recv_frame(simnet::Socket& sock);
/// recv_frame that keeps the content as the slices it arrived in, so a
/// gathered frame is never gathered (Socket::recv_parts). No parts means
/// clean EOF before a frame.
std::vector<simnet::SharedSlice> recv_frame_parts(simnet::Socket& sock);

}  // namespace remio::srb
