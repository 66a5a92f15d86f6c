// Synchronous SRB client — the POSIX-equivalent blocking API (§3.1). This
// is deliberately *synchronous only*, exactly like the real SRB: the
// asynchronous capability lives one layer up in SEMPLAR (src/core), built
// with dedicated I/O threads over these blocking calls (§4.3).
//
// A client owns one TCP stream to the broker. SEMPLAR opens one client per
// stream, so each I/O thread drives its own connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/extent.hpp"
#include "simnet/fabric.hpp"
#include "srb/protocol.hpp"

namespace remio::srb {

/// SRB failure carrying both the wire-level srb::Status and the shared
/// remio::ErrorInfo taxonomy (domain / retryable — see common/error.hpp).
/// The two-argument constructor classifies broker responses: the broker
/// answered, so the failure is semantic and not retryable. Transport-level
/// throw sites pass an explicit ErrorInfo instead.
class SrbError : public remio::StatusError {
 public:
  SrbError(Status status, const std::string& what)
      : StatusError({remio::ErrorDomain::kBroker,
                     static_cast<std::int32_t>(status),
                     /*retryable=*/false,
                     {}},
                    what),
        status_(status) {}
  SrbError(Status status, remio::ErrorInfo info, const std::string& what)
      : StatusError(std::move(info), what), status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

struct ObjStat {
  std::uint64_t size = 0;
  std::uint64_t object_id = 0;
  std::string resource;
};

class SrbClient {
 public:
  /// Dials the broker and performs the Connect handshake (one extra RTT,
  /// like the real SRB login). Throws on failure. A non-empty `tenant`
  /// logs in under that tenant identity: when the broker runs in
  /// multi-tenant mode the session is confined to /tenants/<tenant> and
  /// subject to its quotas; a single-tenant broker ignores it.
  /// `wire_checksums` requests per-frame CRC32C protection at connect;
  /// the session uses it only when the server acks the feature, so a new
  /// client against an old broker degrades to the unchecked protocol (and
  /// with it false, the client is wire-identical to a pre-integrity one).
  SrbClient(simnet::Fabric& fabric, const std::string& from_host,
            const std::string& server_host, int port,
            const simnet::ConnectOptions& opts = {},
            const std::string& client_name = "remio-client",
            const std::string& tenant = "", bool wire_checksums = true);
  ~SrbClient();

  SrbClient(const SrbClient&) = delete;
  SrbClient& operator=(const SrbClient&) = delete;

  /// Opens (optionally creating/truncating) a data object; returns a
  /// server-side descriptor. Throws SrbError on failure.
  std::int32_t open(const std::string& path, std::uint32_t flags);
  void close(std::int32_t fd);

  /// pread/pwrite (explicit offset, does not move the file pointer).
  std::size_t pread(std::int32_t fd, MutByteSpan out, std::uint64_t offset);
  std::size_t pwrite(std::int32_t fd, ByteSpan data, std::uint64_t offset);

  /// List I/O: the whole extent list travels in ONE protocol message (one
  /// round-trip), so the caller must pre-batch against kMaxListExtents and
  /// kMaxMessage/2 total bytes. Extents must be sorted and non-overlapping;
  /// `out`/`data` are packed buffers (extent contents in list order). A read
  /// returns total bytes and stops at the first short extent.
  std::size_t preadv(std::int32_t fd, const ExtentList& extents, MutByteSpan out);
  std::size_t pwritev(std::int32_t fd, const ExtentList& extents, ByteSpan data);

  /// read/write at the (server-side) individual file pointer.
  std::size_t read(std::int32_t fd, MutByteSpan out);
  std::size_t write(std::int32_t fd, ByteSpan data);
  std::int64_t seek(std::int32_t fd, std::int64_t offset, Whence whence);

  std::optional<ObjStat> stat(const std::string& path);
  void unlink(const std::string& path);
  void make_collection(const std::string& path);
  std::vector<std::string> list(const std::string& collection);
  void set_attr(const std::string& path, const std::string& key,
                const std::string& value);
  std::optional<std::string> get_attr(const std::string& path,
                                      const std::string& key);

  /// Admin: broker-wide at-rest checksum scrub (kAdminScrub). Quarantines
  /// objects with mismatched blocks, heals rewritten ones; see
  /// ObjectStore::scrub.
  struct ScrubResult {
    std::uint64_t objects = 0;
    std::uint64_t blocks = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t healed = 0;
  };
  ScrubResult scrub();

  /// Orderly disconnect; further calls fail. Idempotent.
  void disconnect();

  const std::string& server_banner() const { return banner_; }
  std::uint64_t bytes_sent() const { return sock_->bytes_sent(); }
  std::uint64_t bytes_received() const { return sock_->bytes_received(); }
  /// Protocol round-trips issued so far (each call() is one request/response
  /// pair on the wire); lets tests verify e.g. that one list-I/O message
  /// really carried N extents.
  std::uint64_t rpc_count() const {
    return rpc_count_.load(std::memory_order_relaxed);
  }
  /// True when the connect handshake negotiated per-frame CRC32C.
  bool wire_checksums() const { return crc_; }
  /// Corrupted response frames this client detected itself (each one also
  /// surfaced as a retryable kIntegrity error).
  std::uint64_t crc_failures() const {
    return crc_failures_.load(std::memory_order_relaxed);
  }

  /// Writes larger than this are split into multiple protocol messages.
  static constexpr std::size_t kMaxIoChunk = 8u << 20;

 private:
  /// One response, parsed in place. `head` holds the status and the first
  /// bytes of the body, `body` views those body bytes, and `data` holds the
  /// rest of the body as the slices it arrived in (a read reply's data:
  /// views of the broker's store blocks). The slices keep their buffers
  /// alive as long as the Reply does.
  struct Reply {
    simnet::SharedSlice head;
    Status status = Status::kOk;
    ByteSpan body;
    std::vector<simnet::SharedSlice> data;
  };

  /// Whole body in `head`: the verbs that carry no bulk data.
  static constexpr std::size_t kWholeBody = SIZE_MAX - 4;

  /// Starts a request frame for `op` with room for `reserve` body bytes.
  static Bytes request(Op op, std::size_t reserve);
  /// Sends a request built by request() and receives its response,
  /// checking the CRC trailer on checksummed sessions. The first
  /// `body_head` bytes of the body are made contiguous in Reply::head
  /// (viewed in place when they arrived in one slice, else gathered); the
  /// rest stays in Reply::data, never gathered.
  Reply call(Bytes&& frame, std::size_t body_head = kWholeBody);
  /// Like call() but throws SrbError unless status == kOk.
  Reply call_ok(Bytes&& frame, const char* what,
                std::size_t body_head = kWholeBody);
  /// The pread/read and pwrite/write loops; a negative offset means the
  /// server-side file pointer.
  std::size_t read_at(std::int32_t fd, MutByteSpan out, std::int64_t offset);
  std::size_t write_at(std::int32_t fd, ByteSpan data, std::int64_t offset);

  std::unique_ptr<simnet::Socket> sock_;
  std::mutex mu_;  // serializes request/response pairs on the stream
  std::string banner_;
  std::atomic<std::uint64_t> rpc_count_{0};
  std::atomic<std::uint64_t> crc_failures_{0};
  bool connected_ = false;
  bool crc_ = false;  // negotiated at connect; frames after it are covered
};

}  // namespace remio::srb
