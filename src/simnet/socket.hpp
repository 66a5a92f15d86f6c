// Shaped duplex byte-stream connection. Each direction is a Pipe: a bounded
// queue of chunks stamped with a simulated delivery time (propagation
// latency). A chunk is a slice of a buffer the sender handed over: a
// message goes out as a list of slices (one owned buffer, or a small head
// buffer, views of someone else's immutable buffers and a trailer), so
// shaping a message into quanta copies nothing, and recv_parts hands it to
// the receiver as views of those same buffers. A send charges, per quantum
// of the concatenated message, the connection's own window-limited bucket
// (TCP throughput cap = window / RTT — the reason a second stream nearly
// doubles throughput in §7.2) and every shared resource on the path (node
// bus, NIC, uplink / NAT, server NIC).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "simnet/token_bucket.hpp"

namespace remio::simnet {

class FaultInjector;

/// Connection-level failure. Defaults to retryable (drops, resets, refused
/// dials are transient as far as a supervisor is concerned); configuration
/// errors such as an unknown host pass an explicit non-retryable info.
class NetError : public remio::StatusError {
 public:
  explicit NetError(const std::string& what,
                    remio::ErrorInfo info = {remio::ErrorDomain::kTransport, 0,
                                             /*retryable=*/true, {}})
      : StatusError(std::move(info), what) {}
};

/// Bytes [begin, end) of an immutable shared buffer. Holding the slice keeps
/// the whole buffer alive, so a view taken from it stays valid after the
/// socket that sent it is gone.
struct SharedSlice {
  std::shared_ptr<const Bytes> buf;
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
  ByteSpan view() const {
    return buf ? ByteSpan(buf->data() + begin, size()) : ByteSpan();
  }
};

/// Appends `s` to `parts`, or widens the last part when `s` continues it in
/// the same buffer, so bytes that were adjacent where they were built stay
/// one part.
void append_slice(std::vector<SharedSlice>& parts, SharedSlice s);

/// Total bytes of `parts`.
std::size_t total_size(const std::vector<SharedSlice>& parts);

/// The concatenation of `parts` as one slice: the single part itself (no
/// copy), or the bytes of several gathered into one fresh buffer. Empty for
/// no parts.
SharedSlice gather(std::vector<SharedSlice>&& parts);

namespace detail {

/// One direction of a connection.
class Pipe {
 public:
  explicit Pipe(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Queues bytes [begin, end) of `buf`. Blocks while the in-flight window
  /// is full. Throws NetError if the receiver has closed.
  void push(std::shared_ptr<const Bytes> buf, std::size_t begin,
            std::size_t end, double deliver_sim);

  /// The one dequeue: blocks until the front chunk is delivered (per sim
  /// clock) and pops up to `max` (> 0) bytes of it as a slice of the
  /// sender's buffer, releasing that much window. Returns an empty slice on
  /// EOF (the sender closed and everything was drained); throws NetError if
  /// the receiver side is closed.
  SharedSlice pop(std::size_t max);

  void close_tx();  // sender will write no more (EOF after drain)
  void close_rx();  // receiver gone; unblock and fail senders

  std::size_t buffered() const;

 private:
  /// The unconsumed part of one pushed slice; its begin advances as the
  /// receiver pops it.
  struct Chunk {
    SharedSlice data;
    double deliver_sim = 0.0;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_rx_;
  std::condition_variable cv_tx_;
  std::vector<Chunk> q_;  // FIFO via index
  std::size_t head_ = 0;
  std::size_t bytes_ = 0;
  std::size_t capacity_;
  bool tx_closed_ = false;
  bool rx_closed_ = false;
};

}  // namespace detail

/// Per-connection shaping parameters, fixed at connect time.
struct ConnShaping {
  double one_way_latency = 0.0;  // simulated seconds
  /// Per-direction throughput cap in bytes/sim-sec (0 = unlimited). For a
  /// TCP stream this is window / RTT.
  double stream_rate = 0.0;
  /// Burst tolerance of the per-stream cap; physically the TCP window (a
  /// sender can emit at most one cwnd before blocking on ACKs).
  double stream_burst = 0.0;
  /// Shared resources charged per chunk, client->server direction.
  std::vector<std::shared_ptr<TokenBucket>> fwd_path;
  /// Shared resources charged per chunk, server->client direction.
  std::vector<std::shared_ptr<TokenBucket>> rev_path;
  std::size_t quantum = 512 * 1024;       // shaping granularity
  std::size_t window_bytes = 4 << 20;     // in-flight buffering per direction
};

class Socket {
 public:
  ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// The one send: sends the concatenation of `parts` as one message,
  /// charging shaping resources per quantum of it, exactly as if it were
  /// one buffer; a quantum that spans parts is queued as one chunk per part.
  /// The parts' buffers must stay unchanged while queued (SharedSlice
  /// buffers are const). An injected bit flip lands in a private copy of
  /// the one part it hits, never in a buffer the caller shares. Throws
  /// NetError if the peer is gone.
  void send_all(std::vector<SharedSlice> parts);
  /// The one-part case: the socket takes the buffer over.
  void send_all(Bytes&& data);
  /// Copies the span into an owned buffer and sends that; the caller's
  /// bytes are never modified.
  void send_all(ByteSpan data) { send_all(Bytes(data.begin(), data.end())); }

  /// Receives exactly `n` (> 0) bytes as the slices they arrived in, with
  /// adjacent slices of one buffer merged (append_slice): a message sent as
  /// one buffer arrives as one view of it, a gathered message as views of
  /// its parts. Nothing is copied. Returns no parts on EOF before the first
  /// byte; throws NetError on EOF after it.
  std::vector<SharedSlice> recv_parts(std::size_t n);
  /// recv_parts for callers that need the bytes contiguous: one part is
  /// returned as is, several are gathered into one fresh buffer.
  SharedSlice recv_exact(std::size_t n) { return gather(recv_parts(n)); }

  /// Copying receives. recv_some receives at least one byte (blocking) and
  /// returns 0 on EOF; recv_all receives exactly out.size() bytes and
  /// returns false on premature EOF.
  std::size_t recv_some(MutByteSpan out);
  bool recv_all(MutByteSpan out);

  /// Half-close for sending; peer sees EOF after draining.
  void shutdown_send();
  void close();

  /// Wires a fault-injection plan into this end of the connection (set by
  /// Fabric::connect when an injector is installed). The `tag` identifies
  /// the connection for targeted kills/bans. With `corrupt_only`, this end
  /// is only subject to bit flips — drops, kills and latency spikes stay
  /// client-side so the established failure semantics don't change; set on
  /// the server socket so *responses* can arrive corrupted too.
  void set_fault(std::shared_ptr<FaultInjector> fault, std::string tag,
                 bool corrupt_only = false);
  const std::string& fault_tag() const { return tag_; }

  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  const std::string& peer() const { return peer_; }
  /// This direction's window cap; null when the connection is uncapped.
  const TokenBucket* stream_cap() const { return stream_cap_.get(); }

  /// Creates a connected pair (client, server). Applies no connect latency
  /// itself — Fabric::connect sleeps the RTT before calling this.
  static std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> make_pair(
      const ConnShaping& shaping, const std::string& client_name,
      const std::string& server_name);

 private:
  Socket() = default;

  std::shared_ptr<detail::Pipe> tx_;
  std::shared_ptr<detail::Pipe> rx_;
  std::shared_ptr<TokenBucket> stream_cap_;  // this direction's window cap
  std::vector<std::shared_ptr<TokenBucket>> path_;
  double latency_ = 0.0;
  std::size_t quantum_ = 512 * 1024;
  // Counters and the closed flag are atomic: close() may race a peer-side
  // thread parked in recv_some/send_all (e.g. SrbServer::stop force-closing
  // a session socket), and the byte accessors are read cross-thread.
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::string peer_;
  std::shared_ptr<FaultInjector> fault_;
  std::string tag_;
  bool fault_corrupt_only_ = false;
  std::atomic<bool> closed_{false};
};

}  // namespace remio::simnet
