// A pool of SRB connections for one open file: SEMPLAR's "multiple TCP
// streams per node" (§7.2). Each stream is a full SrbClient (its own
// shaped connection + server-side descriptor on the same data object), so
// transfers on different streams advance concurrently when driven from
// different I/O threads.
//
// The pool is also the stateful half of the transport supervisor (with
// Config::Retry enabled): a stream whose connection fails is marked down
// and transparently repaired — re-dial, SRB login handshake, re-open of the
// data object — before the next attempt runs on it. A stream whose repairs
// keep failing while siblings are healthy is declared dead and its work is
// re-striped onto the survivors. All supervised ops are offset-addressed
// (pread/pwrite/stat), so replaying one after a reconnect is idempotent.
//
// One transfer path: every data transfer is an extent list moved by
// transfer(), which sends each message as exactly one attempt (plus eager
// repair / dead-stream re-routing). Retrying is the caller's choice, made
// once per request: synchronous callers wrap the whole attempt in
// supervised() (blocking backoff in the calling thread); engine tasks run
// it bare and AsyncEngine::submit_supervised replays it through its
// non-stalling deferred queue (core/async_engine.hpp). With retries
// disabled (the default) both are the paper's fail-fast single attempt on
// the requested stream.
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/extent.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "core/supervisor.hpp"
#include "obs/tracer.hpp"
#include "simnet/timescale.hpp"
#include "srb/client.hpp"
#include "srb/generation.hpp"

namespace remio::semplar {

/// The packed-buffer span a transfer moves: read into, or write from.
template <bool IsWrite>
using IoSpan = std::conditional_t<IsWrite, ByteSpan, MutByteSpan>;

class StreamPool {
 public:
  /// Opens `streams_per_node` connections and descriptors on `path`.
  /// The first stream performs any create/truncate; the rest open plain.
  /// `stats` (optional) receives the transport-supervision counters.
  /// `tracer` (optional) gets one kWire span per transfer attempt — the
  /// wire occupancy of the stream the op actually ran on (§7.2).
  StreamPool(simnet::Fabric& fabric, const Config& cfg, const std::string& path,
             std::uint32_t srb_flags, Stats* stats = nullptr,
             obs::Tracer* tracer = nullptr);
  ~StreamPool();

  StreamPool(const StreamPool&) = delete;
  StreamPool& operator=(const StreamPool&) = delete;

  int count() const { return static_cast<int>(streams_.size()); }
  /// Streams not declared dead (== count() until a degradation happens).
  int alive_count() const;

  /// How transfer() frames a list on the wire.
  enum class Verb {
    kPlain,  // kObjRead/kObjWrite per extent, chunked at kMaxIoChunk
    kList,   // kObjReadList/kObjWriteList batches of up to
             // Config::Sieve::max_extents_per_msg extents and kMaxIoChunk
             // bytes; an extent past the chunk cap goes plain, since list
             // framing buys it nothing
  };

  /// Moves a sorted, disjoint extent list to/from the packed buffer on
  /// `stream`, one attempt per message (see file comment). Returns the
  /// bytes moved; a read stops at the first short message (past EOF).
  template <bool IsWrite>
  std::size_t transfer(int stream, const ExtentList& extents,
                       IoSpan<IsWrite> data, Verb verb);

  /// Blocking supervision: runs `attempt` (any sequence of single-attempt
  /// pool ops) and, with retries enabled, replays it whole after a capped,
  /// jittered backoff until it succeeds, fails terminally, runs out of
  /// attempts or passes Config::Retry::op_deadline.
  template <class Fn>
  auto supervised(Fn&& attempt) {
    if (!cfg_.retry.enabled()) return attempt();
    const double start = simnet::sim_now();
    for (int n = 0;; ++n) {
      try {
        return attempt();
      } catch (...) {
        backoff_or_rethrow(std::current_exception(), n, start);
      }
    }
  }

  /// One-extent plain transfers under blocking supervision (the cache
  /// backend and the redundant read use these), and the object's size.
  std::size_t pread(int stream, MutByteSpan out, std::uint64_t offset);
  std::size_t pwrite(int stream, ByteSpan data, std::uint64_t offset);
  std::uint64_t stat_size();

  /// Coherence-generation side channel, supervised like any other op: a
  /// corrupted or dropped attribute round trip is retried (when retries are
  /// on) instead of surfacing from open()/flush(). Bumps are idempotent in
  /// effect — the counter only needs to move, not move by exactly one.
  srb::Generation read_generation();
  srb::Generation bump_generation(const std::string& writer_tag);

  /// Current client of a stream, for catalog-style side channels. Not
  /// supervised; callers run in quiescent phases (open / flush), not
  /// concurrently with stream repair.
  srb::SrbClient& client(int stream);
  const std::string& path() const { return path_; }

  /// Wire totals across the pool's lifetime, including connections retired
  /// by reconnects.
  std::uint64_t wire_bytes_sent() const;
  std::uint64_t wire_bytes_received() const;

  /// Closes descriptors and disconnects every stream. Idempotent.
  void close();

 private:
  enum class Health : int { kUp, kDown, kDead };

  /// Consecutive failed repairs before a stream is declared dead (when at
  /// least one sibling is still alive to absorb its work).
  static constexpr int kRepairFailuresBeforeDead = 2;

  struct Stream {
    std::mutex mu;  // guards every field below
    std::shared_ptr<srb::SrbClient> client;
    std::int32_t fd = -1;
    std::atomic<Health> health{Health::kUp};  // mutated under mu, read freely
    int repair_failures = 0;                  // consecutive; reset on success
    std::uint64_t retired_sent = 0;
    std::uint64_t retired_received = 0;
  };

  std::string stream_tag(int idx) const;
  /// First non-dead stream at or after `requested`; throws when none left.
  int resolve(int requested) const;
  bool alive_other(int idx) const;
  /// Re-dial + login + reopen; caller holds s.mu. Throws on failure.
  void repair_locked(Stream& s, int idx);
  void note_failure(int idx, const std::shared_ptr<srb::SrbClient>& failed);
  template <class Fn>
  auto once(int requested, Fn&& fn);
  /// supervised()'s failure arm: rethrows terminal failures, otherwise
  /// charges and sleeps the backoff before attempt `attempt` + 1.
  void backoff_or_rethrow(std::exception_ptr err, int attempt, double start);

  simnet::Fabric& fabric_;
  Config cfg_;
  std::string path_;
  std::uint32_t reopen_flags_ = 0;  // original flags minus create/trunc
  Stats* stats_;
  obs::Tracer* tracer_;
  Backoff backoff_;
  std::vector<std::unique_ptr<Stream>> streams_;
  bool closed_ = false;
};

}  // namespace remio::semplar
