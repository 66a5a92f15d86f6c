#include "core/srbfs.hpp"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <vector>

#include "simnet/timescale.hpp"

namespace remio::semplar {

// ---------------------------------------------------------------------------
// SemplarFile
// ---------------------------------------------------------------------------

SemplarFile::SemplarFile(simnet::Fabric& fabric, const Config& cfg,
                         const std::string& path, std::uint32_t mode)
    : cfg_(cfg) {
  std::uint32_t srb_flags = 0;
  if (mode & mpiio::kModeRead) srb_flags |= srb::kRead;
  if (mode & mpiio::kModeWrite) srb_flags |= srb::kWrite;
  if (mode & mpiio::kModeCreate) srb_flags |= srb::kCreate;
  if (mode & mpiio::kModeTrunc) srb_flags |= srb::kTrunc;

  if (cfg_.obs.enabled)
    tracer_ = std::make_unique<obs::Tracer>(cfg_.obs.ring_capacity);
  streams_ = std::make_unique<StreamPool>(fabric, cfg_, path, srb_flags,
                                          &stats_, tracer_.get());
  // §4.3: by default one I/O thread spawned lazily on the first async call
  // (the engine resolves io_threads == 0 itself); a pre-spawned pool of
  // that many I/O threads when io_threads >= 1 is requested explicitly.
  engine_ = std::make_unique<AsyncEngine>(cfg_.io_threads, cfg_.queue_capacity,
                                          &stats_, cfg_.retry, tracer_.get(),
                                          cfg_.engine);
  if (cfg_.cache_bytes > 0) {
    static std::atomic<std::uint64_t> handle_seq{0};
    writer_tag_ = cfg_.client_host + "#" + std::to_string(++handle_seq);
    cache::CacheOptions opts;
    opts.capacity_bytes = cfg_.cache_bytes;
    opts.block_bytes = cfg_.cache_block_bytes;
    opts.readahead_blocks = cfg_.readahead_blocks;
    opts.writeback_hwm = cfg_.writeback_hwm;
    opts.verify = cfg_.integrity.cache_verify;
    cache_ = std::make_unique<cache::BlockCache>(
        *static_cast<cache::CacheBackend*>(this), opts, &stats_.cache(),
        tracer_.get());
    // Coherence baseline: whoever flushed last before this open.
    last_gen_ = streams_->read_generation();
  }
  if (tracer_ != nullptr && cfg_.obs.report_interval > 0.0) {
    reporter_ = std::make_unique<obs::TextReporter>(*tracer_, std::clog);
    reporter_->start(cfg_.obs.report_interval);
  }
}

SemplarFile::~SemplarFile() {
  engine_->shutdown();  // complete queued I/O before tearing down streams
  if (cache_ != nullptr) {
    try {
      cache_->flush();
      publish_generation();
    } catch (...) {
      // Destructor: a failed final flush has nowhere to surface. Callers
      // that care about durability call flush() and see the exception there.
    }
  }
  reporter_.reset();  // final report covers the drained engine + last flush
  streams_->close();
}

// --- CacheBackend ----------------------------------------------------------

int SemplarFile::pick_stream() {
  return static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                          static_cast<unsigned>(streams_->count()));
}

std::size_t SemplarFile::cache_pread(std::uint64_t offset, MutByteSpan out) {
  return streams_->pread(pick_stream(), out, offset);
}

std::size_t SemplarFile::cache_pwrite(std::uint64_t offset, ByteSpan data) {
  return streams_->pwrite(pick_stream(), data, offset);
}

std::uint64_t SemplarFile::cache_stat_size() { return streams_->stat_size(); }

bool SemplarFile::cache_run_async(std::function<void()> fn) {
  return engine_->try_submit([fn = std::move(fn)] {
    fn();
    return std::size_t{0};
  });
}

// --- coherence -------------------------------------------------------------

void SemplarFile::check_generation() {
  const srb::Generation now = streams_->read_generation();
  if (now != last_gen_) {
    if (now.writer != writer_tag_) cache_->invalidate();
    last_gen_ = now;
  }
}

void SemplarFile::publish_generation() {
  if (!cache_->take_wrote()) return;
  last_gen_ = streams_->bump_generation(writer_tag_);
}

// --- file verbs ------------------------------------------------------------
// The plain verbs are one-extent lists; the vectored verbs are the core.

std::size_t SemplarFile::read_at(std::uint64_t offset, MutByteSpan out) {
  return readv({Extent{offset, out.size()}}, out);
}

std::size_t SemplarFile::write_at(std::uint64_t offset, ByteSpan data) {
  return writev({Extent{offset, data.size()}}, data);
}

mpiio::IoRequest SemplarFile::iread_at(std::uint64_t offset, MutByteSpan out) {
  return ireadv({Extent{offset, out.size()}}, out);
}

mpiio::IoRequest SemplarFile::iwrite_at(std::uint64_t offset, ByteSpan data) {
  return iwritev({Extent{offset, data.size()}}, data);
}

std::size_t SemplarFile::readv(const ExtentList& extents, MutByteSpan out) {
  return run_sync<false>(extents, out);
}

std::size_t SemplarFile::writev(const ExtentList& extents, ByteSpan data) {
  return run_sync<true>(extents, data);
}

mpiio::IoRequest SemplarFile::ireadv(const ExtentList& extents,
                                     MutByteSpan out) {
  return submit<false>(extents, out);
}

mpiio::IoRequest SemplarFile::iwritev(const ExtentList& extents,
                                      ByteSpan data) {
  return submit<true>(extents, data);
}

std::uint64_t SemplarFile::size() {
  engine_->drain();  // size must reflect completed queued writes
  if (cache_ != nullptr) {
    check_generation();
    return cache_->logical_size();
  }
  return streams_->stat_size();
}

void SemplarFile::flush() {
  engine_->drain();
  if (cache_ != nullptr) {
    cache_->flush();
    publish_generation();
  }
}

namespace {

/// Records a span issued at `enqueue` whose work started at `start` and
/// ends now.
void record_span(obs::Tracer& tracer, obs::SpanKind kind, std::uint64_t op_id,
                 std::size_t bytes, double enqueue, double start) {
  obs::Span s;
  s.op_id = op_id;
  s.kind = kind;
  s.bytes = bytes;
  s.enqueue = enqueue;
  s.dequeue = s.wire_start = start;
  s.wire_end = simnet::sim_now();
  tracer.record(s);
}

template <bool IsWrite>
void count_bytes(Stats& stats, std::size_t n) {
  if constexpr (IsWrite) {
    stats.add_write(n);
  } else {
    stats.add_read(n);
  }
}

template <bool IsWrite>
std::size_t cache_transfer(cache::BlockCache& cache, const ExtentList& extents,
                           IoSpan<IsWrite> data) {
  if constexpr (IsWrite) {
    return cache.writev(extents, data);
  } else {
    return cache.readv(extents, data);
  }
}

/// Shared completion record for a striped request: the master request
/// completes when the last per-stream task finishes.
struct StripeJoin {
  std::shared_ptr<mpiio::IoRequest::State> master;
  std::atomic<int> remaining{0};
  std::atomic<std::size_t> bytes{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  obs::Tracer* tracer = nullptr;
  obs::Span span;  // request-level kIread/kIwrite: issue -> last stripe

  void finish_one() {
    if (remaining.fetch_sub(1) != 1) return;
    std::exception_ptr err;
    {
      std::lock_guard lk(error_mu);
      err = first_error;
    }
    if (tracer != nullptr) {
      span.bytes = bytes.load();
      span.wire_end = simnet::sim_now();
      tracer->record(span);
    }
    if (err)
      mpiio::IoRequest::fail(master, err);
    else
      mpiio::IoRequest::complete(master, bytes.load());
  }

  void record_error(std::exception_ptr e) {
    std::lock_guard lk(error_mu);
    if (!first_error) first_error = std::move(e);
  }
};

/// Part of one stream's share of a request: sorted, disjoint extents and
/// where their packed bytes sit in the caller's buffer.
struct Piece {
  ExtentList extents;
  std::size_t at = 0;
  std::size_t len = 0;
};

/// Splits a request across `streams` streams (§7.2): one entry per stream
/// that carries work, whose pieces run in order as one engine task. A
/// single extent stripes — stream s takes chunks s, s+S, s+2S, ... of
/// `stripe_size` bytes, or one contiguous ⌈n/S⌉ range per stream (a single
/// broker round trip each) in auto mode. A longer list keeps a count-even
/// partition, one contiguous subset per stream, so every strategy still
/// applies per stream.
std::vector<std::vector<Piece>> partition(const ExtentList& extents,
                                          int streams,
                                          std::size_t stripe_size) {
  const auto count = static_cast<std::size_t>(streams);
  std::vector<std::vector<Piece>> plan;
  if (extents.size() == 1) {
    const Extent x = extents[0];
    const auto n = static_cast<std::size_t>(x.len);
    const std::size_t stripe =
        stripe_size != Config::kAutoStripe
            ? stripe_size
            : std::max<std::size_t>(1, (n + count - 1) / count);
    // An empty request still runs one (wire-free) task on stream 0.
    plan.resize(n == 0 ? 1 : std::min(count, (n + stripe - 1) / stripe));
    for (std::size_t c = 0; c * stripe < n; ++c) {
      const std::size_t start = c * stripe;
      const std::size_t len = std::min(stripe, n - start);
      plan[c % count].push_back({{Extent{x.offset + start, len}}, start, len});
    }
    return plan;
  }
  plan.resize(std::min(count, extents.size()));
  std::size_t at = 0;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const std::size_t lo = extents.size() * k / plan.size();
    const std::size_t hi = extents.size() * (k + 1) / plan.size();
    ExtentList subset(extents.begin() + static_cast<std::ptrdiff_t>(lo),
                      extents.begin() + static_cast<std::ptrdiff_t>(hi));
    const auto len = static_cast<std::size_t>(total_bytes(subset));
    plan[k].push_back({std::move(subset), at, len});
    at += len;
  }
  return plan;
}

}  // namespace

// --- the transfer core -----------------------------------------------------

SemplarFile::Strategy SemplarFile::pick_strategy(
    const ExtentList& extents) const {
  if (extents.size() == 1) return Strategy::kNaive;
  switch (cfg_.sieve.mode) {
    case Config::Sieve::Mode::kNaive: return Strategy::kNaive;
    case Config::Sieve::Mode::kSieve: return Strategy::kSieve;
    case Config::Sieve::Mode::kList: return Strategy::kList;
    case Config::Sieve::Mode::kAuto: break;
  }
  // Auto heuristic: sieve while the hull (extents plus the holes between
  // them) is small enough that shipping the holes beats the per-extent
  // round trips; hand larger or sparser patterns to the list verb.
  return hull(extents).len <= cfg_.sieve.max_hull_bytes ? Strategy::kSieve
                                                        : Strategy::kList;
}

template <bool IsWrite>
std::size_t SemplarFile::transfer_extents(Strategy strategy, int stream,
                                          const ExtentList& extents,
                                          IoSpan<IsWrite> data) {
  using Verb = StreamPool::Verb;
  // Naive: one plain round trip per extent, no strategy span.
  if (strategy == Strategy::kNaive)
    return streams_->transfer<IsWrite>(stream, extents, data, Verb::kPlain);

  const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
  std::size_t moved = 0;
  if (strategy == Strategy::kList) {
    moved = streams_->transfer<IsWrite>(stream, extents, data, Verb::kList);
  } else {
    const Extent h = hull(extents);
    Bytes scratch(static_cast<std::size_t>(h.len));  // zero-filled
    const MutByteSpan image(scratch.data(), scratch.size());
    if constexpr (IsWrite) {
      // Read-modify-write: fetch the pre-image so the holes between
      // extents survive the hull write. Bytes past EOF stay zero, which
      // matches the broker's sparse-object semantics for a hole created
      // by extending per-extent writes.
      streams_->transfer<false>(stream, {h}, image, Verb::kPlain);
      for (const Extent& x : extents) {
        std::copy_n(data.data() + moved, static_cast<std::size_t>(x.len),
                    scratch.data() + (x.offset - h.offset));
        moved += static_cast<std::size_t>(x.len);
      }
      streams_->transfer<true>(stream, {h}, image, Verb::kPlain);
    } else {
      const std::size_t got =
          streams_->transfer<false>(stream, {h}, image, Verb::kPlain);
      for (const Extent& x : extents) {
        const std::uint64_t rel = x.offset - h.offset;
        const std::size_t avail =
            got > rel ? std::min(static_cast<std::size_t>(x.len),
                                 static_cast<std::size_t>(got - rel))
                      : 0;
        std::copy_n(scratch.data() + rel, avail, data.data() + moved);
        moved += avail;
        if (avail < x.len) break;  // short hull read: the rest is past EOF
      }
    }
  }
  if (tracer_ != nullptr) {
    // Rides the enclosing engine task's op id when there is one, so the
    // trace ties hull fetches and list batches back to their request.
    const obs::Span* op = obs::current_op_span();
    record_span(*tracer_,
                strategy == Strategy::kList ? obs::SpanKind::kListIo
                                            : obs::SpanKind::kSieve,
                op != nullptr ? op->op_id : tracer_->next_op_id(), moved, t0,
                t0);
  }
  return moved;
}

template <bool IsWrite>
std::size_t SemplarFile::run_sync(const ExtentList& extents,
                                  IoSpan<IsWrite> data) {
  if (extents.empty()) return 0;
  stats_.add_sync();
  const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
  std::size_t n = 0;
  if (cache_ != nullptr) {
    n = cache_transfer<IsWrite>(*cache_, extents, data);
  } else {
    const Strategy strategy = pick_strategy(extents);
    n = streams_->supervised([&] {
      return transfer_extents<IsWrite>(strategy, 0, extents, data);
    });
  }
  if (tracer_ != nullptr)
    record_span(*tracer_,
                IsWrite ? obs::SpanKind::kSyncWrite : obs::SpanKind::kSyncRead,
                tracer_->next_op_id(), n, t0, t0);
  count_bytes<IsWrite>(stats_, n);
  return n;
}

template <bool IsWrite>
mpiio::IoRequest SemplarFile::submit(const ExtentList& extents,
                                     IoSpan<IsWrite> data) {
  mpiio::IoRequest master = mpiio::IoRequest::make();
  if (extents.empty()) {
    mpiio::IoRequest::complete(master.state(), 0);
    return master;
  }
  constexpr obs::SpanKind kKind =
      IsWrite ? obs::SpanKind::kIwrite : obs::SpanKind::kIread;
  const double issued = tracer_ != nullptr ? simnet::sim_now() : 0.0;
  if (cache_ != nullptr) {
    // One engine task; hits complete without touching the wire, misses
    // fetch inside the cache. The request still overlaps with compute
    // exactly like the uncached async path.
    return engine_->submit([this, extents, data, issued] {
      const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
      const std::size_t n = cache_transfer<IsWrite>(*cache_, extents, data);
      if (tracer_ != nullptr)
        record_span(*tracer_, kKind, tracer_->next_op_id(), n, issued, t0);
      count_bytes<IsWrite>(stats_, n);
      return n;
    });
  }

  const Strategy strategy = pick_strategy(extents);
  std::vector<std::vector<Piece>> plan =
      partition(extents, streams_->count(), cfg_.stripe_size);
  auto join = std::make_shared<StripeJoin>();
  join->master = master.state();
  join->remaining.store(static_cast<int>(plan.size()));
  if (tracer_ != nullptr) {
    join->tracer = tracer_.get();
    join->span.op_id = tracer_->next_op_id();
    join->span.kind = kKind;
    join->span.enqueue = issued;
  }
  for (std::size_t s = 0; s < plan.size(); ++s) {
    // The task throws on failure so the engine can classify and replay it
    // (submit_supervised); it re-runs from scratch, which is safe because
    // every transfer is offset-addressed. With a dead stream the pool
    // transparently re-routes `s` onto a survivor. Join bookkeeping
    // happens in the completion — once per task, after the final attempt.
    engine_->submit_supervised(
        [this, strategy, stream = static_cast<int>(s),
         pieces = std::move(plan[s]), data] {
          std::size_t moved = 0;
          for (const Piece& p : pieces)
            moved += transfer_extents<IsWrite>(strategy, stream, p.extents,
                                               data.subspan(p.at, p.len));
          return moved;
        },
        [this, join](std::size_t moved, std::exception_ptr err) {
          if (err == nullptr) {
            join->bytes.fetch_add(moved);
            count_bytes<IsWrite>(stats_, moved);
          } else {
            join->record_error(err);
          }
          join->finish_one();
        });
  }
  return master;
}

namespace {

/// Shared state of a redundant read: first completion wins and publishes
/// into the caller's buffer; every task owns a scratch buffer so losers
/// never race on `out`.
struct RedundantJoin {
  std::shared_ptr<mpiio::IoRequest::State> master;
  MutByteSpan out;
  std::mutex mu;
  bool won = false;
  int remaining = 0;
  std::exception_ptr last_error;

  /// Returns true if this task is the winner.
  bool finish_one(const Bytes* scratch, std::size_t n, std::exception_ptr err) {
    std::unique_lock lk(mu);
    --remaining;
    if (err) {
      last_error = std::move(err);
      if (remaining == 0 && !won) {
        // Every stream failed: surface the last error.
        lk.unlock();
        mpiio::IoRequest::fail(master, last_error);
      }
      return false;
    }
    if (won) return false;
    won = true;
    std::copy_n(scratch->data(), std::min(n, out.size()), out.data());
    lk.unlock();
    mpiio::IoRequest::complete(master, n);
    return true;
  }
};

}  // namespace

mpiio::IoRequest SemplarFile::iread_redundant(std::uint64_t offset, MutByteSpan out) {
  // The cache holds this handle's unflushed writes; racing the streams
  // would read around them.
  if (cache_ != nullptr) return iread_at(offset, out);
  mpiio::IoRequest master = mpiio::IoRequest::make();
  const int stream_count = streams_->count();

  auto join = std::make_shared<RedundantJoin>();
  join->master = master.state();
  join->out = out;
  join->remaining = stream_count;

  for (int s = 0; s < stream_count; ++s) {
    // Scratch buffer per stream: losers write somewhere harmless.
    auto scratch = std::make_shared<Bytes>(out.size());
    engine_->submit([this, join, scratch, s, offset] {
      std::size_t n = 0;
      std::exception_ptr err;
      try {
        n = streams_->pread(s, MutByteSpan(scratch->data(), scratch->size()), offset);
      } catch (...) {
        err = std::current_exception();
      }
      if (join->finish_one(scratch.get(), n, std::move(err))) stats_.add_read(n);
      return std::size_t{0};
    });
  }
  return master;
}

// ---------------------------------------------------------------------------
// SrbfsDriver
// ---------------------------------------------------------------------------

SrbfsDriver::SrbfsDriver(simnet::Fabric& fabric, Config cfg)
    : fabric_(fabric), cfg_(std::move(cfg)) {
  validate(cfg_);
}

std::unique_ptr<mpiio::adio::FileHandle> SrbfsDriver::open(const std::string& path,
                                                           std::uint32_t mode) {
  return std::make_unique<SemplarFile>(fabric_, cfg_, path, mode);
}

std::unique_ptr<srb::SrbClient> SrbfsDriver::catalog_client() {
  // Logs in like the data streams, so a tenant's namespace operations stay
  // inside its carve-out.
  return std::make_unique<srb::SrbClient>(
      fabric_, cfg_.client_host, cfg_.server_host, cfg_.server_port, cfg_.conn,
      "semplar-catalog", cfg_.tenant, cfg_.integrity.wire_checksums);
}

void SrbfsDriver::remove(const std::string& path) {
  catalog_client()->unlink(path);
}

bool SrbfsDriver::exists(const std::string& path) {
  return catalog_client()->stat(path).has_value();
}

}  // namespace remio::semplar
