#include "core/async_engine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "simnet/timescale.hpp"

namespace remio::semplar {

namespace {

// "No worker has picked this task up yet" sentinel for Span::dequeue.
// Negative so it can never collide with a real timestamp — sim time 0.0 is
// a legitimate dequeue time for the first op of a run.
constexpr double kDequeueUnset = -1.0;

// The engine whose worker runs on this thread (null elsewhere). A worker's
// own submit() (prefetch chains, nested speculation) must not block on the
// queue only the workers drain.
thread_local const AsyncEngine* tls_engine = nullptr;

std::exception_ptr shut_down_error() {
  return std::make_exception_ptr(mpiio::IoError("engine shut down"));
}

}  // namespace

// One queued task, heap-allocated at submit; the thread that settles it
// deletes it.
struct AsyncEngine::Item {
  Task task;
  std::shared_ptr<mpiio::IoRequest::State> state;  // null for try_submit
  Completion done;
  bool supervised = false;
  int attempt = 0;         // completed attempts (replay counter)
  int gen_slot = 0;        // drain-ledger slot claimed at enqueue
  double start_sim = 0.0;  // first submission, for the op deadline
  obs::Span span;
};

// ---------------------------------------------------------------------------
// Engine lifecycle

AsyncEngine::AsyncEngine(int io_threads, std::size_t queue_capacity,
                         Stats* stats, const Config::Retry& retry,
                         obs::Tracer* tracer, const Config::Engine&)
    : threads_(io_threads <= 0 ? 1 : io_threads),
      lazy_(io_threads <= 0),
      capacity_(queue_capacity),
      stats_(stats),
      tracer_(tracer),
      retry_(retry),
      backoff_(retry, 0xa57eu) {
  if (io_threads < 0 || io_threads > 256)
    throw std::invalid_argument("AsyncEngine: io_threads out of range [0, 256]");
  if (queue_capacity == 0)
    throw std::invalid_argument("AsyncEngine: queue_capacity must be > 0");
  if (!lazy_) {
    std::lock_guard lk(mu_);
    spawn_locked();
  }
}

AsyncEngine::~AsyncEngine() { shutdown(); }

void AsyncEngine::spawn_locked() {
  // §4.3: in the lazy configuration the first asynchronous call spawns the
  // worker. Never after shutdown: nobody would join the threads.
  if (!workers_.empty() || closed_) return;
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int i = 0; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void AsyncEngine::shutdown() {
  // call_once: a concurrent second caller returns only after the joins.
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
    timer_cv_.notify_all();
    // workers_ and timer_ only change under mu_ while !closed_, so they
    // are stable from here. The timer fails what is still parked; the
    // workers run the queue dry, then exit.
    if (timer_.joinable()) timer_.join();
    for (auto& t : workers_) t.join();
  });
}

void AsyncEngine::drain() {
  // Flip the generation, then wait for the snapshot slot to empty. The
  // other slot is zero here (the previous drain waited it out and nothing
  // has been stamped into it since), so the wait covers exactly the work
  // enqueued before the flip — including parked replays, whose claim
  // stands until their final outcome.
  std::unique_lock lk(mu_);
  drain_cv_.wait(lk, [this] { return !draining_; });
  draining_ = true;
  const int slot = drain_gen_;
  drain_gen_ ^= 1;
  drain_cv_.wait(lk, [this, slot] { return outstanding_[slot] == 0; });
  draining_ = false;
  drain_cv_.notify_all();
}

void AsyncEngine::release_locked(int gen_slot) {
  if (--outstanding_[gen_slot] == 0 && draining_) drain_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Submission

AsyncEngine::Item* AsyncEngine::make_item(
    Task task, std::shared_ptr<mpiio::IoRequest::State> state) {
  auto* item = new Item();
  item->task = std::move(task);
  item->state = std::move(state);
  if (tracer_ != nullptr) {
    item->span.op_id = tracer_->next_op_id();
    item->span.kind = obs::SpanKind::kTask;
    item->span.enqueue = simnet::sim_now();
    item->span.dequeue = kDequeueUnset;
  }
  return item;
}

bool AsyncEngine::enqueue(Item* item, bool blocking) {
  // On success the engine owns the item. On failure (closed, or full in
  // non-blocking mode) the caller still owns it. Everything under the lock
  // is pointer-sized: the Item was built outside it.
  const bool own_worker = tls_engine == this;
  {
    std::unique_lock lk(mu_);
    spawn_locked();
    if (blocking && !own_worker)
      space_cv_.wait(lk, [this] { return closed_ || queue_.size() < capacity_; });
    if (closed_ || (!blocking && queue_.size() >= capacity_)) return false;
    item->gen_slot = drain_gen_;
    ++outstanding_[drain_gen_];
    queue_.push_back(item);
    if (tracer_ != nullptr) tracer_->gauge(obs::GaugeId::kQueueDepth).add(1);
    if (stats_ != nullptr) stats_->note_queue_depth(queue_.size());
    wake_locked();
  }
  return true;
}

void AsyncEngine::wake_locked() {
  // One wake in flight at a time: the woken worker passes it on while work
  // remains (worker_loop), so a burst of submits costs one futex wake per
  // idle worker instead of one per task. Without this every submit to an
  // idle pool paid a condvar wake plus a contended unlock, and one-producer
  // BM_EngineSubmitMPMC ran 2.5x slower. Notifying under the lock also
  // measured faster than after it.
  if (idle_ > 0 && !waking_) {
    waking_ = true;
    work_cv_.notify_one();
  }
}

mpiio::IoRequest AsyncEngine::submit(Task task) {
  return submit_item(std::move(task), {}, /*supervised=*/false);
}

mpiio::IoRequest AsyncEngine::submit_supervised(Task task, Completion done) {
  return submit_item(std::move(task), std::move(done), /*supervised=*/true);
}

mpiio::IoRequest AsyncEngine::submit_item(Task task, Completion done,
                                          bool supervised) {
  mpiio::IoRequest req = mpiio::IoRequest::make();
  Item* item = make_item(std::move(task), req.state());
  item->done = std::move(done);
  item->supervised = supervised;
  if (supervised) item->start_sim = simnet::sim_now();
  if (stats_ != nullptr) stats_->add_task();
  if (!enqueue(item, /*blocking=*/true)) {
    const auto err = shut_down_error();
    mpiio::IoRequest::fail(item->state, err);
    if (item->done) item->done(0, err);
    delete item;
  }
  return req;
}

bool AsyncEngine::try_submit(Task task) {
  // Nobody waits on a speculative task, so it carries no request.
  Item* item = make_item(std::move(task), nullptr);
  if (!enqueue(item, /*blocking=*/false)) {
    delete item;
    return false;
  }
  if (stats_ != nullptr) stats_->add_task();
  return true;
}

// ---------------------------------------------------------------------------
// Workers

void AsyncEngine::worker_loop() {
  tls_engine = this;
  std::unique_lock lk(mu_);
  for (;;) {
    while (!closed_ && queue_.empty()) {
      ++idle_;
      work_cv_.wait(lk);
      --idle_;
      waking_ = false;
    }
    if (queue_.empty()) return;  // closed and run dry
    Item* item = queue_.front();
    queue_.pop_front();
    if (!queue_.empty()) wake_locked();
    if (queue_.size() < capacity_) space_cv_.notify_one();
    lk.unlock();
    // Read the slot first: a finished item is deleted, and a parked one
    // may finish on another worker before we get the lock back.
    const int slot = item->gen_slot;
    const bool settled = run_item(item);
    lk.lock();
    if (settled) release_locked(slot);
  }
}

bool AsyncEngine::run_item(Item* item) {
  // Touch the sim clock only when someone consumes the timestamps: with
  // neither stats nor tracer attached, a task executes without any clock
  // reads on the hot path.
  const bool timed = stats_ != nullptr || tracer_ != nullptr;
  const double t0 = timed ? simnet::sim_now() : 0.0;
  if (tracer_ != nullptr) {
    tracer_->gauge(obs::GaugeId::kQueueDepth).add(-1);
    // First pickup only: a replayed task keeps its original dequeue so the
    // span's queue_wait measures the first queue residency.
    if (item->span.dequeue < 0.0) item->span.dequeue = t0;
  }
  std::size_t n = 0;
  std::exception_ptr err;
  {
    // Expose the task span to deeper layers (StreamPool stamps wire_start
    // on the first transfer this task performs).
    obs::ScopedOpSpan op(tracer_ != nullptr ? &item->span : nullptr);
    try {
      n = item->task();
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (stats_ != nullptr) stats_->add_busy(simnet::sim_now() - t0);
  if (err == nullptr) {
    finish(item, n, nullptr);
    return true;
  }
  return handle_failure(item, err);
}

// ---------------------------------------------------------------------------
// Completion and supervision

void AsyncEngine::finish(Item* item, std::size_t n, std::exception_ptr err) {
  if (tracer_ != nullptr) {
    // Failed tasks record too — the no-orphans invariant (every submitted
    // op has a span after drain) holds on the failure path.
    item->span.bytes = n;
    item->span.wire_end = simnet::sim_now();
    tracer_->record(item->span);
  }
  if (item->state != nullptr) {
    if (err == nullptr)
      mpiio::IoRequest::complete(item->state, n);
    else
      mpiio::IoRequest::fail(item->state, err);
  }
  if (item->done) item->done(n, err);
  delete item;
}

bool AsyncEngine::handle_failure(Item* item, std::exception_ptr err) {
  if (!item->supervised || !retry_.enabled()) {
    finish(item, 0, err);
    return true;
  }
  const remio::Status st = remio::status_from_exception(err);
  if (!st.retryable() || item->attempt + 1 >= retry_.max_attempts) {
    finish(item, 0, err);
    return true;
  }
  const double delay = backoff_.delay(item->attempt);
  if (retry_.op_deadline > 0.0 &&
      simnet::sim_now() - item->start_sim + delay > retry_.op_deadline) {
    if (stats_ != nullptr) stats_->add_deadline_expiration();
    finish(item, 0,
           std::make_exception_ptr(mpiio::IoError(
               {remio::ErrorDomain::kDeadline, 0, /*retryable=*/false,
                "supervise"},
               "op deadline (" + std::to_string(retry_.op_deadline) +
                   "s sim) exceeded after " +
                   std::to_string(item->attempt + 1) +
                   " attempts: " + st.message())));
    return true;
  }
  ++item->attempt;
  if (stats_ != nullptr) {
    stats_->add_backoff(delay);
    stats_->add_replayed_op();
    if (st.domain() == remio::ErrorDomain::kIntegrity)
      stats_->add_integrity_retry();
  }
  const double now = simnet::sim_now();
  if (tracer_ != nullptr) {
    // The parked interval [now, now + delay): visible in the trace as a
    // backoff lane under the same op id as the task being replayed.
    obs::Span park;
    park.op_id = item->span.op_id;
    park.kind = obs::SpanKind::kBackoff;
    park.enqueue = park.dequeue = park.wire_start = now;
    park.wire_end = now + delay;
    tracer_->record(park);
  }
  {
    std::lock_guard lk(mu_);
    if (!closed_) {
      if (!timer_.joinable()) timer_ = std::thread([this] { timer_loop(); });
      if (tracer_ != nullptr)
        tracer_->gauge(obs::GaugeId::kDeferredBacklog).add(1);
      deferred_.push(Deferred{now + delay, item});
      timer_cv_.notify_one();
      return false;
    }
  }
  finish(item, 0, shut_down_error());
  return true;
}

void AsyncEngine::timer_loop() {
  std::unique_lock lk(mu_);
  while (!closed_) {
    if (deferred_.empty()) {
      timer_cv_.wait(lk);
      continue;
    }
    const double due = deferred_.top().due;
    if (simnet::sim_now() < due) {
      timer_cv_.wait_until(lk, simnet::wall_deadline(due));
      continue;
    }
    // Back onto the FIFO behind whatever is queued, for whichever worker
    // frees up first. The replay was admitted at its first submission, so
    // it does not wait for room again, and its ledger claim still stands.
    Item* item = deferred_.top().item;
    deferred_.pop();
    queue_.push_back(item);
    if (tracer_ != nullptr) {
      tracer_->gauge(obs::GaugeId::kDeferredBacklog).add(-1);
      tracer_->gauge(obs::GaugeId::kQueueDepth).add(1);
    }
    if (stats_ != nullptr) stats_->note_queue_depth(queue_.size());
    wake_locked();
  }
  // Shutdown: fail what is still parked instead of waiting out backoffs.
  // Nothing new can park once closed_ is set.
  while (!deferred_.empty()) {
    Item* item = deferred_.top().item;
    deferred_.pop();
    if (tracer_ != nullptr)
      tracer_->gauge(obs::GaugeId::kDeferredBacklog).add(-1);
    const int slot = item->gen_slot;
    lk.unlock();
    finish(item, 0, shut_down_error());
    lk.lock();
    release_locked(slot);
  }
}

}  // namespace remio::semplar
