// The multi-threaded asynchronous core of SEMPLAR (Fig. 2 / §4.2–4.3): one
// FIFO I/O queue under one mutex, drained by N dedicated I/O threads that
// each make one blocking call per task. Idle workers sleep on a condvar, so
// an idle pool costs nothing and a submit wakes one worker (§4.3's
// no-busy-wait requirement). Every task is a blocking wire call lasting
// milliseconds or more, so the lock is never the bottleneck (EXPERIMENTS.md
// measures its submit cost). With one worker (the lazy §7.1 configuration)
// tasks execute in submission order.
//
// Supervision (Config::Retry enabled): tasks submitted through
// submit_supervised() that fail with a *retryable* error (see
// common/error.hpp) are not failed immediately. They are parked in a
// deferred min-heap keyed by their backoff due-time and put back on the
// FIFO by a timer thread when the backoff elapses — workers never sleep on
// a backoff, so unrelated queued requests keep flowing while a failed one
// waits out its delay. A replayed task may complete on a different worker
// than its first attempt; its kTask span still records exactly once, with
// queue residency measured from the first submission.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/fixed_function.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "core/supervisor.hpp"
#include "mpiio/request.hpp"
#include "obs/tracer.hpp"

namespace remio::semplar {

class AsyncEngine {
 public:
  /// A task performs one synchronous I/O call and returns bytes moved.
  /// Stored inline when the captures fit; FixedFunction (not std::function)
  /// because callers capture move-only state.
  using Task = FixedFunction<std::size_t(), 104>;
  /// Invoked exactly once with the task's *final* outcome — after any
  /// replays — with (bytes, error); error is null on success. Runs on a
  /// worker thread; must not block on the engine.
  using Completion = FixedFunction<void(std::size_t, std::exception_ptr), 56>;

  /// io_threads follows the Config convention directly: 0 = one worker
  /// spawned lazily on the first asynchronous call (§7.1); >= 1 = that
  /// many pre-spawned workers (§7.2 uses one per stream). `retry`
  /// (default: disabled) enables the deferred-replay supervisor for
  /// submit_supervised() tasks. `tracer` (optional) records a kTask span
  /// per task — queue residency through final completion across replays —
  /// plus queue-depth / deferred-backlog gauges and a kBackoff span per
  /// parked replay. The Config::Engine argument is unused: the FIFO pool
  /// has no tuning knobs, and the parameter stays so existing callers that
  /// pass Config::engine keep compiling.
  AsyncEngine(int io_threads, std::size_t queue_capacity,
              Stats* stats = nullptr, const Config::Retry& retry = {},
              obs::Tracer* tracer = nullptr, const Config::Engine& = {});
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Enqueues the task; returns the completion handle (MPIO_Wait/Test on
  /// it). Blocks while the queue is at capacity — except on one of this
  /// engine's own workers (a prefetch chain), which enqueues past capacity
  /// so a worker can never deadlock on its own backlog. A failed task fails
  /// its request on the first error (no replay).
  mpiio::IoRequest submit(Task task);

  /// Like submit(), but retryable failures are replayed after a capped,
  /// jittered backoff (without occupying a worker while waiting). The
  /// task must be idempotent — it re-runs from scratch, possibly on a
  /// different worker. `done`, if set, observes the final outcome (for
  /// striped-join bookkeeping).
  mpiio::IoRequest submit_supervised(Task task, Completion done = {});

  /// Non-blocking fire-and-forget enqueue for speculative work (cache
  /// read-ahead): returns false instead of waiting when the queue is full
  /// or the engine is shut down, on every thread. The task's result and
  /// any exception are discarded.
  bool try_submit(Task task);

  /// Blocks until everything enqueued so far has completed — including
  /// deferred replays still waiting out a backoff. A snapshot barrier, not
  /// quiescence: tasks submitted by other threads *after* the call starts
  /// are not waited for, so drain() returns in bounded time even against a
  /// continuous submit stream that never lets the engine go idle.
  void drain();

  /// Stops accepting work, drains, joins. Pending deferred replays are
  /// failed immediately (shutdown does not wait out backoffs). Idempotent;
  /// called by dtor.
  void shutdown();

  /// Effective worker count — always >= 1, resolving the lazy-0
  /// convention exactly like Config::effective_io_threads() (a lazy
  /// engine reports 1 whether or not its worker has spawned yet).
  int thread_count() const { return threads_; }

  /// True when constructed with io_threads == 0 (worker spawns on the
  /// first asynchronous call).
  bool lazy() const { return lazy_; }

 private:
  struct Item;  // one queued task + its request state + span

  struct Deferred {
    double due;  // sim time at which the replay may run
    Item* item;
  };
  struct DeferredLater {
    bool operator()(const Deferred& a, const Deferred& b) const {
      return a.due > b.due;  // min-heap on due time
    }
  };

  mpiio::IoRequest submit_item(Task task, Completion done, bool supervised);
  Item* make_item(Task task, std::shared_ptr<mpiio::IoRequest::State> state);
  bool enqueue(Item* item, bool blocking);
  void spawn_locked();
  void wake_locked();
  void worker_loop();
  bool run_item(Item* item);         // false: parked for a replay
  bool handle_failure(Item* item, std::exception_ptr err);
  void finish(Item* item, std::size_t n, std::exception_ptr err);
  void timer_loop();
  void release_locked(int gen_slot);

  const int threads_;  // effective worker count (>= 1)
  const bool lazy_;
  const std::size_t capacity_;
  Stats* stats_;
  obs::Tracer* tracer_;
  const Config::Retry retry_;
  Backoff backoff_;
  std::once_flag shutdown_once_;

  // Everything below is guarded by mu_.
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue_ non-empty or closed_
  std::condition_variable space_cv_;  // external submitters: room in queue_
  std::condition_variable timer_cv_;  // timer: new deferral or closed_
  std::condition_variable drain_cv_;  // drainers: ledger slot hit zero
  std::deque<Item*> queue_;
  int idle_ = 0;         // workers blocked on work_cv_
  bool waking_ = false;  // a work_cv_ notify not yet taken by a worker
  bool closed_ = false;

  // Deferred replays (supervision), re-queued by timer_.
  std::priority_queue<Deferred, std::vector<Deferred>, DeferredLater> deferred_;

  // drain()'s snapshot barrier: a two-slot generation ledger instead of a
  // completed-count (a count also counts tasks submitted AFTER the
  // snapshot, which could satisfy the barrier while a slow pre-snapshot
  // task was still running). Each enqueue stamps its Item with drain_gen_
  // and raises that slot's count; the final completion lowers it. drain()
  // flips drain_gen_ and waits for the old slot to reach zero; later
  // submissions land in the new slot and can never satisfy it. Drains run
  // one at a time (draining_), so the other slot is always zero at a flip.
  int drain_gen_ = 0;
  std::int64_t outstanding_[2] = {0, 0};
  bool draining_ = false;

  // Threads last: they use every member above. The timer thread is
  // spawned on the first deferral, so fault-free runs never pay for it.
  std::vector<std::thread> workers_;  // empty until spawned
  std::thread timer_;
};

}  // namespace remio::semplar
