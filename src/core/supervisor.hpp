// Shared pieces of the transport supervisor: the backoff schedule and the
// retry verdict used by both retry loops — the blocking one in StreamPool
// (synchronous verbs) and the non-blocking deferred-replay one in
// AsyncEngine (asynchronous verbs).
//
// Classification itself lives in the error taxonomy (common/error.hpp):
// every library exception carries ErrorInfo, and
// remio::status_from_exception(...).retryable() is the single predicate
// deciding replay vs fail-fast.
#pragma once

#include <cstdint>
#include <exception>
#include <mutex>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"

namespace remio::semplar {

/// Capped exponential backoff with multiplicative jitter. Deterministic for
/// a given seed, thread-safe. delay(k) is the wait before replaying after
/// the (k+1)-th failure: uniform in (d * (1 - jitter), d] where
/// d = min(cap, base * 2^k).
class Backoff {
 public:
  Backoff(const Config::Retry& retry, std::uint64_t seed)
      : retry_(retry), rng_(seed) {}

  double delay(int attempt);

 private:
  Config::Retry retry_;
  std::mutex mu_;
  Rng rng_;
};

/// What a supervisor does after a failed attempt: replay after `delay` sim
/// seconds, or, when `error` is set, fail the op with it.
struct RetryVerdict {
  double delay = 0.0;
  std::exception_ptr error;
};

/// The one retry decision. Attempt `attempt` (0-based) of an op that began
/// at sim time `start` failed with `err`. The op fails with `err` when the
/// error is not retryable or the attempts are used up, and with a kDeadline
/// IoError when the backoff would carry it past `retry.op_deadline`.
/// Otherwise the replay's backoff is drawn and charged to `stats` (backoff
/// time, replayed op, integrity retry); the caller waits it out.
RetryVerdict retry_verdict(const Config::Retry& retry, Backoff& backoff,
                           Stats* stats, std::exception_ptr err, int attempt,
                           double start);

}  // namespace remio::semplar
