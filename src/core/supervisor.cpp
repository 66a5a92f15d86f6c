#include "core/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "mpiio/request.hpp"
#include "simnet/timescale.hpp"

namespace remio::semplar {

double Backoff::delay(int attempt) {
  const int k = std::min(attempt, 60);  // 2^60 is already astronomically > cap
  double d = retry_.backoff_base * std::ldexp(1.0, k);
  d = std::min(d, retry_.backoff_cap);
  if (retry_.jitter <= 0.0) return d;
  std::lock_guard lk(mu_);
  return d * (1.0 - retry_.jitter * rng_.uniform());
}

RetryVerdict retry_verdict(const Config::Retry& retry, Backoff& backoff,
                           Stats* stats, std::exception_ptr err, int attempt,
                           double start) {
  const remio::Status st = remio::status_from_exception(err);
  if (!st.retryable() || attempt + 1 >= retry.max_attempts) return {0.0, err};
  const double delay = backoff.delay(attempt);
  if (retry.op_deadline > 0.0 &&
      simnet::sim_now() - start + delay > retry.op_deadline) {
    if (stats != nullptr) stats->add_deadline_expiration();
    return {0.0, std::make_exception_ptr(mpiio::IoError(
                     {remio::ErrorDomain::kDeadline, 0, /*retryable=*/false,
                      "supervise"},
                     "op deadline (" + std::to_string(retry.op_deadline) +
                         "s sim) exceeded after " +
                         std::to_string(attempt + 1) +
                         " attempts: " + st.message()))};
  }
  if (stats != nullptr) {
    stats->add_backoff(delay);
    stats->add_replayed_op();
    if (st.domain() == remio::ErrorDomain::kIntegrity)
      stats->add_integrity_retry();
  }
  return {delay, nullptr};
}

}  // namespace remio::semplar
