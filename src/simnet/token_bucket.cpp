#include "simnet/token_bucket.hpp"

#include <algorithm>
#include <chrono>

#include "simnet/timescale.hpp"

namespace remio::simnet {

namespace {
double default_burst(double rate) {
  const double fifty_ms = rate * 0.05;
  return std::max(fifty_ms, 64.0 * 1024.0);
}
}  // namespace

TokenBucket::TokenBucket(double rate_bytes_per_sim_sec, double burst_bytes,
                         std::string name)
    : rate_(rate_bytes_per_sim_sec),
      burst_(burst_bytes > 0 ? burst_bytes : default_burst(rate_bytes_per_sim_sec)),
      name_(std::move(name)),
      tokens_(burst_),
      last_refill_sim_(sim_now()) {}

void TokenBucket::set_contention(double penalty, double window_sim) {
  std::lock_guard lk(mu_);
  contention_penalty_ = std::clamp(penalty, 0.01, 1.0);
  contention_window_ = window_sim;
}

double TokenBucket::effective_rate_locked(double now_sim) const {
  if (contention_penalty_ >= 1.0) return rate_;
  int active = 0;
  for (int c = 0; c < kMaxClasses; ++c)
    if (queued_[c] > 0 || now_sim - last_seen_[c] <= contention_window_)
      ++active;
  return active >= 2 ? rate_ * contention_penalty_ : rate_;
}

void TokenBucket::refill_locked(double now_sim) {
  const double dt = now_sim - last_refill_sim_;
  if (dt > 0) {
    tokens_ = std::min(burst_, tokens_ + dt * effective_rate_locked(now_sim));
    last_refill_sim_ = now_sim;
  }
}

void TokenBucket::acquire(std::uint64_t n, int traffic_class) {
  if (rate_ <= 0.0 || n == 0) return;  // unlimited resource
  const int cls = std::clamp(traffic_class, 0, kMaxClasses - 1);
  std::unique_lock lk(mu_);
  // Requests larger than the burst are consumed in burst-sized
  // installments, each waiting for its refill — an idle TCP connection
  // still pays ~ceil(n / window) round trips for a multi-window message.
  // Every installment queues behind those already waiting, so concurrent
  // users interleave fairly between installments: a user the host keeps
  // off-CPU loses no share to one that returns for more first.
  double remaining = static_cast<double>(n);
  while (remaining > 0) {
    const double want = std::min(remaining, burst_);
    const std::uint64_t ticket = next_ticket_++;
    ++queued_[cls];  // a queued class counts as active for contention
    cv_.wait(lk, [&] { return serving_ == ticket; });
    for (;;) {
      const double now = sim_now();
      last_seen_[cls] = now;
      refill_locked(now);
      if (tokens_ >= want) break;
      const double deficit = want - tokens_;
      const double rate_now = effective_rate_locked(now);
      const double ready_sim = now + deficit / rate_now;
      // Floor the re-sleep at a little wall time: the computed deadline can
      // be microseconds away, and waking that often degenerates into a
      // futex storm that starves the whole process.
      const auto deadline = std::max(
          wall_deadline(ready_sim),
          std::chrono::steady_clock::now() + std::chrono::microseconds(300));
      cv_.wait_until(lk, deadline);
    }
    tokens_ -= want;
    remaining -= want;
    --queued_[cls];
    ++serving_;
    cv_.notify_all();
  }
  consumed_ += n;
}

std::uint64_t TokenBucket::try_acquire(std::uint64_t n) {
  if (rate_ <= 0.0) return n;
  std::lock_guard lk(mu_);
  refill_locked(sim_now());
  const auto avail = static_cast<std::uint64_t>(std::max(0.0, tokens_));
  const std::uint64_t take = std::min(n, avail);
  tokens_ -= static_cast<double>(take);
  consumed_ += take;
  return take;
}

std::uint64_t TokenBucket::consumed() const {
  std::lock_guard lk(mu_);
  return consumed_;
}

}  // namespace remio::simnet
