// Token-bucket shaped resource. One instance models any shared capacity in
// the testbed: a node NIC, the node's I/O bus (shared by the cluster
// interconnect and the WAN NIC — the §7.1 contention result), a cluster
// uplink, the OSC NAT host, one of orion's GigE NICs, or the server disk.
// Rates are in bytes per *simulated* second (see timescale.hpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

namespace remio::simnet {

class TokenBucket {
 public:
  /// rate_bps == 0 means unlimited (acquire never blocks).
  /// burst defaults to 50 ms worth of tokens (min 64 KiB).
  TokenBucket(double rate_bytes_per_sim_sec, double burst_bytes = 0.0,
              std::string name = "");

  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Blocks until n tokens are available, then consumes them. Waiters are
  /// served in arrival order, so concurrent users share the rate fairly
  /// even when one of them is slow to wake.
  /// `traffic_class` (0..3) identifies who is charging; see set_contention.
  void acquire(std::uint64_t n, int traffic_class = 0);

  /// Models *destructive* contention — PCI-bus arbitration overhead and the
  /// TCP-starvation collapse the paper hits when the interconnect NIC and
  /// the Ethernet NIC share a node's I/O bus (§7.1). While traffic from
  /// more than one class has touched the bucket within the last
  /// `window_sim` simulated seconds, the refill rate is multiplied by
  /// `penalty` (0 < penalty <= 1). Distinct from fair sharing, which costs
  /// nothing in aggregate.
  void set_contention(double penalty, double window_sim = 0.5);

  /// Consumes up to n tokens immediately; returns how many were taken.
  std::uint64_t try_acquire(std::uint64_t n);

  double rate() const { return rate_; }
  const std::string& name() const { return name_; }

  /// Total tokens ever consumed (for tests / stats).
  std::uint64_t consumed() const;

 private:
  static constexpr int kMaxClasses = 4;

  void refill_locked(double now_sim);
  double effective_rate_locked(double now_sim) const;

  const double rate_;
  const double burst_;
  const std::string name_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  double tokens_;
  double last_refill_sim_;
  // Ticket queue: each installment takes a ticket and only the ticket being
  // served waits on the clock; the rest wait for their turn.
  std::uint64_t next_ticket_ = 0;
  std::uint64_t serving_ = 0;
  std::uint64_t consumed_ = 0;

  double contention_penalty_ = 1.0;
  double contention_window_ = 0.5;
  double last_seen_[kMaxClasses] = {-1e18, -1e18, -1e18, -1e18};
  int queued_[kMaxClasses] = {0, 0, 0, 0};  // waiting installments per class
};

}  // namespace remio::simnet
