// Shared plumbing of the repo benchmark: metric output, order statistics,
// process counters and the closed-loop request loop every workload uses
// to push load through mpiio::File.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "mpiio/file.hpp"

namespace perfbench {

using remio::ByteSpan;
using remio::MutByteSpan;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return items_; }
  /// Value of `name`; throws std::out_of_range when absent.
  double get(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// Prints a titled name / value / unit table to stdout.
void print_metrics(const std::string& title, const Metrics& m);

/// Quantile q in [0, 1] of `v` (nearest rank); 0 when empty. Reorders v.
double quantile(std::vector<float>& v, double q);
double median(std::vector<double> v);
/// The tail percentile reported as "p99": the 99th, or, with fewer than
/// 1000 samples, the highest percentile that still has ten samples beyond
/// it. Reorders v.
double tail_quantile(std::vector<float>& v);

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds();
/// Peak resident set of the process, MB (2^20 bytes).
double peak_rss_mb();

/// splitmix64 finalizer: decorrelates seeds, offsets and versions.
std::uint64_t mix64(std::uint64_t x);

// --- closed loop -----------------------------------------------------------

/// One application request of a generated op stream.
struct LoopOp {
  bool write = false;
  std::uint64_t offset = 0;
  std::size_t bytes = 0;
  /// Workload-private tag travelling with the request (small_mix: the
  /// version floor a read must observe).
  std::uint64_t aux = 0;
};

/// What one rank measured in one phase.
struct LoopStats {
  std::vector<float> read_us;   // issue call -> wait() returned, per read
  std::vector<float> write_us;  // same, per write
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errors, short transfers and content mismatches
  // Traced runs only: time inside the issue calls and inside wait().
  std::uint64_t issues = 0;
  double issue_s = 0.0;
  double wait_s = 0.0;

  void merge(const LoopStats& o);
};

/// The per-rank op stream of a workload. `next` yields ops in order (false
/// once the stream ends); `conflicts` says whether `op` may not be issued
/// while `pending` is outstanding; `fill` writes a write's payload into its
/// buffer; `complete` checks a finished op (reads: contents) and returns
/// whether it is correct.
struct OpSource {
  std::function<bool(LoopOp&)> next;
  std::function<bool(const LoopOp& op, const LoopOp& pending)> conflicts;
  std::function<void(LoopOp&, MutByteSpan)> fill;
  std::function<bool(const LoopOp&, ByteSpan)> complete;
  std::size_t max_bytes = 0;
};

/// The conflict rule both unshaped workloads use: a request may not be
/// issued while an overlapping request of the same rank is outstanding if
/// either of them writes (MPI-IO leaves the order of such pairs undefined).
bool overlapping_write(const LoopOp& op, const LoopOp& pending);

/// Issues `src` against `file` with at most `window` requests outstanding:
/// past the window the rank waits for its oldest request first. Stops
/// issuing at `deadline` (or when the stream ends) and drains. `traced`
/// additionally times the issue and wait calls themselves.
void closed_loop(remio::mpiio::File& file, OpSource& src, int window,
                 Clock::time_point deadline, bool traced, LoopStats& st);

}  // namespace perfbench
