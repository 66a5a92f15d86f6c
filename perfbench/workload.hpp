// Entry points of the three benchmark workloads and the end-to-end metric
// set they all report (see README.md for what each metric means per
// workload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// End-to-end figures of one measured run.
struct E2e {
  double setup_s = 0.0;
  double write_MBps = 0.0;
  double read_MBps = 0.0;
  double ops_per_s = 0.0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p50_us = 0.0;
  double write_p99_us = 0.0;
  double cpu_s_per_GB = 0.0;
  double peak_rss_MB = 0.0;
  double sim_makespan_s = 0.0;
  double overlap_pct = 0.0;
  double sim_ckpt_MBps = 0.0;
  std::uint64_t read_samples = 0;
  std::uint64_t write_samples = 0;
};

/// Field-wise median of several measurements; sample counts are summed.
E2e median_e2e(const std::vector<E2e>& parts);
/// Field-wise best (max or min, by the metric's direction) of several
/// measurements; sample counts are summed.
E2e best_e2e(const std::vector<E2e>& parts);

/// Every end-to-end metric with its unit, in BENCHMARK.json order.
Metrics e2e_metrics(const E2e& e);

/// obs.trace_overhead_pct.<metric>: how much each measured-phase metric of
/// the traced run differs from the untraced run, in percent of the latter.
void add_trace_overhead(Metrics& out, const E2e& untraced, const E2e& traced);

Result run_bulk_shared(const Args& args);
Result run_small_mix(const Args& args);
Result run_das2_ckpt(const Args& args);

}  // namespace perfbench
