// Layer peel: replays a workload's request size directly against each
// layer's public entry point on an unshaped fabric, one request at a time,
// from the top (mpiio::File) down to the object store. The difference
// between adjacent levels is that layer's self time; what the loaded
// workload's per-op latency adds on top of their sum is the residual
// (queueing under concurrency, and on das2_ckpt the shaped WAN).
#pragma once

#include <cstddef>

#include "common.hpp"

namespace perfbench {

struct PeelConfig {
  int streams = 1;
  int io_threads = 0;
  std::size_t op_bytes = 4096;  // application request; each stream moves op/streams
};

/// Loaded-run figures the residual is taken against (median issue->wait
/// latency per direction, microseconds).
struct PeelTarget {
  double read_p50_us = 0.0;
  double write_p50_us = 0.0;
};

/// Runs every peel level and appends its per-layer metrics to `out`;
/// prints the per-layer table (count, busy time, per-op time, self time)
/// to stdout. A failing peel op throws.
void run_peel(const PeelConfig& cfg, const PeelTarget& target, Metrics& out);

}  // namespace perfbench
