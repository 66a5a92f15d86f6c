// Driver shared by the two unshaped workloads: set-up (testbed, broker,
// logins, opens, preload), timed phases of closed-loop ranks, metric
// derivation, the traced run with its layer peel, and the determinism
// self-test. A workload only supplies its shape and per-rank op sources.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common.hpp"
#include "workload.hpp"

namespace perfbench {

struct Shape {
  int ranks = 2;
  int streams = 1;
  int io_threads = 0;
  int window = 4;                 // outstanding requests per rank
  std::size_t op_bytes = 4096;    // application request size (peel size)
  std::string path;               // the one shared file
  int phases = 1;                 // timed phases, run in order
};

class UnshapedWorkload {
 public:
  virtual ~UnshapedWorkload() = default;
  virtual const Shape& shape() const = 0;
  /// Writes rank's share of the file's initial contents (part of set-up).
  virtual OpSource preload(int rank) = 0;
  /// Rank's op stream in timed phase `phase`. Sources of one object share
  /// its verification state, so phases must run in order.
  virtual OpSource phase(int phase, int rank) = 0;
};

/// Builds a workload's inputs from the seed.
using WorkloadFactory = std::function<std::unique_ptr<UnshapedWorkload>(std::uint64_t seed)>;

Result run_unshaped(const WorkloadFactory& make, const Args& args);

}  // namespace perfbench
