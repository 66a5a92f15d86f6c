// The unshaped preset: a cluster and server whose links, buses, NICs, NAT,
// uplinks and disk all run at rate 0 (= unlimited) with zero latency and no
// TCP window cap, so the software stack is the only cost. Built from the
// public ClusterSpec / ServerSpec, not from a testbed preset.
#pragma once

#include <string>

#include "testbed/cluster.hpp"
#include "testbed/world.hpp"

namespace perfbench {

remio::testbed::ClusterSpec flat_cluster();
remio::testbed::ServerSpec flat_server();

/// Checks that `tb` really is unshaped: every node bus, every bucket on
/// every host's ingress/egress path, the per-connection extras, the TCP
/// window, the broker disk and the node-to-server latency are all zero.
/// Returns an empty string when it is, otherwise what is shaped.
std::string check_unshaped(remio::testbed::Testbed& tb, int streams,
                           int io_threads);

}  // namespace perfbench
