#include "flat.hpp"

#include <memory>
#include <vector>

namespace perfbench {

using namespace remio;

testbed::ClusterSpec flat_cluster() {
  testbed::ClusterSpec c;
  c.name = "flat";
  c.max_nodes = 4;
  c.one_way_to_core = 0.0;
  c.tcp_window = 0;
  c.node_nic_rate = 0.0;
  c.node_bus_rate = 0.0;
  c.bus_contention_penalty = 1.0;
  c.uplink_out_rate = 0.0;
  c.uplink_in_rate = 0.0;
  c.nat = false;
  c.nat_rate = 0.0;
  c.mpi_latency = 0.0;
  c.mpi_rate = 0.0;
  c.cpu_speed = 1.0;
  return c;
}

testbed::ServerSpec flat_server() {
  testbed::ServerSpec s;
  s.one_way_to_core = 0.0;
  s.nic_rate = 0.0;
  s.disk_read_rate = 0.0;
  s.disk_write_rate = 0.0;
  return s;
}

std::string check_unshaped(testbed::Testbed& tb, int streams, int io_threads) {
  std::string bad;
  auto note = [&](const std::string& what) { bad += (bad.empty() ? "" : "; ") + what; };
  auto check_path = [&](const std::string& host,
                        const std::vector<std::shared_ptr<simnet::TokenBucket>>& path) {
    for (const auto& b : path)
      if (b->rate() != 0.0) note(host + " bucket " + b->name());
  };
  const std::string server = tb.server().config().host;
  check_path(server, tb.fabric().host(server).ingress);
  check_path(server, tb.fabric().host(server).egress);
  for (int r = 0; r < tb.node_count(); ++r) {
    const std::string node = tb.node_host(r);
    if (tb.node_bus(r)->rate() != 0.0) note(node + " bus");
    if (tb.fabric().latency(node, server) != 0.0) note(node + " latency");
    check_path(node, tb.fabric().host(node).ingress);
    check_path(node, tb.fabric().host(node).egress);
    const semplar::Config cfg = tb.semplar_config(r, streams, io_threads);
    if (cfg.conn.tcp_window != 0) note(node + " tcp_window");
    check_path(node + " conn", cfg.conn.extra);
  }
  const srb::StoreConfig& store = tb.server().config().store;
  if (store.disk_read_rate != 0.0 || store.disk_write_rate != 0.0) note("disk");
  return bad;
}

}  // namespace perfbench
