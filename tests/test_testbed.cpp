// Testbed tests: cluster presets encode §5, the world wires resources the
// results depend on (per-stream window cap, NAT bottleneck, node bus shared
// between MPI and WAN), and PhaseTimer reproduces the paper's max-speedup
// bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/semplar.hpp"
#include "simnet/timescale.hpp"
#include "testbed/phase.hpp"
#include "testbed/world.hpp"

namespace remio::testbed {
namespace {

TEST(ClusterPresets, EncodePaperSection5) {
  const ClusterSpec d = das2();
  EXPECT_NEAR(2 * d.one_way_to_core, 0.182, 0.01);  // ~182 ms RTT
  EXPECT_FALSE(d.nat);
  EXPECT_GT(d.uplink_out_rate, 0.0);

  const ClusterSpec o = osc_p4();
  EXPECT_NEAR(2 * o.one_way_to_core, 0.030, 0.005);  // ~30 ms RTT
  EXPECT_TRUE(o.nat);  // private addresses behind a NAT host (§7.1)
  EXPECT_GT(o.cpu_speed, d.cpu_speed);

  const ClusterSpec t = tg_ncsa();
  EXPECT_NEAR(2 * t.one_way_to_core, 0.030, 0.005);
  EXPECT_FALSE(t.nat);
  // The TG path share is calibrated from Fig. 8b (writes saturate first).
  EXPECT_GT(t.uplink_in_rate, t.uplink_out_rate);

  EXPECT_EQ(cluster_by_name("das2").name, "das2");
  EXPECT_EQ(cluster_by_name("osc").name, "osc");
  EXPECT_EQ(cluster_by_name("tg").name, "tg");
  EXPECT_THROW(cluster_by_name("bluegene"), std::out_of_range);
}

TEST(PhaseTimer, SplitsPhases) {
  simnet::ScopedTimeScale scale(300.0);  // phases last 7-20 ms of wall time
  PhaseTimer t;
  t.enter(Phase::kCompute);
  simnet::sleep_sim(2.0);
  t.enter(Phase::kIo);
  simnet::sleep_sim(6.0);
  t.enter(Phase::kCompute);
  simnet::sleep_sim(2.0);
  t.stop();

  EXPECT_NEAR(t.compute_seconds(), 4.0, 2.5);
  EXPECT_NEAR(t.io_seconds(), 6.0, 3.0);
  EXPECT_GT(t.io_seconds(), t.compute_seconds());
  // Paper §7.1: expected fully-overlapped time = max(compute, io).
  EXPECT_DOUBLE_EQ(t.max_overlap_expected(),
                   std::max(t.compute_seconds(), t.io_seconds()));
  EXPECT_DOUBLE_EQ(t.total_seconds(), t.compute_seconds() + t.io_seconds());
}

TEST(PhaseTimer, MergeAccumulates) {
  PhaseTimer a;
  PhaseTimer b;
  a.merge(b);  // zero-merge stays zero
  EXPECT_EQ(a.total_seconds(), 0.0);
}

class TestbedTest : public ::testing::Test {
 protected:
  // Moderate scale: timing comparisons stay above sleep-granularity noise.
  TestbedTest() : scale_(500.0) {}
  simnet::ScopedTimeScale scale_;
};

TEST_F(TestbedTest, BuildsHostsAndServer) {
  Testbed tb(tg_ncsa(), 4);
  EXPECT_EQ(tb.node_count(), 4);
  EXPECT_TRUE(tb.fabric().has_host("orion"));
  EXPECT_TRUE(tb.fabric().has_host("tg-node0"));
  EXPECT_TRUE(tb.fabric().has_host("tg-node3"));
  EXPECT_FALSE(tb.fabric().has_host("tg-node4"));
  EXPECT_THROW(Testbed(tg_ncsa(), 0), std::invalid_argument);
  EXPECT_THROW(Testbed(tg_ncsa(), 1000), std::invalid_argument);
}

TEST_F(TestbedTest, SemplarConfigWiresCluster) {
  Testbed tb(das2(), 2);
  const auto cfg = tb.semplar_config(1, 2, 2);
  EXPECT_EQ(cfg.client_host, "das2-node1");
  EXPECT_EQ(cfg.streams_per_node, 2);
  EXPECT_EQ(cfg.conn.tcp_window, das2().tcp_window);
  ASSERT_EQ(cfg.conn.extra.size(), 1u);  // the node I/O bus
  EXPECT_THROW(tb.semplar_config(5), std::invalid_argument);

  const auto unbussed = tb.semplar_config(0, 1, 0, /*charge_bus=*/false);
  EXPECT_TRUE(unbussed.conn.extra.empty());
}

TEST_F(TestbedTest, EndToEndRemoteIo) {
  Testbed tb(tg_ncsa(), 1);
  semplar::SrbfsDriver driver(tb.fabric(), tb.semplar_config(0));
  mpiio::File f(driver, "/e2e/obj",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  const Bytes data(100 * 1024, 'k');
  f.write_at(0, ByteSpan(data.data(), data.size()));
  Bytes back(data.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), data.size());
  EXPECT_EQ(back, data);
  f.close();
}

TEST_F(TestbedTest, WindowCapMakesSecondStreamPay) {
  // On DAS-2 the per-stream cap is ~0.36 MB/s; a 4 MB transfer takes ~11
  // sim-s on one stream and about half on two. Finer scale keeps wall
  // jitter, and the stack's CPU time charged at wall x scale, small against
  // those times.
  simnet::ScopedTimeScale fine_scale(50.0);
  Testbed tb(das2(), 1);

  auto timed_write = [&](int streams) {
    semplar::SrbfsDriver driver(tb.fabric(),
                                tb.semplar_config(0, streams, streams));
    mpiio::File f(driver, "/cap/s" + std::to_string(streams),
                  mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
    const Bytes data(4u << 20, 'w');
    const double t0 = simnet::sim_now();
    f.iwrite_at(0, ByteSpan(data.data(), data.size())).wait();
    const double dt = simnet::sim_now() - t0;
    f.close();
    return dt;
  };

  const double one = timed_write(1);
  const double two = timed_write(2);
  EXPECT_LT(two, one * 0.72);
}

TEST_F(TestbedTest, NatThrottlesAggregateOnOsc) {
  // Two OSC nodes writing concurrently share the NAT bucket; the same two
  // flows on TG (no NAT) are much faster in aggregate.
  // Lower scale: the real CPU cost of moving 8 MB through the stack maps
  // to wall x scale and would otherwise blur the shaped-time ratio; at 100x
  // it made up most of the TG time on a busy host.
  simnet::ScopedTimeScale fine_scale(20.0);
  auto aggregate_time = [&](const ClusterSpec& cluster) {
    Testbed tb(cluster, 2);
    std::atomic<double> t_end{0.0};
    const double t0 = simnet::sim_now();
    mpi::run(2, [&](mpi::Comm& comm) {
      semplar::SrbfsDriver driver(tb.fabric(), tb.semplar_config(comm.rank(), 2, 2));
      mpiio::File f(driver, "/nat/obj" + std::to_string(comm.rank()),
                    mpiio::kModeWrite | mpiio::kModeCreate);
      const Bytes data(4u << 20, 'n');
      f.iwrite_at(0, ByteSpan(data.data(), data.size())).wait();
      f.close();
      comm.barrier();
      if (comm.rank() == 0) t_end = simnet::sim_now();
    });
    return t_end.load() - t0;
  };

  // Use a NAT-throttled variant to keep the test sharp.
  ClusterSpec osc = osc_p4();
  osc.nat_rate = 1.0e6;  // 1 MB/s total: decisively the bottleneck
  const double osc_time = aggregate_time(osc);
  const double tg_time = aggregate_time(tg_ncsa());
  EXPECT_GT(osc_time, tg_time * 1.5);
}

TEST_F(TestbedTest, MpiTransportChargesNodeBus) {
  Testbed tb(das2(), 2);
  const auto before = tb.node_bus(0)->consumed() + tb.node_bus(1)->consumed();
  mpi::RunOptions opts;
  opts.transport = tb.mpi_transport();
  mpi::run(2,
           [&](mpi::Comm& comm) {
             if (comm.rank() == 0) {
               const Bytes halo(64 * 1024);
               comm.send(1, 0, ByteSpan(halo.data(), halo.size()));
             } else {
               comm.recv(0, 0);
             }
           },
           opts);
  const auto after = tb.node_bus(0)->consumed() + tb.node_bus(1)->consumed();
  EXPECT_EQ(after - before, 2u * 64u * 1024u);  // both ends charged
}

TEST_F(TestbedTest, ComputeScalesWithCpuSpeed) {
  Testbed das(das2(), 1);
  Testbed osc(osc_p4(), 1);
  // compute() is a wall-clock sleep, which a busy host can only stretch:
  // the shortest of several calls is the one closest to the model.
  const auto shortest = [](Testbed& tb) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 5; ++i) {
      const double t0 = simnet::sim_now();
      tb.compute(1.0);
      best = std::min(best, simnet::sim_now() - t0);
    }
    return best;
  };
  const double das_dt = shortest(das);
  const double osc_dt = shortest(osc);
  EXPECT_LT(osc_dt, das_dt);  // 2.4 GHz Xeon vs 1 GHz P-III
}

}  // namespace
}  // namespace remio::testbed
