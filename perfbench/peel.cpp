#include "peel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "core/async_engine.hpp"
#include "core/srbfs.hpp"
#include "core/stream_pool.hpp"
#include "flat.hpp"
#include "obs/tracer.hpp"
#include "srb/client.hpp"
#include "srb/object_store.hpp"
#include "testbed/world.hpp"

namespace perfbench {
namespace {

using namespace remio;

/// One peel level: a callable doing op i at this level, how many untimed
/// ops it needs first (write levels fill every slot, so the read level of
/// the same fixture never reads past EOF), and its timings.
struct Level {
  std::string name;
  std::function<void(std::uint64_t)> op;
  std::uint64_t prefill = 0;
  std::uint64_t next = 0;
  std::vector<double> us;
  double busy_s = 0.0;

  double per_op_us() const { return median(us); }
};

/// Offsets cycle over a region of `slots` ops so repeated ops do not all
/// hit the same 64 KB checksum block.
std::uint64_t slot_offset(std::uint64_t i, std::size_t bytes, std::uint64_t slots) {
  return (i % slots) * bytes;
}

void check_moved(std::size_t moved, std::size_t want, const char* who) {
  if (moved != want)
    throw std::runtime_error(std::string("peel: short transfer in ") + who);
}

/// A connection between two unshaped hosts of a private fabric whose far
/// end answers every `frame`-byte message with a 16-byte reply.
class EchoPair {
 public:
  explicit EchoPair(std::size_t frame) : frame_(frame), out_(frame, 'w'), reply_(16) {
    fab_.add_host({"peel-a", 0.0, {}, {}});
    fab_.add_host({"peel-b", 0.0, {}, {}});
    acceptor_ = fab_.listen("peel-b", 7100);
    peer_ = std::thread([this] {
      auto sock = acceptor_->accept();
      if (!sock) return;
      Bytes in(frame_);
      const Bytes reply(16, 'r');
      try {
        while ((*sock)->recv_all(MutByteSpan(in.data(), in.size())))
          (*sock)->send_all(ByteSpan(reply.data(), reply.size()));
      } catch (const std::exception&) {
        // The client went away; the round trip that needed us reports it.
      }
    });
    simnet::ConnectOptions opts;
    opts.tcp_window = 0;
    try {
      cli_ = fab_.connect("peel-a", "peel-b", 7100, opts);
    } catch (...) {
      acceptor_->close();
      peer_.join();
      throw;
    }
  }
  ~EchoPair() {
    cli_->shutdown_send();
    peer_.join();
    fab_.shutdown();
  }
  EchoPair(const EchoPair&) = delete;
  EchoPair& operator=(const EchoPair&) = delete;

  void round_trip() {
    cli_->send_all(ByteSpan(out_.data(), out_.size()));
    if (!cli_->recv_all(MutByteSpan(reply_.data(), reply_.size())))
      throw std::runtime_error("peel: socket peer closed");
  }

 private:
  std::size_t frame_;
  Bytes out_;
  Bytes reply_;
  simnet::Fabric fab_;
  std::shared_ptr<simnet::Acceptor> acceptor_;
  std::unique_ptr<simnet::Socket> cli_;
  std::thread peer_;
};

/// Read rate of two threads on disjoint halves of object `a` (thread 0)
/// and object `b` (thread 1); a == b is the shared-object case.
double store_read_rate(srb::ObjectStore& store, srb::ObjectId a, srb::ObjectId b,
                       std::size_t chunk, std::uint64_t slots, double budget_s) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<int> failures{0};
  auto reader = [&](srb::ObjectId id, std::uint64_t first_slot) {
    Bytes buf(chunk);
    std::uint64_t moved = 0;
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::uint64_t off = (first_slot + i % (slots / 2)) * chunk;
      if (store.pread(id, MutByteSpan(buf.data(), buf.size()), off) != chunk)
        failures.fetch_add(1);
      moved += chunk;
    }
    bytes.fetch_add(moved);
  };
  const Clock::time_point t0 = Clock::now();
  std::thread t1(reader, a, 0);
  std::thread t2(reader, b, slots / 2);
  std::this_thread::sleep_for(std::chrono::duration<double>(budget_s));
  stop.store(true);
  t1.join();
  t2.join();
  const double wall = seconds_between(t0, Clock::now());
  if (failures.load() != 0) throw std::runtime_error("peel: short store read");
  return static_cast<double>(bytes.load()) / wall;
}

double crc_rate(std::size_t bytes, double budget_s) {
  Bytes buf(bytes, 'c');
  std::uint32_t sink = 0;
  std::uint64_t done = 0;
  const Clock::time_point t0 = Clock::now();
  double wall = 0.0;
  do {
    sink ^= crc32c(ByteSpan(buf.data(), buf.size()), sink);
    done += bytes;
    wall = seconds_between(t0, Clock::now());
  } while (wall < budget_s);
  if (sink == 0x5eed5eedu) std::fputs("", stdout);  // keep the CRC observable
  return static_cast<double>(done) / wall / 1e9;
}

}  // namespace

void run_peel(const PeelConfig& cfg, const PeelTarget& target, Metrics& out) {
  constexpr double budget = 0.25;  // wall seconds per level (and per rate probe)
  const std::size_t op = cfg.op_bytes;
  const std::size_t chunk = op / static_cast<std::size_t>(cfg.streams);
  // Spread ops over 16 MiB of distinct offsets (one slot for larger ops).
  const std::uint64_t op_slots = std::max<std::uint64_t>(1, (16u << 20) / op);
  const std::uint64_t chunk_slots = op_slots * static_cast<std::uint64_t>(cfg.streams);

  testbed::Testbed tb(flat_cluster(), 1, flat_server());
  const std::string unshaped = check_unshaped(tb, cfg.streams, cfg.io_threads);
  if (!unshaped.empty()) throw std::runtime_error("peel fabric is shaped: " + unshaped);
  const semplar::Config scfg = tb.semplar_config(0, cfg.streams, cfg.io_threads);
  const std::uint32_t rw = srb::kRead | srb::kWrite | srb::kCreate | srb::kTrunc;

  Bytes buf(op, 'p');
  Bytes cbuf(chunk, 'q');

  // One fixture per level: mpiio::File -> SemplarFile (engine + pool) ->
  // SrbClient -> socket -> broker -> ObjectStore.
  semplar::SrbfsDriver driver(tb.fabric(), scfg);
  mpiio::File file(driver, "/peel/file", mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  semplar::Stats stats;
  obs::Tracer tracer(scfg.obs.ring_capacity);
  semplar::AsyncEngine engine(cfg.io_threads, scfg.queue_capacity, &stats, scfg.retry, &tracer,
                              scfg.engine);
  semplar::StreamPool pool(tb.fabric(), scfg, "/peel/pool", rw, &stats, &tracer);
  srb::SrbClient client(tb.fabric(), scfg.client_host, scfg.server_host, scfg.server_port,
                        scfg.conn, "peel-client", scfg.tenant, scfg.integrity.wire_checksums);
  const std::int32_t fd = client.open("/peel/client", rw);
  EchoPair echo(chunk);
  srb::ObjectStore store;
  store.create(1);

  std::vector<Level> levels;
  auto level = [&](const char* name, std::function<void(std::uint64_t)> fn,
                   std::uint64_t prefill = 0) {
    Level l;
    l.name = name;
    l.op = std::move(fn);
    l.prefill = prefill;
    levels.push_back(std::move(l));
  };
  level("mpiio.file.write", [&](std::uint64_t i) {
    check_moved(file.iwrite_at(slot_offset(i, op, op_slots), ByteSpan(buf.data(), op)).wait(), op,
                "iwrite_at");
  }, op_slots);
  level("mpiio.file.read", [&](std::uint64_t i) {
    check_moved(file.iread_at(slot_offset(i, op, op_slots), MutByteSpan(buf.data(), op)).wait(), op,
                "iread_at");
  });
  level("core.engine", [&](std::uint64_t) {
    engine.submit([] { return std::size_t{0}; }).wait();
  });
  level("core.stream_pool.write", [&](std::uint64_t i) {
    check_moved(pool.pwrite(0, ByteSpan(cbuf.data(), chunk), slot_offset(i, chunk, chunk_slots)),
                chunk, "pool pwrite");
  }, chunk_slots);
  level("core.stream_pool.read", [&](std::uint64_t i) {
    check_moved(pool.pread(0, MutByteSpan(cbuf.data(), chunk), slot_offset(i, chunk, chunk_slots)),
                chunk, "pool pread");
  });
  level("srb.client.write", [&](std::uint64_t i) {
    check_moved(client.pwrite(fd, ByteSpan(cbuf.data(), chunk), slot_offset(i, chunk, chunk_slots)),
                chunk, "client pwrite");
  }, chunk_slots);
  level("srb.client.read", [&](std::uint64_t i) {
    check_moved(client.pread(fd, MutByteSpan(cbuf.data(), chunk), slot_offset(i, chunk, chunk_slots)),
                chunk, "client pread");
  });
  level("simnet.socket", [&](std::uint64_t) { echo.round_trip(); });
  level("srb.store.write", [&](std::uint64_t i) {
    store.pwrite(1, ByteSpan(cbuf.data(), chunk), slot_offset(i, chunk, chunk_slots));
  }, chunk_slots);
  level("srb.store.read", [&](std::uint64_t i) {
    check_moved(store.pread(1, MutByteSpan(cbuf.data(), chunk), slot_offset(i, chunk, chunk_slots)),
                chunk, "store pread");
  });

  // Untimed fill, then rounds that time one op of every level in turn, so
  // drift in the host's speed lands on all levels alike.
  for (auto& l : levels)
    for (; l.next < l.prefill; ++l.next) l.op(l.next);
  const Clock::time_point start = Clock::now();
  const double total = budget * static_cast<double>(levels.size());
  for (int round = 0; round < 5 || seconds_between(start, Clock::now()) < total; ++round)
    for (auto& l : levels) {
      const Clock::time_point t0 = Clock::now();
      l.op(l.next++);
      const double d = seconds_between(t0, Clock::now());
      l.busy_s += d;
      l.us.push_back(d * 1e6);
    }
  client.close(fd);

  double shared_scaling = 0.0;
  {
    srb::ObjectStore store;
    for (srb::ObjectId id : {srb::ObjectId{1}, srb::ObjectId{2}}) {
      store.create(id);
      for (std::uint64_t s = 0; s < chunk_slots; ++s)
        store.pwrite(id, ByteSpan(buf.data(), chunk), s * chunk);
    }
    const double shared = store_read_rate(store, 1, 1, chunk, chunk_slots, budget);
    const double separate = store_read_rate(store, 1, 2, chunk, chunk_slots, budget);
    shared_scaling = shared / separate;
  }
  const double crc_op = crc_rate(chunk, budget / 2);
  const double crc_64k = crc_rate(64 * 1024, budget / 2);

  auto us = [&](const std::string& name) {
    for (const auto& l : levels)
      if (l.name == name) return l.per_op_us();
    throw std::out_of_range(name);
  };
  const double file_w = us("mpiio.file.write"), file_r = us("mpiio.file.read");
  const double submit = us("core.engine");
  const double pool_w = us("core.stream_pool.write"), pool_r = us("core.stream_pool.read");
  const double cli_w = us("srb.client.write"), cli_r = us("srb.client.read");
  const double sock = us("simnet.socket");
  const double store_w = us("srb.store.write"), store_r = us("srb.store.read");

  // Self time of each level = its per-op time minus the levels it calls.
  auto self_of = [&](const std::string& name) -> double {
    if (name == "mpiio.file.write") return file_w - submit - pool_w;
    if (name == "mpiio.file.read") return file_r - submit - pool_r;
    if (name == "core.stream_pool.write") return pool_w - cli_w;
    if (name == "core.stream_pool.read") return pool_r - cli_r;
    if (name == "srb.client.write") return cli_w - sock - store_w;
    if (name == "srb.client.read") return cli_r - sock - store_r;
    return us(name);  // engine, socket, store: leaves
  };

  std::printf("layer peel (request %zu B, %zu B per stream, %d stream(s), io_threads %d)\n",
              op, chunk, cfg.streams, cfg.io_threads);
  std::printf("  %-24s %8s %10s %12s %12s\n", "level", "count", "busy_s", "per_op_us",
              "self_us");
  for (const auto& l : levels)
    std::printf("  %-24s %8zu %10.4f %12.2f %12.2f\n", l.name.c_str(), l.us.size(), l.busy_s,
                l.per_op_us(), self_of(l.name));
  // The per-op sum of self times telescopes to the top level's per-op time.
  const double residual_w = target.write_p50_us - file_w;
  const double residual_r = target.read_p50_us - file_r;
  std::printf("  residual vs loaded p50: write %.2f us (p50 %.2f - self sum %.2f), "
              "read %.2f us (p50 %.2f - self sum %.2f)\n",
              residual_w, target.write_p50_us, file_w, residual_r, target.read_p50_us,
              file_r);

  out.add("mpiio.peel_write_us", file_w, "us");
  out.add("mpiio.peel_read_us", file_r, "us");
  out.add("mpiio.self_write_us", self_of("mpiio.file.write"), "us");
  out.add("mpiio.self_read_us", self_of("mpiio.file.read"), "us");
  out.add("core.engine.submit_us", submit, "us");
  out.add("core.stream_pool.pwrite_us", pool_w, "us");
  out.add("core.stream_pool.pread_us", pool_r, "us");
  out.add("core.stream_pool.self_write_us", self_of("core.stream_pool.write"), "us");
  out.add("core.stream_pool.self_read_us", self_of("core.stream_pool.read"), "us");
  out.add("srb.client.pwrite_us", cli_w, "us");
  out.add("srb.client.pread_us", cli_r, "us");
  out.add("srb.server_self_write_us", self_of("srb.client.write"), "us");
  out.add("srb.server_self_read_us", self_of("srb.client.read"), "us");
  out.add("simnet.socket_rtt_us", sock, "us");
  out.add("srb.store.pwrite_us", store_w, "us");
  out.add("srb.store.pread_us", store_r, "us");
  out.add("srb.store.shared_read_scaling", shared_scaling, "ratio");
  out.add("common.crc32c_op_GBps", crc_op, "GB/s");
  out.add("common.crc32c_64k_GBps", crc_64k, "GB/s");
  out.add("peel.residual_write_us", residual_w, "us");
  out.add("peel.residual_read_us", residual_r, "us");
}

}  // namespace perfbench
