#include "unshaped.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/srbfs.hpp"
#include "flat.hpp"
#include "obs/analyzer.hpp"
#include "peel.hpp"
#include "simnet/timescale.hpp"
#include "testbed/world.hpp"

namespace perfbench {
namespace {

using namespace remio;

/// One set-up: the unshaped testbed with its broker, one SRBFS driver and
/// one open handle of the shared file per rank. Members are destroyed in
/// reverse order: files, then drivers, then the testbed.
struct World {
  std::unique_ptr<testbed::Testbed> tb;
  std::vector<std::unique_ptr<semplar::SrbfsDriver>> drivers;
  std::vector<std::unique_ptr<mpiio::File>> files;

  /// Tears down in dependency order (plain reassignment would not).
  void reset() {
    files.clear();
    drivers.clear();
    tb.reset();
  }

  semplar::SemplarFile& semplar(int r) {
    return dynamic_cast<semplar::SemplarFile&>(files[static_cast<std::size_t>(r)]->handle());
  }
};

/// Exact per-rank counters read from the program's public Stats / pool.
struct Counters {
  std::uint64_t wire_ops = 0;
  std::uint64_t app_bytes = 0;
  std::uint64_t wire_bytes = 0;
};

Counters counters(World& w, int ranks) {
  Counters c;
  for (int r = 0; r < ranks; ++r) {
    semplar::SemplarFile& f = w.semplar(r);
    const semplar::StatsSnapshot s = f.stats().snapshot();
    c.wire_ops += s.wire_ops;
    c.app_bytes += s.bytes_written + s.bytes_read;
    c.wire_bytes += f.streams().wire_bytes_sent() + f.streams().wire_bytes_received();
  }
  return c;
}

struct PhaseRun {
  double wall = 0.0;
  double sim = 0.0;
  double cpu = 0.0;
  std::vector<LoopStats> ranks;
  double overlap = 0.0;             // mean per-rank achieved_of_max
  std::vector<double> stream_util;  // per stream index, mean over ranks
  std::vector<float> queue_wait_us;
  Counters delta;  // exact counters accumulated during the phase

  LoopStats merged() const {
    LoopStats m;
    for (const auto& r : ranks) m.merge(r);
    return m;
  }
};

/// Runs one source per rank, each on its own thread, between two barriers:
/// the phase starts when every rank is ready and ends when every rank has
/// drained. Afterwards reads each rank's span trace (the program's own
/// obs, on by default) for overlap, stream utilization and queue waits.
PhaseRun run_ranks(World& w, const Shape& sh, const std::function<OpSource(int)>& source,
                   double seconds, bool traced) {
  PhaseRun pr;
  pr.ranks.resize(static_cast<std::size_t>(sh.ranks));
  std::vector<OpSource> sources;
  for (int r = 0; r < sh.ranks; ++r) sources.push_back(source(r));
  const Counters before = counters(w, sh.ranks);

  std::barrier sync(sh.ranks + 1);
  Clock::time_point deadline = Clock::time_point::max();
  std::vector<std::thread> threads;
  for (int r = 0; r < sh.ranks; ++r)
    threads.emplace_back([&, r] {
      sync.arrive_and_wait();
      LoopStats& st = pr.ranks[static_cast<std::size_t>(r)];
      try {
        closed_loop(*w.files[static_cast<std::size_t>(r)], sources[static_cast<std::size_t>(r)],
                    sh.window, deadline, traced, st);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: %s\n", r, e.what());
        ++st.failed;
        ++st.attempted;
      }
      sync.arrive_and_wait();
    });
  if (seconds > 0.0)
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
  sync.arrive_and_wait();
  const Clock::time_point w0 = Clock::now();
  const double sim0 = simnet::sim_now();
  const double cpu0 = process_cpu_seconds();
  sync.arrive_and_wait();
  pr.wall = seconds_between(w0, Clock::now());
  pr.sim = simnet::sim_now() - sim0;
  pr.cpu = process_cpu_seconds() - cpu0;
  const double sim1 = sim0 + pr.sim;
  for (auto& t : threads) t.join();

  const Counters after = counters(w, sh.ranks);
  pr.delta = {after.wire_ops - before.wire_ops, after.app_bytes - before.app_bytes,
              after.wire_bytes - before.wire_bytes};

  const double scale = simnet::time_scale();
  pr.stream_util.assign(static_cast<std::size_t>(sh.streams), 0.0);
  for (int r = 0; r < sh.ranks; ++r) {
    obs::Tracer* tracer = w.semplar(r).tracer();
    if (tracer == nullptr) throw std::runtime_error("obs is off: no span trace");
    const std::vector<obs::Span> spans = tracer->snapshot();
    // Rings drop their oldest spans, so analyze only the tail of the phase
    // that every recording thread's ring still covers.
    std::map<std::uint32_t, double> first;
    for (const auto& s : spans) {
      auto [it, fresh] = first.emplace(s.tid, s.enqueue);
      if (!fresh) it->second = std::min(it->second, s.enqueue);
    }
    double ws = sim0;
    for (const auto& [tid, t] : first)
      if (t < sim1) ws = std::max(ws, t);
    const obs::OverlapReport rep = obs::ObsAnalyzer(spans).analyze(ws, sim1);
    pr.overlap += rep.achieved_of_max / sh.ranks;
    for (const auto& u : rep.streams)
      if (u.stream >= 0 && u.stream < sh.streams)
        pr.stream_util[static_cast<std::size_t>(u.stream)] += u.utilization / sh.ranks;
    for (const auto& s : spans)
      if (s.kind == obs::SpanKind::kTask && s.enqueue >= ws && s.wire_end <= sim1)
        pr.queue_wait_us.push_back(static_cast<float>(s.queue_wait() / scale * 1e6));
  }
  return pr;
}

/// One full set-up: testbed + broker, unshaped self-check, logins and opens,
/// preload. Returns its wall time; errors go to `why`.
double build(World& w, UnshapedWorkload& wl, LoopStats& st, std::string& why) {
  const Shape& sh = wl.shape();
  const Clock::time_point t0 = Clock::now();
  w.tb = std::make_unique<testbed::Testbed>(flat_cluster(), sh.ranks, flat_server());
  const std::string shaped = check_unshaped(*w.tb, sh.streams, sh.io_threads);
  if (!shaped.empty()) why += "fabric is shaped: " + shaped + ". ";
  for (int r = 0; r < sh.ranks; ++r) {
    w.drivers.push_back(std::make_unique<semplar::SrbfsDriver>(
        w.tb->fabric(), w.tb->semplar_config(r, sh.streams, sh.io_threads)));
    std::uint32_t mode = mpiio::kModeRead | mpiio::kModeWrite;
    if (r == 0) mode |= mpiio::kModeCreate | mpiio::kModeTrunc;
    w.files.push_back(std::make_unique<mpiio::File>(*w.drivers.back(), sh.path, mode));
  }
  const PhaseRun pre = run_ranks(w, sh, [&](int r) { return wl.preload(r); }, 0.0, false);
  st.merge(pre.merged());
  return seconds_between(t0, Clock::now());
}

E2e derive(const std::vector<PhaseRun>& runs) {
  E2e e;
  LoopStats all;
  double wall = 0.0, sim = 0.0, cpu = 0.0, write_wall = 0.0, write_sim = 0.0,
         read_wall = 0.0, overlap = 0.0;
  for (const auto& pr : runs) {
    const LoopStats m = pr.merged();
    all.merge(m);
    wall += pr.wall;
    sim += pr.sim;
    cpu += pr.cpu;
    overlap += pr.overlap / static_cast<double>(runs.size());
    if (m.write_bytes > 0) {
      write_wall += pr.wall;
      write_sim += pr.sim;
    }
    if (m.read_bytes > 0) read_wall += pr.wall;
  }
  const double bytes = static_cast<double>(all.read_bytes + all.write_bytes);
  e.write_MBps = write_wall > 0 ? static_cast<double>(all.write_bytes) / write_wall / 1e6 : 0.0;
  e.read_MBps = read_wall > 0 ? static_cast<double>(all.read_bytes) / read_wall / 1e6 : 0.0;
  e.ops_per_s = static_cast<double>(all.read_us.size() + all.write_us.size()) / wall;
  e.read_samples = all.read_us.size();
  e.write_samples = all.write_us.size();
  e.read_p50_us = quantile(all.read_us, 0.50);
  e.read_p99_us = tail_quantile(all.read_us);
  e.write_p50_us = quantile(all.write_us, 0.50);
  e.write_p99_us = tail_quantile(all.write_us);
  e.cpu_s_per_GB = bytes > 0 ? cpu / (bytes / 1e9) : 0.0;
  e.sim_makespan_s = sim;
  e.overlap_pct = overlap * 100.0;
  e.sim_ckpt_MBps = write_sim > 0 ? static_cast<double>(all.write_bytes) / write_sim / 1e6 : 0.0;
  return e;
}

/// Caps a source at `n` ops (the self-test's fixed-size op streams).
OpSource limited(OpSource src, std::uint64_t n) {
  auto left = std::make_shared<std::uint64_t>(n);
  auto inner = src.next;
  src.next = [left, inner](LoopOp& op) { return *left > 0 && (--*left, inner(op)); };
  return src;
}

std::uint64_t stream_hash(UnshapedWorkload& wl, std::uint64_t ops) {
  std::uint64_t h = 0x1234;
  for (int p = 0; p < wl.shape().phases; ++p)
    for (int r = 0; r < wl.shape().ranks; ++r) {
      OpSource src = limited(wl.phase(p, r), ops);
      LoopOp op;
      while (src.next(op)) h = mix64(h ^ mix64(op.offset * 2 + (op.write ? 1 : 0)) ^ op.bytes);
    }
  return h;
}

/// Determinism self-test: same seed -> identical op streams and identical
/// exact counts; another seed -> a different op stream.
bool self_test(const WorkloadFactory& make, std::uint64_t seed, LoopStats& st,
               std::string& why) {
  const Shape sh = make(seed)->shape();
  const std::uint64_t ops = std::clamp<std::uint64_t>((32u << 20) / sh.op_bytes, 32, 4096);
  const std::uint64_t h1 = stream_hash(*make(seed), ops);
  const std::uint64_t h2 = stream_hash(*make(seed), ops);
  const std::uint64_t h3 = stream_hash(*make(seed + 1), ops);

  auto exact = [&] {
    std::vector<std::uint64_t> v;
    World w;
    auto wl = make(seed);
    build(w, *wl, st, why);
    for (int p = 0; p < sh.phases; ++p) {
      const PhaseRun pr =
          run_ranks(w, sh, [&](int r) { return limited(wl->phase(p, r), ops); }, 0.0, false);
      st.merge(pr.merged());
      v.insert(v.end(), {pr.delta.wire_ops, pr.delta.app_bytes, pr.delta.wire_bytes});
    }
    const Counters c = counters(w, sh.ranks);
    v.insert(v.end(), {c.wire_ops, c.app_bytes, c.wire_bytes});
    return v;
  };
  const std::vector<std::uint64_t> c1 = exact();
  const std::vector<std::uint64_t> c2 = exact();
  bool ok = true;
  if (h1 != h2) ok = false, why += "same seed gave different op streams. ";
  if (h1 == h3) ok = false, why += "another seed gave the same op stream. ";
  if (c1 != c2) ok = false, why += "same seed gave different exact counts. ";
  std::printf("self-test: %llu ops/rank/phase, op stream hash %016llx (seed+1: %016llx), "
              "exact counts %s\n",
              static_cast<unsigned long long>(ops), static_cast<unsigned long long>(h1),
              static_cast<unsigned long long>(h3), c1 == c2 ? "identical" : "DIFFER");
  return ok;
}

std::vector<PhaseRun> run_phases(World& w, UnshapedWorkload& wl, double seconds, bool traced) {
  const Shape& sh = wl.shape();
  std::vector<PhaseRun> runs;
  const double each = seconds / sh.phases;
  for (int p = 0; p < sh.phases; ++p)
    runs.push_back(run_ranks(w, sh, [&](int r) { return wl.phase(p, r); }, each, traced));
  return runs;
}

}  // namespace

Result run_unshaped(const WorkloadFactory& make, const Args& args) {
  constexpr int kSetups = 5;
  constexpr double kWarmupPerPhase = 0.5;  // seconds
  constexpr double kRoundSeconds = 1.0;
  Result res;
  LoopStats all;
  std::string why;

  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setups;
  World world;
  std::unique_ptr<UnshapedWorkload> wl;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    wl = make(args.seed);
    setups.push_back(build(world, *wl, all, why));
  }
  const Shape& sh = wl->shape();
  // Warm-up: the first fraction of a second after set-up runs measurably
  // slower (allocator and page-fault warm-up), so run every phase briefly,
  // checked but untimed.
  for (const auto& pr :
       run_phases(world, *wl, kWarmupPerPhase * sh.phases, false))
    all.merge(pr.merged());

  // The measured time is cut into rounds that each run every phase; each
  // metric is its best round. Other VMs on the host steal CPU in bursts that
  // can cover most rounds of a run, tails most; the least-disturbed round
  // is the steadiest estimate of the stack's own cost, as the minimum of
  // repeated timings is.
  auto measure = [&](double seconds, bool traced, std::vector<PhaseRun>* keep) {
    const int rounds = std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)));
    std::vector<E2e> per_round;
    for (int i = 0; i < rounds; ++i) {
      std::vector<PhaseRun> runs = run_phases(world, *wl, seconds / rounds, traced);
      for (const auto& pr : runs) all.merge(pr.merged());
      per_round.push_back(derive(runs));
      if (keep != nullptr) keep->insert(keep->end(), runs.begin(), runs.end());
    }
    return best_e2e(per_round);
  };

  E2e e;
  if (!args.trace) {
    e = measure(args.seconds, false, nullptr);
  } else {
    // Untraced and traced halves on the same set-up: the second gives the
    // per-layer figures, the pair gives the tracing overhead.
    const E2e e_plain = measure(args.seconds / 2, false, nullptr);
    std::vector<PhaseRun> traced;
    e = measure(args.seconds / 2, true, &traced);
    LoopStats t;
    std::vector<float> qwait;
    Counters d;
    std::vector<double> util(static_cast<std::size_t>(sh.streams), 0.0);
    double io_wait = 0.0, compute = 0.0;
    for (const auto& pr : traced) {
      const LoopStats m = pr.merged();
      t.merge(m);
      qwait.insert(qwait.end(), pr.queue_wait_us.begin(), pr.queue_wait_us.end());
      d.wire_ops += pr.delta.wire_ops;
      d.app_bytes += pr.delta.app_bytes;
      d.wire_bytes += pr.delta.wire_bytes;
      for (std::size_t s = 0; s < util.size(); ++s)
        util[s] += pr.stream_util[s] / static_cast<double>(traced.size());
      io_wait += m.wait_s / sh.ranks;
      compute += (pr.wall * sh.ranks - m.wait_s - m.issue_s) / sh.ranks;
    }
    const double ops = static_cast<double>(t.read_us.size() + t.write_us.size());
    const double scale = simnet::time_scale();

    Metrics& m = res.metrics;
    m.add("mpiio.ops", ops, "count");
    m.add("mpiio.issue_us", t.issues > 0 ? t.issue_s / static_cast<double>(t.issues) * 1e6 : 0.0, "us");
    m.add("mpiio.wait_us", ops > 0 ? t.wait_s / ops * 1e6 : 0.0, "us");
    m.add("core.engine.queue_wait_p50_us", quantile(qwait, 0.50), "us");
    m.add("core.engine.queue_wait_p99_us", tail_quantile(qwait), "us");
    m.add("core.engine.queue_wait_samples", static_cast<double>(qwait.size()), "count");
    m.add("core.wire_ops_per_op", ops > 0 ? static_cast<double>(d.wire_ops) / ops : 0.0, "ratio");
    m.add("core.wire_bytes_per_app_byte",
          d.app_bytes > 0 ? static_cast<double>(d.wire_bytes) / static_cast<double>(d.app_bytes) : 0.0,
          "ratio");
    for (int s = 0; s < 2; ++s)
      m.add("core.stream_util.s" + std::to_string(s),
            s < sh.streams ? util[static_cast<std::size_t>(s)] : 0.0, "ratio");
    m.add("testbed.io_wait_sim_s", io_wait * scale, "s");
    m.add("testbed.compute_sim_s", compute * scale, "s");
    m.add("testbed.time_scale", scale, "ratio");

    PeelConfig pc;
    pc.streams = sh.streams;
    pc.io_threads = sh.io_threads;
    pc.op_bytes = sh.op_bytes;
    run_peel(pc, {e.read_p50_us, e.write_p50_us}, m);
    add_trace_overhead(m, e_plain, e);
    const bool deterministic = self_test(make, args.seed, all, why);
    m.add("selftest.deterministic", deterministic ? 1.0 : 0.0, "bool");
  }
  e.setup_s = median(setups);
  e.peak_rss_MB = peak_rss_mb();

  std::printf("workload %s: seed %llu, %d rank(s) x %d stream(s), io_threads %d, "
              "window %d, request %zu B; set-ups",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), sh.ranks,
              sh.streams, sh.io_threads, sh.window, sh.op_bytes);
  for (double s : setups) std::printf(" %.4f", s);
  std::printf(" s\nlatency samples: read %llu, write %llu (figures are the best of %.0f s rounds)\n",
              static_cast<unsigned long long>(e.read_samples),
              static_cast<unsigned long long>(e.write_samples), kRoundSeconds);
  print_metrics(args.trace ? "end-to-end (traced half)" : "end-to-end", e2e_metrics(e));
  if (!args.trace) res.metrics = e2e_metrics(e);
  res.attempted = all.attempted;
  res.failed = all.failed;
  if (!why.empty()) std::printf("check failed: %s\n", why.c_str());
  res.correct = all.failed == 0 && why.empty();
  return res;
}

}  // namespace perfbench
