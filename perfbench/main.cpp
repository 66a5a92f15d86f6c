// The repo benchmark: one workload per invocation.
//
//   perfbench --workload <bulk_shared|small_mix|das2_ckpt> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints human-readable tables, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, measured without the benchmark's own tracing;
// with --trace 1 they are the per-layer set of a traced run. See README.md.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workload.hpp"

namespace perfbench {

Metrics e2e_metrics(const E2e& e) {
  Metrics m;
  m.add("setup_s", e.setup_s, "s");
  m.add("write_MBps", e.write_MBps, "MB/s");
  m.add("read_MBps", e.read_MBps, "MB/s");
  m.add("ops_per_s", e.ops_per_s, "1/s");
  m.add("read_p50_us", e.read_p50_us, "us");
  m.add("read_p99_us", e.read_p99_us, "us");
  m.add("write_p50_us", e.write_p50_us, "us");
  m.add("write_p99_us", e.write_p99_us, "us");
  m.add("cpu_s_per_GB", e.cpu_s_per_GB, "s/GB");
  m.add("peak_rss_MB", e.peak_rss_MB, "MB");
  m.add("sim_makespan_s", e.sim_makespan_s, "s");
  m.add("overlap_pct", e.overlap_pct, "%");
  m.add("sim_ckpt_MBps", e.sim_ckpt_MBps, "MB/s");
  return m;
}

namespace {

/// Each measured field with whether higher is better.
struct Field {
  double E2e::*member;
  bool higher_better;
};
constexpr Field kFields[] = {
    {&E2e::setup_s, false},      {&E2e::write_MBps, true},      {&E2e::read_MBps, true},
    {&E2e::ops_per_s, true},     {&E2e::read_p50_us, false},    {&E2e::read_p99_us, false},
    {&E2e::write_p50_us, false}, {&E2e::write_p99_us, false},   {&E2e::cpu_s_per_GB, false},
    {&E2e::peak_rss_MB, false},  {&E2e::sim_makespan_s, false}, {&E2e::overlap_pct, true},
    {&E2e::sim_ckpt_MBps, true},
};

E2e combine(const std::vector<E2e>& parts, bool best) {
  E2e out;
  for (const Field& f : kFields) {
    std::vector<double> v;
    for (const auto& p : parts) v.push_back(p.*(f.member));
    if (!best)
      out.*(f.member) = median(std::move(v));
    else
      out.*(f.member) = f.higher_better ? *std::max_element(v.begin(), v.end())
                                        : *std::min_element(v.begin(), v.end());
  }
  for (const auto& p : parts) {
    out.read_samples += p.read_samples;
    out.write_samples += p.write_samples;
  }
  return out;
}

}  // namespace

E2e median_e2e(const std::vector<E2e>& parts) { return combine(parts, false); }
E2e best_e2e(const std::vector<E2e>& parts) { return combine(parts, true); }

void add_trace_overhead(Metrics& out, const E2e& untraced, const E2e& traced) {
  const Metrics a = e2e_metrics(untraced);
  const Metrics b = e2e_metrics(traced);
  for (const auto& it : a.items()) {
    // Set-up and peak memory are not measured per phase.
    if (it.name == "setup_s" || it.name == "peak_rss_MB") continue;
    const double base = it.value;
    out.add("obs.trace_overhead_pct." + it.name,
            base != 0.0 ? (b.get(it.name) - base) / base * 100.0 : 0.0, "%");
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <bulk_shared|small_mix|das2_ckpt> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

/// Runs the whole process on the first two CPUs it may use, with a fixed
/// glibc malloc policy. Both are set before any thread starts; README.md
/// (Steadiness) has the measurements behind them.
void fix_environment() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    cpu_set_t two;
    CPU_ZERO(&two);
    for (int cpu = 0, picked = 0; cpu < CPU_SETSIZE && picked < 2; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) {
        CPU_SET(cpu, &two);
        ++picked;
      }
    sched_setaffinity(0, sizeof two, &two);
  }
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
  mallopt(M_ARENA_MAX, 4);
}

}  // namespace

int main(int argc, char** argv) {
  fix_environment();
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0))
        usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace takes 0 or 1");
      args.trace = v[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Result res;
  try {
    if (args.workload == "bulk_shared")
      res = perfbench::run_bulk_shared(args);
    else if (args.workload == "small_mix")
      res = perfbench::run_small_mix(args);
    else if (args.workload == "das2_ckpt")
      res = perfbench::run_das2_ckpt(args);
    else
      usage("unknown --workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& m : res.metrics.items())
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  std::printf("failed_frac %.6g (%llu failed or mismatched of %llu attempted ops)\n",
              res.attempted > 0 ? static_cast<double>(res.failed) / static_cast<double>(res.attempted) : 0.0,
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  const char* sep = "";
  for (const auto& m : res.metrics.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
