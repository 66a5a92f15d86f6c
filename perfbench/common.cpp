#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double Metrics::get(const std::string& name) const {
  for (const auto& m : items_)
    if (m.name == name) return m.value;
  throw std::out_of_range("no metric " + name);
}

void print_metrics(const std::string& title, const Metrics& m) {
  std::printf("%s\n", title.c_str());
  for (const auto& it : m.items())
    std::printf("  %-40s %16.6g %s\n", it.name.c_str(), it.value, it.unit.c_str());
}

double quantile(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double tail_quantile(std::vector<float>& v) {
  const double n = static_cast<double>(v.size());
  return quantile(v, n > 0 ? std::max(0.5, std::min(0.99, 1.0 - 10.0 / n)) : 0.99);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void LoopStats::merge(const LoopStats& o) {
  read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
  write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
  read_bytes += o.read_bytes;
  write_bytes += o.write_bytes;
  attempted += o.attempted;
  failed += o.failed;
  issues += o.issues;
  issue_s += o.issue_s;
  wait_s += o.wait_s;
}

bool overlapping_write(const LoopOp& op, const LoopOp& pending) {
  return (op.write || pending.write) && op.offset < pending.offset + pending.bytes &&
         pending.offset < op.offset + op.bytes;
}

namespace {

struct Slot {
  LoopOp op;
  remio::Bytes buf;
  remio::mpiio::IoRequest req;
  Clock::time_point issued;
};

}  // namespace

void closed_loop(remio::mpiio::File& file, OpSource& src, int window,
                 Clock::time_point deadline, bool traced, LoopStats& st) {
  std::vector<Slot> slots(static_cast<std::size_t>(window));
  for (auto& s : slots) s.buf.resize(src.max_bytes);
  std::size_t head = 0;
  std::size_t live = 0;
  const auto n = slots.size();

  auto retire = [&] {
    Slot& s = slots[head];
    head = (head + 1) % n;
    --live;
    const Clock::time_point w0 = traced ? Clock::now() : Clock::time_point{};
    bool ok = true;
    std::size_t moved = 0;
    try {
      moved = s.req.wait();
    } catch (const std::exception&) {
      ok = false;
    }
    const Clock::time_point done = Clock::now();
    if (traced) st.wait_s += seconds_between(w0, done);
    const auto us = static_cast<float>(seconds_between(s.issued, done) * 1e6);
    ok = ok && moved == s.op.bytes &&
         src.complete(s.op, ByteSpan(s.buf.data(), s.op.bytes));
    if (!ok) {
      ++st.failed;
      return;
    }
    if (s.op.write) {
      st.write_us.push_back(us);
      st.write_bytes += moved;
    } else {
      st.read_us.push_back(us);
      st.read_bytes += moved;
    }
  };
  auto blocked = [&](const LoopOp& op) {
    for (std::size_t i = 0; i < live; ++i)
      if (src.conflicts(op, slots[(head + i) % n].op)) return true;
    return false;
  };

  LoopOp op;
  while (Clock::now() < deadline && src.next(op)) {
    while (live == n || (live > 0 && blocked(op))) retire();
    Slot& s = slots[(head + live) % n];
    s.op = op;
    if (op.write) src.fill(s.op, MutByteSpan(s.buf.data(), op.bytes));
    ++st.attempted;
    s.issued = Clock::now();
    try {
      s.req = op.write ? file.iwrite_at(op.offset, ByteSpan(s.buf.data(), op.bytes))
                       : file.iread_at(op.offset, MutByteSpan(s.buf.data(), op.bytes));
    } catch (const std::exception&) {
      ++st.failed;
      continue;
    }
    if (traced) {
      st.issue_s += seconds_between(s.issued, Clock::now());
      ++st.issues;
    }
    ++live;
  }
  while (live > 0) retire();
}

}  // namespace perfbench
