#include "simnet/socket.hpp"

#include <algorithm>

#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"

namespace remio::simnet {

void append_slice(std::vector<SharedSlice>& parts, SharedSlice s) {
  if (!parts.empty() && parts.back().buf == s.buf && parts.back().end == s.begin)
    parts.back().end = s.end;
  else
    parts.push_back(std::move(s));
}

std::size_t total_size(const std::vector<SharedSlice>& parts) {
  std::size_t n = 0;
  for (const SharedSlice& p : parts) n += p.size();
  return n;
}

SharedSlice gather(std::vector<SharedSlice>&& parts) {
  if (parts.size() == 1) return std::move(parts.front());
  Bytes out;
  out.reserve(total_size(parts));
  for (const SharedSlice& p : parts) out.insert(out.end(), p.view().begin(), p.view().end());
  const std::size_t n = out.size();
  return n == 0 ? SharedSlice{} : SharedSlice{std::make_shared<const Bytes>(std::move(out)), 0, n};
}

namespace detail {

void Pipe::push(std::shared_ptr<const Bytes> buf, std::size_t begin,
                std::size_t end, double deliver_sim) {
  const std::size_t n = end - begin;
  std::unique_lock lk(mu_);
  cv_tx_.wait(lk, [&] { return rx_closed_ || bytes_ + n <= capacity_; });
  if (rx_closed_) throw NetError("send on closed connection");
  bytes_ += n;
  q_.push_back(Chunk{SharedSlice{std::move(buf), begin, end}, deliver_sim});
  cv_rx_.notify_one();
}

SharedSlice Pipe::pop(std::size_t max) {
  std::unique_lock lk(mu_);
  for (;;) {
    if (rx_closed_) throw NetError("recv on closed socket");
    if (head_ < q_.size()) {
      const double deliver = q_[head_].deliver_sim;
      if (sim_now() + 1e-12 >= deliver) break;
      cv_rx_.wait_until(lk, wall_deadline(deliver));
      continue;
    }
    if (tx_closed_) return {};  // EOF
    cv_rx_.wait(lk);
  }

  SharedSlice& front = q_[head_].data;
  SharedSlice out;
  if (front.size() <= max) {
    // The chunk leaves whole and hands its buffer reference to the receiver.
    out = std::move(front);
    ++head_;
    if (head_ > 64 && head_ * 2 > q_.size()) {
      q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  } else {
    out = SharedSlice{front.buf, front.begin, front.begin + max};
    front.begin += max;
  }
  bytes_ -= out.size();
  cv_tx_.notify_all();
  return out;
}

void Pipe::close_tx() {
  std::lock_guard lk(mu_);
  tx_closed_ = true;
  cv_rx_.notify_all();
}

void Pipe::close_rx() {
  std::lock_guard lk(mu_);
  rx_closed_ = true;
  cv_rx_.notify_all();
  cv_tx_.notify_all();
}

std::size_t Pipe::buffered() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

}  // namespace detail

Socket::~Socket() { close(); }

void Socket::set_fault(std::shared_ptr<FaultInjector> fault, std::string tag,
                       bool corrupt_only) {
  fault_ = std::move(fault);
  tag_ = std::move(tag);
  fault_corrupt_only_ = corrupt_only;
}

void Socket::send_all(Bytes&& data) {
  const std::size_t size = data.size();
  send_all({SharedSlice{std::make_shared<const Bytes>(std::move(data)), 0, size}});
}

void Socket::send_all(std::vector<SharedSlice> parts) {
  if (closed_.load(std::memory_order_acquire))
    throw NetError("send on closed socket");
  const std::size_t size = total_size(parts);
  if (fault_ != nullptr) {
    if (!fault_corrupt_only_) {
      const double spike = fault_->latency_penalty(tag_);
      if (spike > 0) sleep_sim(spike);
      if (fault_->drop_send(tag_)) {
        close();
        throw NetError("injected connection drop (" + tag_ + ")",
                       {remio::ErrorDomain::kTransport, 0, /*retryable=*/true,
                        "send"});
      }
    }
    // In-flight corruption: flip one bit anywhere past the first 4 bytes.
    // A protocol send is one frame whose length prefix occupies exactly
    // those bytes, so (like real corruption slipping past TCP's 16-bit
    // checksum while the kernel preserves segmentation) the framing stays
    // in phase and only the content arrives wrong. The part it hits is
    // replaced by a flipped copy: its buffer may be shared (a store block).
    std::uint64_t bit = 0;
    if (size > 4 &&
        fault_->corrupt_send(tag_, fault_corrupt_only_, (size - 4) * 8, bit)) {
      std::size_t at = 4 + static_cast<std::size_t>(bit / 8);
      auto hit = parts.begin();
      for (; at >= hit->size(); ++hit) at -= hit->size();
      Bytes flipped(hit->view().begin(), hit->view().end());
      flipped[at] ^= static_cast<char>(1u << (bit % 8));
      *hit = SharedSlice{std::make_shared<const Bytes>(std::move(flipped)), 0,
                         hit->size()};
    }
  }
  auto part = parts.begin();
  std::size_t at = part != parts.end() ? part->begin : 0;  // next byte of *part
  for (std::size_t off = 0; off < size;) {
    const std::size_t n = std::min(quantum_, size - off);
    if (stream_cap_) stream_cap_->acquire(n);
    // Class 1 = WAN socket traffic; distinguishes it from interconnect
    // traffic (class 2) on buckets with a contention model (node I/O bus).
    for (const auto& res : path_) res->acquire(n, 1);
    const double deliver = sim_now() + latency_;
    for (std::size_t left = n; left > 0;) {
      while (at == part->end) at = (++part)->begin;  // skips empty parts
      const std::size_t k = std::min(left, part->end - at);
      tx_->push(part->buf, at, at + k, deliver);
      at += k;
      left -= k;
    }
    off += n;
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  }
}

std::vector<SharedSlice> Socket::recv_parts(std::size_t n) {
  if (closed_.load(std::memory_order_acquire))
    throw NetError("recv on closed socket");
  std::vector<SharedSlice> parts;
  for (std::size_t got = 0; got < n;) {
    SharedSlice next = rx_->pop(n - got);
    if (next.empty()) {
      if (got == 0) return {};  // EOF before the message
      throw NetError("connection closed mid-message");
    }
    got += next.size();
    bytes_received_.fetch_add(next.size(), std::memory_order_relaxed);
    append_slice(parts, std::move(next));
  }
  return parts;
}

std::size_t Socket::recv_some(MutByteSpan out) {
  if (closed_.load(std::memory_order_acquire))
    throw NetError("recv on closed socket");
  if (out.empty()) return 0;
  const SharedSlice in = rx_->pop(out.size());
  std::copy_n(in.view().data(), in.size(), out.data());
  bytes_received_.fetch_add(in.size(), std::memory_order_relaxed);
  return in.size();
}

bool Socket::recv_all(MutByteSpan out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = recv_some(out.subspan(got));
    if (n == 0) return false;
    got += n;
  }
  return true;
}

void Socket::shutdown_send() {
  if (tx_) tx_->close_tx();
}

void Socket::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  if (tx_) tx_->close_tx();
  if (rx_) rx_->close_rx();
}

std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> Socket::make_pair(
    const ConnShaping& shaping, const std::string& client_name,
    const std::string& server_name) {
  auto c2s = std::make_shared<detail::Pipe>(shaping.window_bytes);
  auto s2c = std::make_shared<detail::Pipe>(shaping.window_bytes);

  auto client = std::unique_ptr<Socket>(new Socket());
  auto server = std::unique_ptr<Socket>(new Socket());

  client->tx_ = c2s;
  client->rx_ = s2c;
  client->path_ = shaping.fwd_path;
  server->tx_ = s2c;
  server->rx_ = c2s;
  server->path_ = shaping.rev_path;

  for (Socket* s : {client.get(), server.get()}) {
    s->latency_ = shaping.one_way_latency;
    s->quantum_ = shaping.quantum;
    if (shaping.stream_rate > 0) {
      // Each direction gets its own cap, like a TCP stream's cwnd.
      s->stream_cap_ = std::make_shared<TokenBucket>(
          shaping.stream_rate, shaping.stream_burst, "stream-cap");
    }
  }
  client->peer_ = server_name;
  server->peer_ = client_name;
  return {std::move(client), std::move(server)};
}

}  // namespace remio::simnet
