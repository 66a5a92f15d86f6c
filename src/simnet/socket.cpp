#include "simnet/socket.hpp"

#include <algorithm>

#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"

namespace remio::simnet {
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
  if (closed_.load(std::memory_order_acquire))
    throw NetError("send on closed socket");
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
    // in phase and only the content arrives wrong.
    std::uint64_t bit = 0;
    if (data.size() > 4 &&
        fault_->corrupt_send(tag_, fault_corrupt_only_, (data.size() - 4) * 8,
                             bit))
      data[4 + static_cast<std::size_t>(bit / 8)] ^=
          static_cast<char>(1u << (bit % 8));
  }
  const std::size_t size = data.size();
  const auto buf = std::make_shared<const Bytes>(std::move(data));
  std::size_t off = 0;
  while (off < size) {
    const std::size_t n = std::min(quantum_, size - off);
    if (stream_cap_) stream_cap_->acquire(n);
    // Class 1 = WAN socket traffic; distinguishes it from interconnect
    // traffic (class 2) on buckets with a contention model (node I/O bus).
    for (const auto& res : path_) res->acquire(n, 1);
    tx_->push(buf, off, off + n, sim_now() + latency_);
    off += n;
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  }
}

SharedSlice Socket::recv_exact(std::size_t n) {
  if (closed_.load(std::memory_order_acquire))
    throw NetError("recv on closed socket");
  SharedSlice out = rx_->pop(n);
  std::size_t got = out.size();
  bytes_received_.fetch_add(got, std::memory_order_relaxed);
  Bytes gathered;  // filled only once the bytes span several send buffers
  while (got != 0 && got < n) {
    SharedSlice next = rx_->pop(n - got);
    if (next.empty()) throw NetError("connection closed mid-message");
    got += next.size();
    bytes_received_.fetch_add(next.size(), std::memory_order_relaxed);
    if (gathered.empty() && next.buf == out.buf && next.begin == out.end) {
      out.end = next.end;  // the next slice of the same send: widen the view
      continue;
    }
    if (gathered.empty()) {
      gathered.reserve(n);
      gathered.assign(out.view().begin(), out.view().end());
    }
    gathered.insert(gathered.end(), next.view().begin(), next.view().end());
  }
  if (gathered.empty()) return out;
  return SharedSlice{std::make_shared<const Bytes>(std::move(gathered)), 0, n};
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
