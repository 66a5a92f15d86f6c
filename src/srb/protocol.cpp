#include "srb/protocol.hpp"

#include <algorithm>

#include "common/checksum.hpp"

namespace remio::srb {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not found";
    case Status::kExists: return "already exists";
    case Status::kBadFd: return "bad file descriptor";
    case Status::kIoError: return "I/O error";
    case Status::kProtocol: return "protocol error";
    case Status::kInvalid: return "invalid argument";
    case Status::kNoMcat: return "MCAT unavailable";
    case Status::kQuotaExceeded: return "tenant quota exceeded";
    case Status::kChecksumMismatch: return "checksum mismatch";
    case Status::kQuarantined: return "object quarantined";
  }
  return "unknown";
}

Bytes start_frame(std::size_t reserve) {
  Bytes frame;
  frame.reserve(4 + reserve + 4);
  frame.resize(4);  // length prefix, patched by finish_frame
  return frame;
}

void finish_frame(simnet::Socket& sock, Bytes&& frame, bool with_crc,
                  FrameData&& data) {
  const std::size_t head = frame.size();
  const std::size_t data_len = simnet::total_size(data.parts);
  if (with_crc) {
    const std::uint32_t crc = crc32c(ByteSpan(frame).subspan(4));
    ByteWriter(frame).u32(crc32c_combine(crc, data.crc, data_len));
  }
  const auto len = static_cast<std::uint32_t>(frame.size() - 4 + data_len);
  std::memcpy(frame.data(), &len, 4);
  if (data.parts.empty()) {
    sock.send_all(std::move(frame));
    return;
  }
  // [len|head], the data, then the trailer: a view of the head buffer's
  // tail, so the frame needs no buffer of its own for it.
  const std::size_t size = frame.size();
  const auto buf = std::make_shared<const Bytes>(std::move(frame));
  std::vector<simnet::SharedSlice> parts;
  parts.reserve(data.parts.size() + 2);
  parts.push_back({buf, 0, head});
  for (simnet::SharedSlice& p : data.parts) parts.push_back(std::move(p));
  if (size > head) parts.push_back({buf, head, size});
  sock.send_all(std::move(parts));
}

bool strip_frame_crc(ByteSpan& frame, std::span<const std::size_t> cuts,
                     std::span<std::uint32_t> pieces) {
  if (frame.size() < 5) return false;  // head byte + trailer at minimum
  const std::size_t content = frame.size() - 4;
  std::uint32_t crc = 0;
  std::size_t at = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t to = i < cuts.size() ? cuts[i] : content;
    const std::uint32_t piece = crc32c(frame.subspan(at, to - at));
    crc = crc32c_combine(crc, piece, to - at);
    if (i > 0 && i < cuts.size()) pieces[i - 1] = piece;
    at = to;
  }
  std::uint32_t wire;
  std::memcpy(&wire, frame.data() + content, 4);
  if (crc != wire) return false;
  frame = frame.first(content);
  return true;
}

bool strip_frame_crc(std::vector<simnet::SharedSlice>& frame) {
  const std::size_t size = simnet::total_size(frame);
  if (size < 5) return false;  // head byte + trailer at minimum
  std::uint32_t crc = 0;
  std::size_t left = size - 4;
  for (const simnet::SharedSlice& p : frame) {
    const std::size_t k = std::min(left, p.size());
    crc = crc32c(p.view().first(k), crc);
    left -= k;
  }
  // Take the trailer off the tail; it may straddle parts.
  char wire[4];
  for (std::size_t at = 4; at > 0;) {
    simnet::SharedSlice& last = frame.back();
    const std::size_t k = std::min(at, last.size());
    at -= k;
    last.end -= k;
    std::memcpy(wire + at, last.view().data() + last.size(), k);
    if (last.empty()) frame.pop_back();
  }
  std::uint32_t want;
  std::memcpy(&want, wire, 4);
  return crc == want;
}

std::vector<simnet::SharedSlice> recv_frame_parts(simnet::Socket& sock) {
  const simnet::SharedSlice prefix = sock.recv_exact(4);
  if (prefix.empty()) return {};  // clean EOF between frames
  std::uint32_t len;
  std::memcpy(&len, prefix.view().data(), 4);
  if (len == 0 || len > kMaxMessage) throw simnet::NetError("bad frame length");

  std::vector<simnet::SharedSlice> frame = sock.recv_parts(len);
  if (frame.empty()) throw simnet::NetError("truncated frame body");
  return frame;
}

simnet::SharedSlice recv_frame(simnet::Socket& sock) {
  return simnet::gather(recv_frame_parts(sock));
}

}  // namespace remio::srb
