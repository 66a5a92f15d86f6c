#include "srb/protocol.hpp"

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
                  std::uint32_t tail_crc, std::size_t tail_len) {
  if (with_crc) {
    const ByteSpan head(frame.data() + 4, frame.size() - 4 - tail_len);
    ByteWriter(frame).u32(crc32c_combine(crc32c(head), tail_crc, tail_len));
  }
  const auto len = static_cast<std::uint32_t>(frame.size() - 4);
  std::memcpy(frame.data(), &len, 4);
  sock.send_all(std::move(frame));
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

simnet::SharedSlice recv_frame(simnet::Socket& sock) {
  const simnet::SharedSlice prefix = sock.recv_exact(4);
  if (prefix.empty()) return {};  // clean EOF between frames
  std::uint32_t len;
  std::memcpy(&len, prefix.view().data(), 4);
  if (len == 0 || len > kMaxMessage) throw simnet::NetError("bad frame length");

  simnet::SharedSlice frame = sock.recv_exact(len);
  if (frame.empty()) throw simnet::NetError("truncated frame body");
  return frame;
}

}  // namespace remio::srb
