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

void finish_frame(simnet::Socket& sock, Bytes&& frame, bool with_crc) {
  if (with_crc) {
    const std::uint32_t crc = crc32c(ByteSpan(frame.data() + 4, frame.size() - 4));
    ByteWriter(frame).u32(crc);
  }
  const auto len = static_cast<std::uint32_t>(frame.size() - 4);
  std::memcpy(frame.data(), &len, 4);
  sock.send_all(std::move(frame));
}

namespace {
void send_framed(simnet::Socket& sock, std::uint8_t head, ByteSpan body,
                 bool with_crc) {
  Bytes frame = start_frame(1 + body.size());
  ByteWriter w(frame);
  w.u8(head);
  w.raw(body);
  finish_frame(sock, std::move(frame), with_crc);
}
}  // namespace

void send_frame(simnet::Socket& sock, std::uint8_t head, ByteSpan body) {
  send_framed(sock, head, body, /*with_crc=*/false);
}

void send_frame_crc(simnet::Socket& sock, std::uint8_t head, ByteSpan body) {
  send_framed(sock, head, body, /*with_crc=*/true);
}

bool strip_frame_crc(ByteSpan& frame) {
  if (frame.size() < 5) return false;  // head byte + trailer at minimum
  const std::size_t content = frame.size() - 4;
  std::uint32_t wire;
  std::memcpy(&wire, frame.data() + content, 4);
  if (crc32c(frame.first(content)) != wire) return false;
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
