// Test-side wire helpers: one-call frame senders for raw-socket tests, and
// an incremental CRC32C for building reference encodings field by field.
#pragma once

#include <cstdint>
#include <utility>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "simnet/socket.hpp"
#include "srb/protocol.hpp"

namespace remio {

/// Incremental CRC32C over a sequence of spans (checksums a frame head +
/// body without concatenating them).
class Crc32c {
 public:
  void update(ByteSpan data) { crc_ = crc32c(data, crc_); }
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

namespace srb {

/// Sends one framed message: [len][head][body...], with the CRC trailer
/// when `with_crc`.
inline void send_framed(simnet::Socket& sock, std::uint8_t head, ByteSpan body,
                        bool with_crc) {
  Bytes frame = start_frame(1 + body.size());
  ByteWriter w(frame);
  w.u8(head);
  w.raw(body);
  finish_frame(sock, std::move(frame), with_crc);
}

inline void send_frame(simnet::Socket& sock, std::uint8_t head, ByteSpan body) {
  send_framed(sock, head, body, /*with_crc=*/false);
}

inline void send_frame_crc(simnet::Socket& sock, std::uint8_t head,
                           ByteSpan body) {
  send_framed(sock, head, body, /*with_crc=*/true);
}

}  // namespace srb
}  // namespace remio
