// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the integrity primitive for
// every byte hand-off in the stack — SRB wire frames, the broker's at-rest
// block checksums, cache verify-on-fill, and the compressed-frame trailer.
//
// Two implementations behind one function:
//   * hardware path — on x86-64, SSE4.2 crc32q run as three independent
//     chains over adjacent 8 KiB blocks (then 256 B blocks), folded together
//     with constant "shift past N zero bytes" tables; the sub-768-byte tail
//     is one serial chain. Selected at runtime via cpuid and compiled with a
//     per-function target attribute, so the library needs no global
//     -msse4.2. On ARMv8 with the CRC extension, one serial __crc32cd chain;
//   * slice-by-8 software path otherwise — eight 256-entry tables,
//     processing 8 bytes per iteration with no data-dependent branches.
//
// The CRC is the standard reflected variant (init 0xFFFFFFFF, final XOR),
// matching iSCSI / ext4 / RFC 3720: crc32c("123456789") == 0xE3069283.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace remio {

/// One-shot CRC32C of `data`. `seed` chains calls: passing a previous
/// result continues the CRC as if the buffers were concatenated.
std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0);

/// CRC32C of the concatenation A||B from crc_a = crc32c(A), crc_b =
/// crc32c(B) and len_b = |B|, without touching the bytes: crc_a is shifted
/// past len_b zero bytes (a multiply mod P by x^(8*len_b), built from a
/// compile-time table of x^(8*2^k)) and XORed with crc_b. Costs one 32-step
/// multiply per set bit of len_b, plus one, however long B is, so a CRC
/// known piece by piece need not be recomputed over the whole.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b);

/// True when the running CPU's CRC32 instruction is being used (bench
/// reports label their rows with this).
bool crc32c_hw_available();

namespace detail {
/// The slice-by-8 software path, callable directly so tests cover it on
/// hosts where crc32c() always takes the hardware path.
std::uint32_t crc32c_portable(ByteSpan data, std::uint32_t seed = 0);
}  // namespace detail

}  // namespace remio
