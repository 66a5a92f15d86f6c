#include "common/checksum.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REMIO_CRC32C_X86 1
#endif
#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define REMIO_CRC32C_ARM 1
#include <arm_acle.h>
#endif

namespace remio {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; table[k]
/// advances a byte that sits k positions deeper in the 8-byte word.
struct Tables {
  std::uint32_t t[8][256];
};

constexpr Tables make_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
    tb.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int k = 1; k < 8; ++k)
      tb.t[k][i] = (tb.t[k - 1][i] >> 8) ^ tb.t[0][tb.t[k - 1][i] & 0xFFu];
  return tb;
}

// constinit-style static: generated once at compile time, lives in .rodata.
constexpr Tables kTables = make_tables();

std::uint32_t crc_sw(const unsigned char* p, std::size_t n, std::uint32_t crc) {
  crc = ~crc;
  // Head: align to 8 bytes so the slicing loop loads aligned words.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;  // little-endian: the CRC folds into the low 4 bytes
    crc = kTables.t[7][w & 0xFF] ^ kTables.t[6][(w >> 8) & 0xFF] ^
          kTables.t[5][(w >> 16) & 0xFF] ^ kTables.t[4][(w >> 24) & 0xFF] ^
          kTables.t[3][(w >> 32) & 0xFF] ^ kTables.t[2][(w >> 40) & 0xFF] ^
          kTables.t[1][(w >> 48) & 0xFF] ^ kTables.t[0][(w >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  return ~crc;
}

/// a * b mod P, with both as reflected polynomials (bit 31 holds x^0).
/// Branch-free: the bits of a are random, so a branch on each would
/// mispredict half the time.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t prod = 0;
  for (int i = 0; i < 32; ++i, a <<= 1) {
    prod ^= b & (0u - (a >> 31));        // + b * (coefficient of x^i in a)
    b = (b >> 1) ^ (kPoly & (0u - (b & 1u)));  // b *= x
  }
  return prod;
}

/// x[k] = x^(8 * 2^k) mod P: multiplying a CRC by it shifts the CRC past
/// 2^k zero bytes.
struct ByteShifts {
  std::uint32_t x[64];
};

constexpr ByteShifts make_byte_shifts() {
  ByteShifts t{};
  std::uint32_t p = 1u << 23;  // x^8
  for (auto& x : t.x) {
    x = p;
    p = multmodp(p, p);
  }
  return t;
}

constexpr ByteShifts kByteShifts = make_byte_shifts();

#if defined(REMIO_CRC32C_X86)
/// Operator that advances a raw CRC register past `Len` zero bytes, as four
/// byte-indexed tables: shift(crc) = z[0][b0] ^ z[1][b1] ^ z[2][b2] ^ z[3][b3].
struct ZerosOp {
  std::uint32_t z[4][256];
};

/// GF(2) 32x32 matrix (one column per input bit) applied to `vec`.
constexpr std::uint32_t gf2_times(const std::uint32_t (&mat)[32],
                                  std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (int i = 0; vec != 0; ++i, vec >>= 1)
    if (vec & 1u) sum ^= mat[i];
  return sum;
}

template <std::size_t Len>
constexpr ZerosOp make_zeros_op() {
  static_assert(Len != 0 && (Len & (Len - 1)) == 0, "power of two");
  // One zero bit: bit 0 feeds the polynomial, bit n moves to bit n-1.
  std::uint32_t op[32] = {kPoly};
  for (int n = 1; n < 32; ++n) op[n] = 1u << (n - 1);
  // Square 3 times for one zero byte, then log2(Len) more times.
  for (std::size_t bits = 1; bits < 8 * Len; bits *= 2) {
    std::uint32_t sq[32] = {};
    for (int n = 0; n < 32; ++n) sq[n] = gf2_times(op, op[n]);
    for (int n = 0; n < 32; ++n) op[n] = sq[n];
  }
  ZerosOp zo{};
  for (std::uint32_t b = 0; b < 256; ++b)
    for (int k = 0; k < 4; ++k) zo.z[k][b] = gf2_times(op, b << (8 * k));
  return zo;
}

inline std::uint64_t shift(const ZerosOp& op, std::uint64_t crc) {
  return op.z[0][crc & 0xFF] ^ op.z[1][(crc >> 8) & 0xFF] ^
         op.z[2][(crc >> 16) & 0xFF] ^ op.z[3][(crc >> 24) & 0xFF];
}

/// Three independent crc32q chains over adjacent `Block`-byte blocks while
/// 3*Block bytes remain; chains 1 and 2 then fold into chain 0. crc32q has
/// latency 3 and throughput 1, so three chains keep the unit busy.
template <std::size_t Block>
__attribute__((target("sse4.2"))) inline std::uint64_t crc_3way(
    const unsigned char*& p, std::size_t& n, std::uint64_t crc0) {
  static constexpr ZerosOp kOp = make_zeros_op<Block>();  // in .rodata
  while (n >= 3 * Block) {
    std::uint64_t crc1 = 0, crc2 = 0;
    for (const unsigned char* end = p + Block; p < end; p += 8) {
      std::uint64_t w0, w1, w2;
      std::memcpy(&w0, p, 8);
      std::memcpy(&w1, p + Block, 8);
      std::memcpy(&w2, p + 2 * Block, 8);
      crc0 = __builtin_ia32_crc32di(crc0, w0);
      crc1 = __builtin_ia32_crc32di(crc1, w1);
      crc2 = __builtin_ia32_crc32di(crc2, w2);
    }
    crc0 = shift(kOp, crc0) ^ crc1;
    crc0 = shift(kOp, crc0) ^ crc2;
    p += 2 * Block;
    n -= 3 * Block;
  }
  return crc0;
}

__attribute__((target("sse4.2"))) std::uint32_t crc_hw(const unsigned char* p,
                                                       std::size_t n,
                                                       std::uint32_t crc) {
  crc = ~crc;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --n;
  }
  std::uint64_t c64 = crc_3way<8192>(p, n, crc);
  c64 = crc_3way<256>(p, n, c64);
  // Tail (< 768 bytes): one serial chain.
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c64 = __builtin_ia32_crc32di(c64, w);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c64);
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --n;
  }
  return ~crc;
}

bool detect_hw() { return __builtin_cpu_supports("sse4.2") != 0; }
#elif defined(REMIO_CRC32C_ARM)
std::uint32_t crc_hw(const unsigned char* p, std::size_t n, std::uint32_t crc) {
  crc = ~crc;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    crc = __crc32cd(crc, w);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  return ~crc;
}

bool detect_hw() { return true; }  // __ARM_FEATURE_CRC32 implies support
#else
std::uint32_t crc_hw(const unsigned char* p, std::size_t n, std::uint32_t crc) {
  return crc_sw(p, n, crc);
}
bool detect_hw() { return false; }
#endif

using CrcFn = std::uint32_t (*)(const unsigned char*, std::size_t,
                                std::uint32_t);

/// Resolved once; every later call is an indirect call through a constant.
const CrcFn kImpl = detect_hw() ? &crc_hw : &crc_sw;
const bool kHw = detect_hw();

}  // namespace

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed) {
  return kImpl(reinterpret_cast<const unsigned char*>(data.data()), data.size(),
               seed);
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) {
  // Shifting is linear and 0 stays 0, so both shortcuts are exact.
  if (crc_a == 0 || len_b == 0) return crc_a ^ crc_b;
  // x^(8 * len_b) as a product of the table entries for len_b's set bits;
  // 0 until the first factor (no power of x is 0 mod P).
  std::uint32_t op = 0;
  for (int k = 0; len_b != 0; ++k, len_b >>= 1)
    if (len_b & 1u)
      op = op == 0 ? kByteShifts.x[k] : multmodp(kByteShifts.x[k], op);
  return multmodp(op, crc_a) ^ crc_b;
}

bool crc32c_hw_available() { return kHw; }

namespace detail {
std::uint32_t crc32c_portable(ByteSpan data, std::uint32_t seed) {
  return crc_sw(reinterpret_cast<const unsigned char*>(data.data()),
                data.size(), seed);
}
}  // namespace detail

}  // namespace remio
