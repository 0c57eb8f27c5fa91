#include "common/checksum.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HYRD_CRC_X86 1
#endif

namespace hyrd::common {
namespace {

// Slicing-by-8 CRC-32C: table[0] is the classic bitwise-derived table,
// table[t][b] extends it so eight input bytes fold into the running CRC
// with eight independent lookups per 64-bit load.
struct Crc32cTables {
  std::uint32_t t[8][256];
};

// 0x1EDC6F41 bit-reversed, shared by the tables and the GF(2) arithmetic.
constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

Crc32cTables make_crc32c_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (int slice = 1; slice < 8; ++slice) {
      crc = (crc >> 8) ^ tables.t[0][crc & 0xFFu];
      tables.t[slice][i] = crc;
    }
  }
  return tables;
}

const Crc32cTables kCrc = make_crc32c_tables();

std::uint32_t crc32c_sw(std::uint32_t crc, const std::uint8_t* p,
                        std::size_t n) {
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;
    crc = kCrc.t[7][w & 0xFF] ^ kCrc.t[6][(w >> 8) & 0xFF] ^
          kCrc.t[5][(w >> 16) & 0xFF] ^ kCrc.t[4][(w >> 24) & 0xFF] ^
          kCrc.t[3][(w >> 32) & 0xFF] ^ kCrc.t[2][(w >> 40) & 0xFF] ^
          kCrc.t[1][(w >> 48) & 0xFF] ^ kCrc.t[0][w >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kCrc.t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

// GF(2) polynomial arithmetic modulo the reflected CRC-32C polynomial
// (zlib's multmodp/x2nmodp scheme). In this representation bit 31 is x^0,
// and appending n zero bytes to a message multiplies its raw CRC register
// by x^(8n) mod P — the operation behind both the stream merge of the
// 3-way kernel and crc32c_combine().

constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPolyReflected : b >> 1;
  }
  return p;
}

// x^(2^k) mod P for every k a 64-bit byte length reaches (8n < 2^67).
// P is not irreducible (it has the factor x+1), so the powers are not
// assumed to cycle with period 32 as zlib's table does for its own use.
struct X2nTable {
  std::uint32_t t[67];
};

constexpr X2nTable make_x2n_table() {
  X2nTable table{};
  std::uint32_t p = 1u << 30;  // x^1
  table.t[0] = p;
  for (int k = 1; k < 67; ++k) table.t[k] = p = multmodp(p, p);
  return table;
}

constexpr X2nTable kX2n = make_x2n_table();

/// x^(n * 2^k) mod P.
constexpr std::uint32_t xnmodp(std::uint64_t n, int k = 0) {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if (n & 1u) p = multmodp(kX2n.t[k], p);
  }
  return p;
}

/// x^(8n) mod P: the multiplier that shifts a CRC register past n zero bytes.
constexpr std::uint32_t x8nmodp(std::uint64_t n) { return xnmodp(n, 3); }

// Table form of "multiply a register by x^(8n)" for one fixed n: the
// product is linear in the register, so it is the XOR of four per-byte
// lookups.
struct ShiftTable {
  std::uint32_t t[4][256];
};

ShiftTable make_shift_table(std::uint64_t n) {
  ShiftTable table{};
  const std::uint32_t xn = x8nmodp(n);
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (int byte = 0; byte < 4; ++byte) {
      table.t[byte][b] = multmodp(xn, b << (8 * byte));
    }
  }
  return table;
}

#ifdef HYRD_CRC_X86
// 3-way SSE4.2 kernel. One CRC32 instruction has a latency of three cycles
// but issues every cycle, so a single dependency chain runs at a third of
// the unit's rate. The input is cut into runs of three equal blocks hashed
// as three interleaved chains; each run's chains are merged by shifting
// the running register past the next block (a table lookup) and XORing in
// that block's chain. Long blocks amortise the merge on large buffers,
// short blocks keep 4 KiB inputs three-wide.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

const ShiftTable kLongShift = make_shift_table(kLongBlock);
const ShiftTable kShortShift = make_shift_table(kShortBlock);

inline std::uint32_t shift_crc(const ShiftTable& z, std::uint32_t crc) {
  return z.t[0][crc & 0xFF] ^ z.t[1][(crc >> 8) & 0xFF] ^
         z.t[2][(crc >> 16) & 0xFF] ^ z.t[3][crc >> 24];
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

template <std::size_t kBlock>
__attribute__((target("sse4.2"))) std::uint32_t crc32c_runs(
    std::uint32_t crc, const std::uint8_t*& p, std::size_t& n,
    const ShiftTable& shift) {
  while (n >= 3 * kBlock) {
    std::uint64_t c0 = crc;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      c0 = _mm_crc32_u64(c0, load_u64(p + i));
      c1 = _mm_crc32_u64(c1, load_u64(p + kBlock + i));
      c2 = _mm_crc32_u64(c2, load_u64(p + 2 * kBlock + i));
    }
    crc = shift_crc(shift, static_cast<std::uint32_t>(c0)) ^
          static_cast<std::uint32_t>(c1);
    crc = shift_crc(shift, crc) ^ static_cast<std::uint32_t>(c2);
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(std::uint32_t crc,
                                                          const std::uint8_t* p,
                                                          std::size_t n) {
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  crc = crc32c_runs<kLongBlock>(crc, p, n, kLongShift);
  crc = crc32c_runs<kShortBlock>(crc, p, n, kShortShift);
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load_u64(p));
  crc = static_cast<std::uint32_t>(c);
  while (n-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}

// Carry-less-multiply kernel. Four 512-bit accumulators hold a 256 B
// window as sixteen 128-bit lanes. Each step folds every lane 256 B
// forward and XORs in the next window: a lane A is the polynomial
// H*x^64 + L, with the high-degree half H in its low qword (reflected
// form), so moving it F bytes on is H*x^(8F+64) + L*x^(8F). A carry-less
// product of a reflected qword and a reflected 32-bit constant lands 33
// bits low in the lane, hence the constants x^(8F+31) and x^(8F-33) mod
// P. The lanes then fold into one 128-bit remainder that two CRC32
// instructions reduce to the register (no Barrett step); the tail under
// 256 B continues on the SSE4.2 kernel.
#define HYRD_CRC_VPCLMUL \
  __attribute__((target("avx512f,avx512bw,avx512vl,vpclmulqdq,pclmul,sse4.2")))

constexpr std::size_t kFoldMin = 512;  // shorter inputs stay on SSE4.2

struct FoldConst {
  std::uint64_t lo;  // multiplies the low (high-degree) qword
  std::uint64_t hi;  // multiplies the high qword
};

constexpr FoldConst fold_const(std::size_t bytes) {
  return {xnmodp(8 * bytes + 31), xnmodp(8 * bytes - 33)};
}

constexpr FoldConst kFold256 = fold_const(256);
constexpr FoldConst kFold192 = fold_const(192);
constexpr FoldConst kFold128 = fold_const(128);
constexpr FoldConst kFold64 = fold_const(64);
constexpr FoldConst kFold48 = fold_const(48);
constexpr FoldConst kFold32 = fold_const(32);
constexpr FoldConst kFold16 = fold_const(16);

HYRD_CRC_VPCLMUL inline __m512i broadcast_fold(FoldConst f) {
  const auto lo = static_cast<long long>(f.lo);
  const auto hi = static_cast<long long>(f.hi);
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

/// Lane i of `v` XOR lane i+2, then of that lane 0 XOR lane 1: the XOR of
/// all four 128-bit lanes. (The all-ones-mask forms keep GCC's intrinsic
/// headers from reading an undefined pass-through register.)
HYRD_CRC_VPCLMUL inline __m128i xor_lanes(__m512i v) {
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E));
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0xB1));
  return _mm512_maskz_extracti32x4_epi32(0xF, v, 0);
}

/// Every lane of `acc` moved forward by the distance `k` encodes, XORed
/// into `next`.
HYRD_CRC_VPCLMUL inline __m512i fold512(__m512i acc, __m512i k,
                                        __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);
}

HYRD_CRC_VPCLMUL std::uint32_t crc32c_vpclmul(std::uint32_t crc,
                                              const std::uint8_t* p,
                                              std::size_t n) {
  if (n >= kFoldMin) {
    // The register enters as the first four message bytes' XOR mask.
    __m512i z0 = _mm512_xor_si512(
        _mm512_loadu_si512(p),
        _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
    __m512i z1 = _mm512_loadu_si512(p + 64);
    __m512i z2 = _mm512_loadu_si512(p + 128);
    __m512i z3 = _mm512_loadu_si512(p + 192);
    p += 256;
    n -= 256;
    const __m512i k256 = broadcast_fold(kFold256);
    for (; n >= 256; p += 256, n -= 256) {
      z0 = fold512(z0, k256, _mm512_loadu_si512(p));
      z1 = fold512(z1, k256, _mm512_loadu_si512(p + 64));
      z2 = fold512(z2, k256, _mm512_loadu_si512(p + 128));
      z3 = fold512(z3, k256, _mm512_loadu_si512(p + 192));
    }
    // 4 -> 1 zmm: each accumulator folds onto the last one.
    const __m512i z =
        fold512(z0, broadcast_fold(kFold192),
                fold512(z1, broadcast_fold(kFold128),
                        fold512(z2, broadcast_fold(kFold64), z3)));
    // 4 -> 1 xmm: lanes 0..2 fold 48/32/16 bytes onto lane 3, which
    // enters as is (its constant is zero, so its products vanish).
    const __m512i kr = _mm512_set_epi64(
        0, 0, static_cast<long long>(kFold16.hi),
        static_cast<long long>(kFold16.lo), static_cast<long long>(kFold32.hi),
        static_cast<long long>(kFold32.lo), static_cast<long long>(kFold48.hi),
        static_cast<long long>(kFold48.lo));
    const __m128i r = xor_lanes(_mm512_ternarylogic_epi64(
        _mm512_clmulepi64_epi128(z, kr, 0x00),
        _mm512_clmulepi64_epi128(z, kr, 0x11), _mm512_maskz_mov_epi64(0xC0, z),
        0x96));
    std::uint64_t c = _mm_crc32_u64(0, static_cast<std::uint64_t>(
                                           _mm_cvtsi128_si64(r)));
    c = _mm_crc32_u64(
        c, static_cast<std::uint64_t>(_mm_extract_epi64(r, 1)));
    crc = static_cast<std::uint32_t>(c);
  }
  // Explicit: GCC emits no vzeroupper before a sibling call, and dirty
  // upper zmm state slows every later SSE instruction on this thread.
  _mm256_zeroupper();
  return crc32c_hw(crc, p, n);
}
#undef HYRD_CRC_VPCLMUL
#endif

using CrcFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                std::size_t);

/// A register-level kernel with crc32c()'s contract (seed and result
/// inverted).
template <CrcFn kFn>
std::uint32_t seeded(ByteSpan data, std::uint32_t seed) {
  return ~kFn(~seed, data.data(), data.size());
}

/// Every tier this host runs, fastest first; crc32c() uses the first.
std::vector<detail::Crc32cKernel> host_kernels() {
  std::vector<detail::Crc32cKernel> kernels;
#ifdef HYRD_CRC_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("vpclmulqdq") &&
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.2")) {
    kernels.push_back({"vpclmulqdq", seeded<crc32c_vpclmul>});
  }
  if (__builtin_cpu_supports("sse4.2")) {
    kernels.push_back({"sse4.2", seeded<crc32c_hw>});
  }
#endif
  kernels.push_back({"slicing8", seeded<crc32c_sw>});
  return kernels;
}

const std::vector<detail::Crc32cKernel> kKernels = host_kernels();
const detail::Crc32cKernel kBest = kKernels.front();

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed) {
  return kBest.fn(data, seed);
}

std::string_view crc32c_kernel_name() { return kBest.name; }

std::span<const detail::Crc32cKernel> detail::crc32c_kernels() {
  return kKernels;
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) {
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

std::uint32_t crc32c_reference(ByteSpan data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::uint8_t b : data) {
    crc = (crc >> 8) ^ kCrc.t[0][(crc ^ b) & 0xFFu];
  }
  return ~crc;
}

std::uint64_t fnv1a(ByteSpan data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Sha256Digest::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::process_blocks(const std::uint8_t* block, std::size_t count) {
  // Keep the working variables in locals across the whole run of blocks;
  // state_ is read once and written once per call, not per block.
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (std::size_t blk = 0; blk < count; ++blk, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
             (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t ta = a, tb = b, tc = c, td = d;
    std::uint32_t te = e, tf = f, tg = g, th = h;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(te, 6) ^ std::rotr(te, 11) ^ std::rotr(te, 25);
      const std::uint32_t ch = (te & tf) ^ (~te & tg);
      const std::uint32_t temp1 = th + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(ta, 2) ^ std::rotr(ta, 13) ^ std::rotr(ta, 22);
      const std::uint32_t maj = (ta & tb) ^ (ta & tc) ^ (tb & tc);
      const std::uint32_t temp2 = s0 + maj;
      th = tg;
      tg = tf;
      tf = te;
      te = td + temp1;
      td = tc;
      tc = tb;
      tb = ta;
      ta = temp1 + temp2;
    }
    a += ta;
    b += tb;
    c += tc;
    d += td;
    e += te;
    f += tf;
    g += tg;
    h += th;
  }
  state_[0] = a;
  state_[1] = b;
  state_[2] = c;
  state_[3] = d;
  state_[4] = e;
  state_[5] = f;
  state_[6] = g;
  state_[7] = h;
}

void Sha256::update(ByteSpan data) {
  bit_len_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (offset + 64 <= data.size()) {
    const std::size_t nblocks = (data.size() - offset) / 64;
    process_blocks(data.data() + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finalize() {
  // Append 0x80, pad with zeros, then the 64-bit big-endian length.
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? 56 - rem : 120 - rem;
  std::array<std::uint8_t, 8> len_be{};
  for (int i = 0; i < 8; ++i) {
    len_be[7 - i] = static_cast<std::uint8_t>(bit_len_ >> (i * 8));
  }
  update(ByteSpan(pad.data(), pad_len));
  update(ByteSpan(len_be.data(), len_be.size()));

  Sha256Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

}  // namespace hyrd::common
