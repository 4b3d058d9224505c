#include "index/index_format.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define TWIGM_CRC_CLMUL 1
#endif

namespace twigm::index {

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial: table[0] is the
// classic byte table, and table[k][b] is the CRC of byte b followed by k
// zero bytes, so eight bytes fold in with eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = BuildCrcTables();

// Little-endian 64-bit load: the same value on any host.
inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Advances the raw (pre-inverted) CRC state `c` over [p, p + size).
uint32_t Slice8(const unsigned char* p, size_t size, uint32_t c) {
  for (; size >= 8; p += 8, size -= 8) {
    const uint64_t w = LoadLe64(p) ^ c;
    c = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
        kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
        kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
        kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; size > 0; ++p, --size) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(TWIGM_CRC_CLMUL)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), reflected
// form. Four 128-bit accumulators fold 64 input bytes per step; they are
// then folded into one, which takes the remaining whole 16-byte blocks;
// the last 128 bits are reduced to 64, then Barrett-reduced to the 32-bit
// state. Each constant is x^n mod P(x) for the fold distance n, bit-
// reflected and shifted left by one, as the reflected form needs.
constexpr uint64_t kFold4Lo = 0x154442bd4;    // x^(4*128+32) mod P
constexpr uint64_t kFold4Hi = 0x1c6e41596;    // x^(4*128-32) mod P
constexpr uint64_t kFold1Lo = 0x1751997d0;    // x^(128+32) mod P
constexpr uint64_t kFold1Hi = 0x0ccaa009e;    // x^(128-32) mod P
constexpr uint64_t kFold64 = 0x163cd6124;     // x^64 mod P
constexpr uint64_t kPolyP = 0x1db710641;      // P(x), reflected
constexpr uint64_t kBarrettMu = 0x1f7011641;  // x^64 div P(x), reflected

// acc * x^n mod P, folded onto the next 128 input bits: both 64-bit halves
// are multiplied by their distance constant and xored with `next`.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i acc,
                                                      __m128i k,
                                                      __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Advances the raw CRC state over `size` bytes; `size` is a multiple of
// 16 and at least 64.
__attribute__((target("pclmul"))) uint32_t FoldClmul(const unsigned char* p,
                                                     size_t size,
                                                     uint32_t c) {
  auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;

  const __m128i k4 = _mm_set_epi64x(static_cast<long long>(kFold4Hi),
                                    static_cast<long long>(kFold4Lo));
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k4, load(p));
    x1 = Fold(x1, k4, load(p + 16));
    x2 = Fold(x2, k4, load(p + 32));
    x3 = Fold(x3, k4, load(p + 48));
  }

  const __m128i k1 = _mm_set_epi64x(static_cast<long long>(kFold1Hi),
                                    static_cast<long long>(kFold1Lo));
  x0 = Fold(x0, k1, x1);
  x0 = Fold(x0, k1, x2);
  x0 = Fold(x0, k1, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = Fold(x0, k1, load(p));

  // 128 -> 64 bits: the low half, times x^(128-32), onto the high half;
  // then the low 32 bits, times x^64, onto the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k1, 0x10),
                     _mm_srli_si128(x0, 8));
  const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0x00),
      _mm_srli_si128(x0, 4));

  // Barrett reduction to the 32-bit state.
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(kBarrettMu),
                                      static_cast<long long>(kPolyP));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#endif  // TWIGM_CRC_CLMUL

}  // namespace

namespace detail {

uint32_t Crc32Slice8(const void* data, size_t size, uint32_t seed) {
  return ~Slice8(static_cast<const unsigned char*>(data), size, ~seed);
}

bool Crc32HasClmul() {
#if defined(TWIGM_CRC_CLMUL)
  static const bool has = __builtin_cpu_supports("pclmul") != 0;
  return has;
#else
  return false;
#endif
}

uint32_t Crc32Clmul(const void* data, size_t size, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~seed;
#if defined(TWIGM_CRC_CLMUL)
  if (size >= 64) {
    const size_t blocks = size & ~size_t{15};
    c = FoldClmul(p, blocks, c);
    p += blocks;
    size -= blocks;
  }
#endif
  return ~Slice8(p, size, c);
}

}  // namespace detail

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  return detail::Crc32HasClmul() ? detail::Crc32Clmul(data, size, seed)
                                 : detail::Crc32Slice8(data, size, seed);
}

}  // namespace twigm::index
