#include "common/checksum.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define CRFS_CRC64_PCLMUL 1
#endif

namespace crfs {
namespace {

constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;  // ECMA-182, reflected
constexpr std::uint32_t kPoly32 = 0xEDB88320U;          // IEEE 802.3, reflected

// Slice-by-8 tables for a reflected CRC: row 0 is the bytewise table, and
// row k holds the CRC of a byte followed by k zero bytes, so eight table
// lookups retire eight message bytes at once.
template <typename T>
struct SliceTables {
  std::array<std::array<T, 256>, 8> row{};

  explicit SliceTables(T poly) {
    for (unsigned i = 0; i < 256; ++i) {
      T crc = i;
      for (int bit = 0; bit < 8; ++bit) crc = (crc & 1) ? (crc >> 1) ^ poly : crc >> 1;
      row[0][i] = crc;
    }
    for (unsigned k = 1; k < 8; ++k) {
      for (unsigned i = 0; i < 256; ++i) {
        const T prev = row[k - 1][i];
        row[k][i] = (prev >> 8) ^ row[0][prev & 0xFF];
      }
    }
  }
};

template <typename T>
T slice8_update(const SliceTables<T>& t, T crc, const unsigned char* p, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p, sizeof(w));
      w ^= crc;
      crc = t.row[7][w & 0xFF] ^ t.row[6][(w >> 8) & 0xFF] ^ t.row[5][(w >> 16) & 0xFF] ^
            t.row[4][(w >> 24) & 0xFF] ^ t.row[3][(w >> 32) & 0xFF] ^
            t.row[2][(w >> 40) & 0xFF] ^ t.row[1][(w >> 48) & 0xFF] ^ t.row[0][w >> 56];
    }
  }
  for (; n > 0; ++p, --n) crc = t.row[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

const SliceTables<std::uint64_t>& tables64() {
  static const SliceTables<std::uint64_t> t(kPoly);
  return t;
}

const SliceTables<std::uint32_t>& tables32() {
  static const SliceTables<std::uint32_t> t(kPoly32);
  return t;
}

// GF(2) polynomial arithmetic modulo the CRC64 polynomial, in the
// reflected representation: bit 63 is x^0 and bit 0 is x^63.

// a * b mod P.
std::uint64_t multmodp(std::uint64_t a, std::uint64_t b) {
  std::uint64_t prod = 0;
  for (std::uint64_t m = 1ULL << 63; m != 0; m >>= 1) {
    if (a & m) prod ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return prod;
}

// x^(n * 2^k) mod P, by square-and-multiply over x^(2^j) mod P.
std::uint64_t x2nmodp(std::uint64_t n, unsigned k) {
  static const auto x2j = [] {
    std::array<std::uint64_t, 3 + 64> t{};  // j up to 3 + 63: 8 * a 64-bit length
    std::uint64_t p = 1ULL << 62;            // x^1
    for (auto& e : t) {
      e = p;
      p = multmodp(p, p);
    }
    return t;
  }();
  std::uint64_t p = 1ULL << 63;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if (n & 1) p = multmodp(x2j[k], p);
  }
  return p;
}

#ifdef CRFS_CRC64_PCLMUL

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009). A 128-bit block A is
// moved D bits further down the message by A*x^D mod P: its low qword
// (the high-degree half) is multiplied by x^(D+64) and its high qword by
// x^D. A reflected 64x64 carry-less product lands one bit short of the
// 128-bit reflected layout, so the keys are x^(D+63) and x^(D-1).
struct FoldKeys {
  std::uint64_t by2048_lo, by2048_hi;  // x^2111, x^2047: fold across 4 zmm
  std::uint64_t by512_lo, by512_hi;    // x^575, x^511: fold across 4 lanes
  std::uint64_t by128_lo, by128_hi;    // x^191, x^127: fold lane into lane
};

const FoldKeys& fold_keys() {
  static const FoldKeys k{x2nmodp(2111, 0), x2nmodp(2047, 0), x2nmodp(575, 0),
                          x2nmodp(511, 0),  x2nmodp(191, 0),  x2nmodp(127, 0)};
  return k;
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i acc, __m128i keys,
                                                               __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, keys, 0x00),
                                     _mm_clmulepi64_si128(acc, keys, 0x11)),
                       next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Below this size the fixed cost of folding beats its per-byte gain.
constexpr std::size_t kFoldMinBytes = 128;

// The one tail every folding kernel ends in. x0..x3 are the four folded
// lanes of the 64 bytes just before `p`: fold the remaining 64-byte
// blocks into them, reduce them to one lane, and let the tables finish.
__attribute__((target("pclmul,sse4.1"))) std::uint64_t fold_tail(
    __m128i x0, __m128i x1, __m128i x2, __m128i x3, const unsigned char* p, std::size_t n) {
  const FoldKeys& k = fold_keys();
  const __m128i by512 = _mm_set_epi64x(static_cast<long long>(k.by512_hi),
                                       static_cast<long long>(k.by512_lo));
  const __m128i by128 = _mm_set_epi64x(static_cast<long long>(k.by128_hi),
                                       static_cast<long long>(k.by128_lo));
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, by512, load(p));
    x1 = fold(x1, by512, load(p + 16));
    x2 = fold(x2, by512, load(p + 32));
    x3 = fold(x3, by512, load(p + 48));
  }
  x3 = fold(fold(fold(x0, by128, x1), by128, x2), by128, x3);

  // The folded block is congruent to everything consumed so far; the
  // tables reduce it along with the tail, so no Barrett step is needed.
  unsigned char folded[16] = {};
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded), x3);
  return slice8_update(tables64(), slice8_update(tables64(), std::uint64_t{0}, folded, 16), p,
                       n);
}

__attribute__((target("pclmul,sse4.1"))) std::uint64_t pclmul_update(
    std::uint64_t state, const unsigned char* p, std::size_t n) {
  if (n < kFoldMinBytes) return slice8_update(tables64(), state, p, n);
  // The register enters as the first 8 message bytes XORed with it; the
  // folds then run from a zero register.
  return fold_tail(_mm_xor_si128(load(p), _mm_cvtsi64_si128(static_cast<long long>(state))),
                   load(p + 16), load(p + 32), load(p + 48), p + 64, n - 64);
}

// The same folds four lanes wide: each zmm register carries four 128-bit
// lanes, so four of them retire 256 bytes a step.
#define CRFS_VPCLMUL_TARGET "avx512f,vpclmulqdq,pclmul,sse4.1"

__attribute__((target(CRFS_VPCLMUL_TARGET))) inline __m512i fold512(__m512i acc, __m512i keys,
                                                                    __m512i next) {
  // 0x96: three-way XOR.
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, keys, 0x00),
                                   _mm512_clmulepi64_epi128(acc, keys, 0x11), next, 0x96);
}

__attribute__((target(CRFS_VPCLMUL_TARGET))) inline __m512i keys512(std::uint64_t lo,
                                                                    std::uint64_t hi) {
  return _mm512_broadcast_i32x4(
      _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo)));
}

// Below this size one 256-byte step cannot run.
constexpr std::size_t kWideFoldMinBytes = 256;

__attribute__((target(CRFS_VPCLMUL_TARGET))) std::uint64_t vpclmul_update(
    std::uint64_t state, const unsigned char* p, std::size_t n) {
  if (n < kWideFoldMinBytes) return pclmul_update(state, p, n);
  const FoldKeys& k = fold_keys();
  const __m512i by2048 = keys512(k.by2048_lo, k.by2048_hi);
  const __m512i by512 = keys512(k.by512_lo, k.by512_hi);

  __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0,
                                                 static_cast<long long>(state)));
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
    x0 = fold512(x0, by2048, _mm512_loadu_si512(p));
    x1 = fold512(x1, by2048, _mm512_loadu_si512(p + 64));
    x2 = fold512(x2, by2048, _mm512_loadu_si512(p + 128));
    x3 = fold512(x3, by2048, _mm512_loadu_si512(p + 192));
  }
  // Four zmm into one, 64 bytes apart, then its lanes into the 128-bit tail.
  x3 = fold512(fold512(fold512(x0, by512, x1), by512, x2), by512, x3);
  return fold_tail(_mm512_extracti32x4_epi32(x3, 0), _mm512_extracti32x4_epi32(x3, 1),
                   _mm512_extracti32x4_epi32(x3, 2), _mm512_extracti32x4_epi32(x3, 3), p, n);
}

#endif  // CRFS_CRC64_PCLMUL

using Crc64Kernel = std::uint64_t (*)(std::uint64_t, const void*, std::size_t);

Crc64Kernel pick_crc64_kernel() {
  if (detail::crc64_vpclmul_supported()) return detail::crc64_update_vpclmul;
  return detail::crc64_pclmul_supported() ? detail::crc64_update_pclmul
                                          : detail::crc64_update_table;
}

}  // namespace

namespace detail {

std::uint64_t crc64_update_table(std::uint64_t state, const void* data, std::size_t size) {
  return slice8_update(tables64(), state, static_cast<const unsigned char*>(data), size);
}

std::uint64_t crc64_update_pclmul(std::uint64_t state, const void* data, std::size_t size) {
#ifdef CRFS_CRC64_PCLMUL
  if (crc64_pclmul_supported()) {
    return pclmul_update(state, static_cast<const unsigned char*>(data), size);
  }
#endif
  return crc64_update_table(state, data, size);
}

std::uint64_t crc64_update_vpclmul(std::uint64_t state, const void* data, std::size_t size) {
#ifdef CRFS_CRC64_PCLMUL
  if (crc64_vpclmul_supported()) {
    return vpclmul_update(state, static_cast<const unsigned char*>(data), size);
  }
#endif
  return crc64_update_pclmul(state, data, size);
}

bool crc64_pclmul_supported() {
#ifdef CRFS_CRC64_PCLMUL
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

bool crc64_vpclmul_supported() {
#ifdef CRFS_CRC64_PCLMUL
  static const bool supported = [] {
    __builtin_cpu_init();
    return crc64_pclmul_supported() && __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("vpclmulqdq");
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace detail

Crc64::Crc64() : state_(~0ULL) {}

void Crc64::update(std::span<const std::byte> data) {
  update(data.data(), data.size());
}

void Crc64::update(const void* data, std::size_t size) {
  static const Crc64Kernel kernel = pick_crc64_kernel();
  state_ = kernel(state_, data, size);
}

std::uint64_t Crc64::of(const void* data, std::size_t size) {
  Crc64 c;
  c.update(data, size);
  return c.digest();
}

std::uint64_t crc64_combine(std::uint64_t crc_a, std::uint64_t crc_b, std::uint64_t len_b) {
  return multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b;
}

Crc32::Crc32() : state_(~0U) {}

void Crc32::update(std::span<const std::byte> data) {
  update(data.data(), data.size());
}

void Crc32::update(const void* data, std::size_t size) {
  state_ = slice8_update(tables32(), state_, static_cast<const unsigned char*>(data), size);
}

std::uint32_t Crc32::of(const void* data, std::size_t size) {
  Crc32 c;
  c.update(data, size);
  return c.digest();
}

}  // namespace crfs
