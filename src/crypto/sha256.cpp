#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace copbft::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
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

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load32_be(const Byte* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store32_be(Byte* p, std::uint32_t v) {
  p[0] = static_cast<Byte>(v >> 24);
  p[1] = static_cast<Byte>(v >> 16);
  p[2] = static_cast<Byte>(v >> 8);
  p[3] = static_cast<Byte>(v);
}

#if defined(__x86_64__)

#define COP_SHANI_TARGET __attribute__((target("sha,sse4.1")))

// Four rounds over message group `w` (W[t..t+3]) with constants k[0..3].
// The SHA extensions keep the state as ABEF/CDGH halves.
COP_SHANI_TARGET inline void shani_rounds4(__m128i& abef, __m128i& cdgh,
                                           __m128i w, const std::uint32_t* k) {
  __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// Message group t from groups t-16, t-12, t-8 and t-4.
COP_SHANI_TARGET inline __m128i shani_schedule(__m128i w16, __m128i w12,
                                               __m128i w8, __m128i w4) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                            _mm_alignr_epi8(w4, w8, 4));  // W[t-7..t-4]
  return _mm_sha256msg2_epu32(t, w4);
}

COP_SHANI_TARGET void compress_shani(std::uint32_t state[8],
                                     const Byte* blocks, std::size_t nblocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto* st = reinterpret_cast<__m128i*>(state);

  // state = A B C D | E F G H  ->  ABEF, CDGH (lanes high to low).
  __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128(st), 0xb1);
  __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(st + 1), 0x1b);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xf0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      shani_rounds4(abef, cdgh, w0, kK + 4 * g);
      __m128i next = g < 12 ? shani_schedule(w0, w1, w2, w3) : w0;
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(st, _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(st + 1, _mm_alignr_epi8(dchg, feba, 8));
}

#undef COP_SHANI_TARGET

bool cpu_has_shani() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || (c & bit_SSE4_1) == 0) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & (1u << 29)) != 0;  // CPUID.(EAX=7,ECX=0):EBX.SHA
}

#endif  // __x86_64__

}  // namespace

void sha256_compress_scalar(std::uint32_t state[8], const Byte* blocks,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load32_be(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256CompressFn sha256_compress_shani() {
#if defined(__x86_64__)
  if (cpu_has_shani()) return compress_shani;
#endif
  return nullptr;
}

Sha256CompressFn sha256_compress_selected() {
  static const Sha256CompressFn selected = [] {
    Sha256CompressFn shani = sha256_compress_shani();
    return shani != nullptr ? shani : sha256_compress_scalar;
  }();
  return selected;
}

namespace {
// Run the cpuid probe during static initialisation rather than inside the
// first hash; a hash from another translation unit's static initialiser
// still works, it just makes the choice itself.
[[maybe_unused]] const Sha256CompressFn kSelectedAtStartup =
    sha256_compress_selected();
}  // namespace

Sha256 Sha256::resume(const State& state, std::uint64_t blocks) {
  Sha256 ctx;
  ctx.state_ = state;
  ctx.total_bytes_ = 64 * blocks;
  return ctx;
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(ByteSpan data) {
  total_bytes_ += data.size();
  const Byte* p = data.data();
  std::size_t n = data.size();

  if (buffered_ > 0) {
    std::size_t take = std::min(n, sizeof buffer_ - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof buffer_) {
      sha256_compress_selected()(state_.data(), buffer_, 1);
      buffered_ = 0;
    }
  }
  if (n >= 64) {
    std::size_t blocks = n / 64;
    sha256_compress_selected()(state_.data(), p, blocks);
    p += 64 * blocks;
    n -= 64 * blocks;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Digest Sha256::finish() {
  std::uint64_t bit_len = total_bytes_ * 8;

  // Padding: 0x80, zeros, 64-bit big-endian length, into the last one or
  // two blocks.
  Sha256CompressFn compress = sha256_compress_selected();
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, sizeof buffer_ - buffered_);
    compress(state_.data(), buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<Byte>(bit_len >> (56 - 8 * i));
  compress(state_.data(), buffer_, 1);
  buffered_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) store32_be(out.bytes.data() + 4 * i, state_[i]);
  return out;
}

}  // namespace copbft::crypto
