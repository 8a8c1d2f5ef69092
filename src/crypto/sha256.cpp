#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "telemetry/profile.h"

namespace grub {

namespace {

alignas(16) constexpr uint32_t kK[64] = {
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

constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

Hash256 StoreDigest(const uint32_t state[8]) {
  Hash256 out;
  for (size_t i = 0; i < 8; ++i) {
    uint32_t v = state[i];
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap32(v);
    }
    std::memcpy(out.bytes.data() + 4 * i, &v, 4);
  }
  return out;
}

#if defined(__x86_64__) || defined(__i386__)

// SHA-NI back end. Function-level target attributes keep the SHA and SSE4.1
// instructions out of every other function, so the binary still runs on CPUs
// without them; ShaNiCompress() hands this out only after cpuid says yes.
#define GRUB_SHA_NI_TARGET __attribute__((target("sha,sse4.1")))

// Message words w[4q..4q+3] for q >= 4, from the previous four quads:
// msg1 adds sigma0(w[t-15]) to w[t-16], the alignr supplies w[t-7], and
// msg2 adds sigma1(w[t-2]) (serially, since w[t-2] may be in this quad).
GRUB_SHA_NI_TARGET inline __m128i NextQuad(__m128i w0, __m128i w1, __m128i w2,
                                           __m128i w3) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}

// Rounds 4q..4q+3. Each rnds2 does two rounds and swaps the roles of the
// ABEF and CDGH halves, so two of them leave both where they started.
GRUB_SHA_NI_TARGET inline void FourRounds(__m128i& abef, __m128i& cdgh,
                                          __m128i w, int q) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * q])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

GRUB_SHA_NI_TARGET void CompressShaNiImpl(uint32_t state[8],
                                          const uint8_t* data, size_t blocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The instructions want the state as ABEF / CDGH lane pairs.
  __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    FourRounds(abef, cdgh, w0, 0);
    FourRounds(abef, cdgh, w1, 1);
    FourRounds(abef, cdgh, w2, 2);
    FourRounds(abef, cdgh, w3, 3);
    for (int q = 4; q < 16; q += 4) {
      w0 = NextQuad(w0, w1, w2, w3);
      FourRounds(abef, cdgh, w0, q);
      w1 = NextQuad(w1, w2, w3, w0);
      FourRounds(abef, cdgh, w1, q + 1);
      w2 = NextQuad(w2, w3, w0, w1);
      FourRounds(abef, cdgh, w2, q + 2);
      w3 = NextQuad(w3, w0, w1, w2);
      FourRounds(abef, cdgh, w3, q + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef GRUB_SHA_NI_TARGET

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx >> 9) & 1, sse41 = (ecx >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx >> 29) & 1;
  return ssse3 && sse41 && sha;
}

#endif  // x86

// The one dispatch point: every compression in the process passes here.
// Counted, not timed — a clock read would cost as much as a SHA-NI block.
inline void Compress(uint32_t state[8], const uint8_t* data, size_t blocks) {
  GRUB_PROBE_COUNT(telemetry::ProbeSite::kSha256Block, blocks);
  sha256_internal::ActiveCompress()(state, data, blocks);
}

}  // namespace

namespace sha256_internal {

void CompressScalar(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    // The schedule lives in a 16-word ring: w[t] overwrites w[t-16].
    uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = LoadBe32(data + 4 * i);

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int r = 0; r < 64; r += 16) {
      // Unrolled, every ring index is a constant and the eight working
      // variables rotate through registers instead of being shuffled.
#pragma GCC unroll 16
      for (int i = 0; i < 16; ++i) {
        if (r > 0) {
          const uint32_t w15 = w[(i + 1) & 15], w2 = w[(i + 14) & 15];
          const uint32_t s0 = Rotr(w15, 7) ^ Rotr(w15, 18) ^ (w15 >> 3);
          const uint32_t s1 = Rotr(w2, 17) ^ Rotr(w2, 19) ^ (w2 >> 10);
          w[i] += s0 + w[(i + 9) & 15] + s1;
        }
        const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
        const uint32_t ch = (e & f) ^ (~e & g);
        const uint32_t temp1 = h + s1 + ch + kK[r + i] + w[i];
        const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
        const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
      }
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

CompressFn ShaNiCompress() {
#if defined(__x86_64__) || defined(__i386__)
  return CpuHasShaNi() ? &CompressShaNiImpl : nullptr;
#else
  return nullptr;
#endif
}

CompressFn ActiveCompress() {
  static const CompressFn selected = [] {
    const CompressFn sha_ni = ShaNiCompress();
    return sha_ni != nullptr ? sha_ni : &CompressScalar;
  }();
  return selected;
}

}  // namespace sha256_internal

void Sha256::Reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(ByteSpan data) {
  bit_count_ += static_cast<uint64_t>(data.size()) * 8;
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      Compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    Compress(state_, data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Hash256 Sha256::Finish() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length.
  uint8_t pad[72];
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  uint64_t bits = bit_count_;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len + static_cast<size_t>(i)] = static_cast<uint8_t>(bits & 0xFF);
    bits >>= 8;
  }
  Update(ByteSpan(pad, pad_len + 8));
  return StoreDigest(state_);
}

Hash256 Sha256::Digest(ByteSpan data) {
  GRUB_PROBE(telemetry::ProbeSite::kSha256Digest);
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Hash256 Sha256::Digest2(ByteSpan a, ByteSpan b) {
  GRUB_PROBE(telemetry::ProbeSite::kSha256Digest);
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

Hash256 Sha256::DigestNode(uint8_t prefix, const Hash256& left,
                           const Hash256& right) {
  // 65 message bytes = 520 bits: block 0 holds the prefix, left and the
  // first 31 bytes of right; block 1 the last byte of right, the 0x80
  // terminator, zeros and the big-endian bit length.
  constexpr size_t kMessageBytes = 1 + 32 + 32;
  alignas(16) uint8_t blocks[128] = {};
  blocks[0] = prefix;
  std::memcpy(blocks + 1, left.bytes.data(), 32);
  std::memcpy(blocks + 33, right.bytes.data(), 32);
  blocks[kMessageBytes] = 0x80;
  constexpr uint64_t kBits = kMessageBytes * 8;
  for (size_t i = 0; i < 8; ++i) {
    blocks[127 - i] = static_cast<uint8_t>(kBits >> (8 * i));
  }
  uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  Compress(state, blocks, 2);
  return StoreDigest(state);
}

Hash256 HmacSha256(ByteSpan key, ByteSpan message) {
  uint8_t k[64] = {0};
  if (key.size() > 64) {
    Hash256 kh = Sha256::Digest(key);
    std::memcpy(k, kh.bytes.data(), 32);
  } else {
    std::memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Hash256 inner = Sha256::Digest2(ByteSpan(ipad, 64), message);
  return Sha256::Digest2(ByteSpan(opad, 64), inner.Span());
}

}  // namespace grub
