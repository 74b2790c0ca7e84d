#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256_kernels.h"
#include "telemetry/profile.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace grub {

namespace {

constexpr uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                       0xa54ff53a, 0x510e527f, 0x9b05688c,
                                       0x1f83d9ab, 0x5be0cd19};

constexpr uint32_t kK[64] = {
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

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline void StoreBe32(uint8_t* out, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(out, &v, sizeof v);
}

void ScalarBlock(uint32_t state[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
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

Hash256 DigestOfState(const uint32_t state[8]) {
  Hash256 out;
  for (size_t i = 0; i < 8; ++i) StoreBe32(out.bytes.data() + 4 * i, state[i]);
  return out;
}

}  // namespace

namespace sha256_kernels {

void CompressScalar(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) ScalarBlock(state, data);
}

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("sha,sse4.1,ssse3")))
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks) {
  // Loads are little-endian; SHA-256 message words are big-endian.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // sha256rnds2 holds the eight working variables as ABEF and CDGH.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds message words 4g..4g+3 while group g of rounds runs.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          byte_swap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
      const __m128i wk = _mm_add_epi32(w[g & 3], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g < 12) {
        // Words 4g+16..4g+19 replace the four just consumed.
        const __m128i last = w[(g + 3) & 3];
        const __m128i sum = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
            _mm_alignr_epi8(last, w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(sum, last);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool shuffles = (ecx & bit_SSSE3) && (ecx & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return shuffles && (ebx & bit_SHA);
}

Compress Selected() {
  static const Compress kernel =
      CpuHasShaNi() ? CompressShaNi : CompressScalar;
  return kernel;
}

#else

bool CpuHasShaNi() { return false; }

Compress Selected() { return CompressScalar; }

#endif

const char* SelectedName() {
  return Selected() == CompressScalar ? "scalar" : "sha-ni";
}

Hash256 DigestPadded(const uint8_t* data, size_t blocks) {
  GRUB_PROBE(telemetry::ProbeSite::kSha256Digest);
  uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof state);
  Selected()(state, data, blocks);
  return DigestOfState(state);
}

}  // namespace sha256_kernels

void Sha256::Reset() {
  std::memcpy(state_, kInitialState, sizeof state_);
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(ByteSpan data) {
  if (data.empty()) return;
  const sha256_kernels::Compress compress = sha256_kernels::Selected();
  bit_count_ += static_cast<uint64_t>(data.size()) * 8;
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Hash256 Sha256::Finish() {
  // Padding, in place: 0x80, zeros up to byte 56 of the last block, then the
  // 64-bit big-endian bit count. Past byte 55 that takes one more block.
  const sha256_kernels::Compress compress = sha256_kernels::Selected();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  StoreBe32(buffer_ + 56, static_cast<uint32_t>(bit_count_ >> 32));
  StoreBe32(buffer_ + 60, static_cast<uint32_t>(bit_count_));
  compress(state_, buffer_, 1);
  return DigestOfState(state_);
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

Hash256 Sha256::DigestParts(std::initializer_list<ByteSpan> parts) {
  GRUB_PROBE(telemetry::ProbeSite::kSha256Digest);
  Sha256 h;
  for (ByteSpan part : parts) h.Update(part);
  return h.Finish();
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
