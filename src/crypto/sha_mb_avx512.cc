// Copyright (c) saedb authors. Licensed under the MIT license.
//
// AVX-512 16-lane multi-buffer SHA-1 compression kernel.
//
// Sixteen independent messages are hashed in parallel: lane L lives in
// 32-bit element L of each zmm register, so one round of vector code
// performs the same round for all sixteen messages. Each block is loaded
// as one 64-byte row per lane and turned into sixteen word vectors by an
// in-register 16x16 transpose (32- and 64-bit unpacks, then two rounds of
// 128-bit lane shuffles). That avoids vpgatherdd, which is slow on parts
// that carry the gather-data-sampling microcode fix. Rotates are vprold
// and every round function is a single vpternlogd.
//
// The function is compiled with a per-function target attribute, so this
// translation unit is safe to build into a baseline-ISA binary;
// backend.cc only calls it after __builtin_cpu_supports("avx512f") and
// ("avx512bw") and a known-answer self-check all pass.

#include "crypto/kernels.h"

#ifdef SAE_CRYPTO_HAVE_KERNELS

// GCC 12 reports the _mm512_undefined_epi32() pass-through operand of the
// unmasked unpack/shuffle/rotate intrinsics as maybe-uninitialized once
// they are inlined; the operand is never read. The pragma must precede the
// include to cover the header's lines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

namespace sae::crypto::internal {

namespace {

#define SAE_AVX512 __attribute__((target("avx512f,avx512bw")))

// vpternlogd truth tables over (x, y, z) = (0xF0, 0xCC, 0xAA).
constexpr int kCh = 0xCA;      // (x & y) | (~x & z)
constexpr int kParity = 0x96;  // x ^ y ^ z
constexpr int kMaj = 0xE8;     // (x & y) | (x & z) | (y & z)

// r[i] holds the sixteen 32-bit words of lane i's block on entry; on exit
// r[j] holds word j of every lane (element i = lane i).
SAE_AVX512 inline void Transpose16x16(__m512i r[16]) {
  __m512i t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  // u[4g + m], 128-bit lane k: word 4k + m of rows 4g .. 4g + 3.
  __m512i u[16];
  for (int g = 0; g < 16; g += 4) {
    u[g + 0] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
    u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
    u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
    u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  for (int m = 0; m < 4; ++m) {
    __m512i v0 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0x88);
    __m512i v1 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0xDD);
    __m512i v2 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0x88);
    __m512i v3 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0xDD);
    r[m] = _mm512_shuffle_i32x4(v0, v2, 0x88);
    r[m + 4] = _mm512_shuffle_i32x4(v1, v3, 0x88);
    r[m + 8] = _mm512_shuffle_i32x4(v0, v2, 0xDD);
    r[m + 12] = _mm512_shuffle_i32x4(v1, v3, 0xDD);
  }
}

}  // namespace

SAE_AVX512 void Sha1X16Blocks(uint32_t* state, const uint8_t* const ptrs[16],
                              size_t blocks) {
  // Byte-swaps every 32-bit word to big-endian.
  const __m512i bswap = _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b, 0x04050607,
                                          0x00010203);
  __m512i st[5];
  for (int i = 0; i < 5; ++i) st[i] = _mm512_loadu_si512(state + i * 16);
  for (size_t blk = 0; blk < blocks; ++blk) {
    __m512i w[16];
    for (int lane = 0; lane < 16; ++lane) {
      w[lane] = _mm512_loadu_si512(ptrs[lane] + blk * 64);
    }
    Transpose16x16(w);
    for (int i = 0; i < 16; ++i) w[i] = _mm512_shuffle_epi8(w[i], bswap);

    __m512i a = st[0], b = st[1], c = st[2], d = st[3], e = st[4];
#pragma GCC unroll 80
    for (int t = 0; t < 80; ++t) {
      __m512i wt;
      if (t < 16) {
        wt = w[t];
      } else {
        // w[t] = rol1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16])
        wt = _mm512_rol_epi32(
            _mm512_xor_si512(
                _mm512_ternarylogic_epi32(w[(t + 13) & 15], w[(t + 8) & 15],
                                          w[(t + 2) & 15], kParity),
                w[t & 15]),
            1);
        w[t & 15] = wt;
      }
      __m512i f;
      uint32_t k;
      if (t < 20) {
        f = _mm512_ternarylogic_epi32(b, c, d, kCh);
        k = 0x5a827999u;
      } else if (t < 40) {
        f = _mm512_ternarylogic_epi32(b, c, d, kParity);
        k = 0x6ed9eba1u;
      } else if (t < 60) {
        f = _mm512_ternarylogic_epi32(b, c, d, kMaj);
        k = 0x8f1bbcdcu;
      } else {
        f = _mm512_ternarylogic_epi32(b, c, d, kParity);
        k = 0xca62c1d6u;
      }
      __m512i tmp = _mm512_add_epi32(
          _mm512_add_epi32(_mm512_rol_epi32(a, 5), f),
          _mm512_add_epi32(_mm512_add_epi32(e, wt),
                           _mm512_set1_epi32(static_cast<int>(k))));
      e = d;
      d = c;
      c = _mm512_rol_epi32(b, 30);
      b = a;
      a = tmp;
    }
    st[0] = _mm512_add_epi32(st[0], a);
    st[1] = _mm512_add_epi32(st[1], b);
    st[2] = _mm512_add_epi32(st[2], c);
    st[3] = _mm512_add_epi32(st[3], d);
    st[4] = _mm512_add_epi32(st[4], e);
  }
  for (int i = 0; i < 5; ++i) _mm512_storeu_si512(state + i * 16, st[i]);
}

#undef SAE_AVX512

}  // namespace sae::crypto::internal

#pragma GCC diagnostic pop

#endif  // SAE_CRYPTO_HAVE_KERNELS
