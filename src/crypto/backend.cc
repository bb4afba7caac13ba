// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Backend selection, padding, and batch scheduling for the accelerated
// hash kernels. The compression kernels (crypto/kernels.h) only consume
// whole 64-byte blocks; this file owns FIPS 180-4 padding (BuildTail) so
// every byte hashed is identical to the scalar Sha1/Sha256 classes, and
// owns the known-answer self-check that gates kernel dispatch.

#include "crypto/backend.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "crypto/kernels.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace sae::crypto {

namespace {

Digest ScalarHash(HashScheme scheme, const void* data, size_t len) {
  Digest d;
  if (scheme == HashScheme::kSha1) {
    auto h = Sha1::Hash(data, len);
    std::memcpy(d.bytes.data(), h.data(), Digest::kSize);
  } else {
    auto h = Sha256::Hash(data, len);
    std::memcpy(d.bytes.data(), h.data(), Digest::kSize);
  }
  return d;
}

// A one-message hash path: ScalarHash, or NiHash below.
using SingleFn = Digest (*)(HashScheme scheme, const void* data, size_t len);

#ifdef SAE_CRYPTO_HAVE_KERNELS

constexpr uint32_t kSha1Iv[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                 0x10325476u, 0xC3D2E1F0u};
constexpr uint32_t kSha256Iv[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                   0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                   0x1f83d9abu, 0x5be0cd19u};

inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = uint8_t(v >> 24);
  p[1] = uint8_t(v >> 16);
  p[2] = uint8_t(v >> 8);
  p[3] = uint8_t(v);
}

// FIPS 180-4 padding for the trailing partial block: writes 1 or 2
// 64-byte blocks into `tail` and returns how many. `rem` = len % 64
// bytes still unprocessed, `total_len` = full message length in bytes.
size_t BuildTail(const uint8_t* rem_data, size_t rem, uint64_t total_len,
                 uint8_t tail[128]) {
  const size_t tail_blocks = rem >= 56 ? 2 : 1;
  std::memset(tail, 0, tail_blocks * 64);
  if (rem > 0) std::memcpy(tail, rem_data, rem);
  tail[rem] = 0x80;
  const uint64_t bit_len = total_len * 8;
  uint8_t* p = tail + tail_blocks * 64 - 8;
  for (int i = 0; i < 8; ++i) p[i] = uint8_t(bit_len >> (56 - 8 * i));
  return tail_blocks;
}

// --- SHA-NI single-stream path ---------------------------------------------

Digest NiHash(HashScheme scheme, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const size_t full = len / 64;
  uint8_t tail[128];
  const size_t tail_blocks = BuildTail(p + full * 64, len % 64, len, tail);
  Digest d;
  if (scheme == HashScheme::kSha1) {
    uint32_t st[5];
    std::memcpy(st, kSha1Iv, sizeof(st));
    if (full > 0) internal::Sha1NiBlocks(st, p, full);
    internal::Sha1NiBlocks(st, tail, tail_blocks);
    for (int w = 0; w < 5; ++w) StoreBe32(&d.bytes[4 * w], st[w]);
  } else {
    uint32_t st[8];
    std::memcpy(st, kSha256Iv, sizeof(st));
    if (full > 0) internal::Sha256NiBlocks(st, p, full);
    internal::Sha256NiBlocks(st, tail, tail_blocks);
    for (int w = 0; w < 5; ++w) StoreBe32(&d.bytes[4 * w], st[w]);
  }
  return d;
}

// --- multi-buffer paths (AVX2 8-lane, AVX-512 16-lane) ---------------------

using BlocksFn = void (*)(uint32_t* state, const uint8_t* const* ptrs,
                          size_t blocks);

// Hashes `lanes` (1..kLanes) equal-length messages in one kLanes-wide
// pass; spare lanes re-hash lane 0 and are discarded.
template <size_t kLanes>
void MultiBufferEqualLen(BlocksFn kernel, HashScheme scheme,
                         const uint8_t* const* data, size_t len, size_t lanes,
                         Digest* const* out) {
  const size_t full = len / 64;
  const size_t rem = len % 64;
  const int words = scheme == HashScheme::kSha1 ? 5 : 8;
  const uint32_t* iv = scheme == HashScheme::kSha1 ? kSha1Iv : kSha256Iv;

  uint32_t st[8 * kLanes];  // transposed: st[word * kLanes + lane]
  for (int w = 0; w < words; ++w) {
    for (size_t lane = 0; lane < kLanes; ++lane) st[w * kLanes + lane] = iv[w];
  }

  const uint8_t* ptrs[kLanes];
  for (size_t lane = 0; lane < kLanes; ++lane) {
    ptrs[lane] = data[lane < lanes ? lane : 0];
  }
  if (full > 0) kernel(st, ptrs, full);

  uint8_t tails[kLanes][128];
  size_t tail_blocks = 1;
  for (size_t lane = 0; lane < lanes; ++lane) {
    tail_blocks = BuildTail(ptrs[lane] + full * 64, rem, len, tails[lane]);
  }
  const uint8_t* tail_ptrs[kLanes];
  for (size_t lane = 0; lane < kLanes; ++lane) {
    tail_ptrs[lane] = tails[lane < lanes ? lane : 0];
  }
  kernel(st, tail_ptrs, tail_blocks);

  for (size_t lane = 0; lane < lanes; ++lane) {
    for (int w = 0; w < 5; ++w) {
      StoreBe32(&out[lane]->bytes[4 * static_cast<size_t>(w)],
                st[w * kLanes + lane]);
    }
  }
}

// Groups inputs by exact length (index permutation, sorted only when the
// lengths are mixed) and feeds equal-length runs to a kLanes-wide kernel
// in chunks of kLanes. A final chunk of at least `min_lanes` messages is
// padded out; smaller ones go message by message to `single`. Output
// order matches input order regardless of grouping.
template <size_t kLanes>
void MultiBufferHashMany(BlocksFn kernel, size_t min_lanes, SingleFn single,
                         HashScheme scheme, const ByteSpan* inputs,
                         size_t count, Digest* out) {
  std::vector<uint32_t> idx(count);
  std::iota(idx.begin(), idx.end(), 0u);
  auto shorter = [&](uint32_t a, uint32_t b) {
    return inputs[a].len < inputs[b].len;
  };
  if (!std::is_sorted(idx.begin(), idx.end(), shorter)) {
    std::sort(idx.begin(), idx.end(), shorter);
  }
  size_t pos = 0;
  while (pos < count) {
    const size_t len = inputs[idx[pos]].len;
    size_t end = pos;
    while (end < count && inputs[idx[end]].len == len) ++end;
    while (pos < end) {
      const size_t lanes = std::min(kLanes, end - pos);
      if (lanes < min_lanes) {
        for (size_t i = pos; i < end; ++i) {
          out[idx[i]] = single(scheme, inputs[idx[i]].data, len);
        }
        pos = end;
        break;
      }
      const uint8_t* data[kLanes];
      Digest* dsts[kLanes];
      for (size_t lane = 0; lane < lanes; ++lane) {
        data[lane] = static_cast<const uint8_t*>(inputs[idx[pos + lane]].data);
        dsts[lane] = &out[idx[pos + lane]];
      }
      MultiBufferEqualLen<kLanes>(kernel, scheme, data, len, lanes, dsts);
      pos += lanes;
    }
  }
}

#endif  // SAE_CRYPTO_HAVE_KERNELS

bool EnvForceScalar() {
  const char* v = std::getenv("SAE_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

Backend& Backend::Instance() {
  static Backend instance;  // magic-static: thread-safe one-time init
  return instance;
}

Backend::Backend() {
#if defined(SAE_CRYPTO_HAVE_KERNELS)
  features_.sse41 = __builtin_cpu_supports("sse4.1");
  features_.avx2 = __builtin_cpu_supports("avx2");
  features_.sha_ni = __builtin_cpu_supports("sha") && features_.sse41;
  features_.avx512 = __builtin_cpu_supports("avx512f") &&
                     __builtin_cpu_supports("avx512bw");
  avx2_ok_ = features_.avx2;
  sha_ni_ok_ = features_.sha_ni;
  avx512_ok_ = features_.avx512;
  SelfCheck();
#endif
  force_scalar_.store(EnvForceScalar(), std::memory_order_relaxed);
}

// Known-answer gate: runs NIST-anchored and boundary-length messages
// through every detected kernel and compares against the scalar
// reference (itself pinned to NIST vectors in crypto_test). A kernel
// that disagrees on any byte is permanently disabled, so on hardware or
// compiler combinations where an accelerated path misbehaves the
// process silently degrades to scalar instead of emitting wrong
// digests — golden encodings can never change with the CPU.
void Backend::SelfCheck() {
#ifdef SAE_CRYPTO_HAVE_KERNELS
  // Lengths straddle every padding case: empty, sub-block, 55/56/63/64
  // (tail-block boundaries), multi-block, and a >2-block message.
  static constexpr size_t kLens[] = {0, 1, 3, 55, 56, 63, 64, 65, 127, 128, 150, 443};
  // Each length runs kCopies times from distinct offsets, so a batch fills
  // whole 8- and 16-lane passes with different messages, pads a partial
  // 8-lane pass and leaves a 16-lane leftover.
  constexpr size_t kCopies = 17;
  constexpr size_t kBatch = std::size(kLens) * kCopies;
  uint8_t msg[443 + kCopies];
  for (size_t i = 0; i < sizeof(msg); ++i) msg[i] = uint8_t(i * 131 + 7);
  std::memcpy(msg, "abc", 3);  // prefix doubles as the NIST "abc" vector

  ByteSpan spans[kBatch];
  for (size_t i = 0; i < kBatch; ++i) {
    spans[i] = ByteSpan{msg + i % kCopies, kLens[i / kCopies]};
  }
  for (HashScheme scheme : {HashScheme::kSha1, HashScheme::kSha256Trunc}) {
    Digest expect[kBatch];
    for (size_t i = 0; i < kBatch; ++i) {
      expect[i] = ScalarHash(scheme, spans[i].data, spans[i].len);
    }
    if (sha_ni_ok_) {
      for (size_t i = 0; i < kBatch; ++i) {
        if (NiHash(scheme, spans[i].data, spans[i].len) != expect[i]) {
          sha_ni_ok_ = false;
          break;
        }
      }
    }
    auto batch_agrees = [&](BatchKernel kernel) {
      Digest got[kBatch];
      HashManyWith(kernel, scheme, spans, kBatch, got);
      return std::equal(got, got + kBatch, expect);
    };
    if (avx2_ok_ && !batch_agrees(BatchKernel::kAvx2X8)) avx2_ok_ = false;
    if (avx512_ok_ && scheme == HashScheme::kSha1 &&
        !batch_agrees(BatchKernel::kAvx512X16)) {
      avx512_ok_ = false;
    }
  }
#endif
}

bool Backend::accelerated_hash() const {
  return !force_scalar() && (sha_ni_ok_ || avx2_ok_ || avx512_ok_);
}

const char* Backend::hash_kernel() const {
  if (force_scalar()) return "scalar";
  if (sha_ni_ok_) return avx512_ok_ ? "sha-ni+avx512-x16" : "sha-ni";
  if (avx2_ok_) return avx512_ok_ ? "avx2-x8+avx512-x16" : "avx2-x8";
  if (avx512_ok_) return "avx512-x16";
  return "scalar";
}

const char* Backend::modexp_kernel() const {
  // Montgomery/windowed ModPow is portable integer code — always
  // available; only the scalar escape hatch reverts to square-and-multiply.
  return force_scalar() ? "scalar" : "montgomery";
}

bool Backend::has_batch_kernel(BatchKernel kernel) const {
  switch (kernel) {
    case BatchKernel::kScalar:
      return true;
    case BatchKernel::kShaNi:
      return sha_ni_ok_;
    case BatchKernel::kAvx2X8:
      return avx2_ok_;
    case BatchKernel::kAvx512X16:
      return avx512_ok_;
  }
  return false;
}

const char* Backend::BatchKernelName(BatchKernel kernel) {
  switch (kernel) {
    case BatchKernel::kScalar:
      return "scalar";
    case BatchKernel::kShaNi:
      return "sha-ni";
    case BatchKernel::kAvx2X8:
      return "avx2-x8";
    case BatchKernel::kAvx512X16:
      return "avx512-x16";
  }
  return "unknown";
}

Digest Backend::HashOne(HashScheme scheme, const void* data, size_t len) const {
#ifdef SAE_CRYPTO_HAVE_KERNELS
  if (sha_ni_ok_ && !force_scalar()) return NiHash(scheme, data, len);
#endif
  return ScalarHash(scheme, data, len);
}

void Backend::HashMany(HashScheme scheme, const ByteSpan* inputs, size_t count,
                       Digest* out) const {
  if (count == 0) return;
  BatchKernel kernel = BatchKernel::kScalar;
  if (force_scalar()) {
    kernel = BatchKernel::kScalar;
  } else if (avx512_ok_ && scheme == HashScheme::kSha1) {
    kernel = BatchKernel::kAvx512X16;
  } else if (sha_ni_ok_) {
    kernel = BatchKernel::kShaNi;
  } else if (avx2_ok_) {
    kernel = BatchKernel::kAvx2X8;
  }
  HashManyWith(kernel, scheme, inputs, count, out);
}

void Backend::HashManyWith(BatchKernel kernel, HashScheme scheme,
                           const ByteSpan* inputs, size_t count,
                           Digest* out) const {
  SingleFn single = ScalarHash;
#ifdef SAE_CRYPTO_HAVE_KERNELS
  switch (kernel) {
    case BatchKernel::kScalar:
      break;
    case BatchKernel::kShaNi:
      // Single-stream SHA-NI, one message at a time.
      single = NiHash;
      break;
    case BatchKernel::kAvx2X8:
      MultiBufferHashMany<8>(scheme == HashScheme::kSha1
                                 ? internal::Sha1X8Blocks
                                 : internal::Sha256X8Blocks,
                             /*min_lanes=*/2, ScalarHash, scheme, inputs,
                             count, out);
      return;
    case BatchKernel::kAvx512X16:
      // Single-stream SHA-NI hashes SHA-1 at only ~1.3-1.5 GB/s on a
      // 4-vCPU Xeon (family 6, model 207); 16 lanes do ~4.3 GB/s there on
      // 1,024 x 500 B batches (bench_micro_crypto, docs/BENCHMARKS.md).
      // Runs shorter than 16 and SHA-256 stay on the one-shot kernel.
      single = sha_ni_ok_ ? NiHash : ScalarHash;
      if (scheme == HashScheme::kSha1 && count >= 16) {
        MultiBufferHashMany<16>(internal::Sha1X16Blocks, /*min_lanes=*/16,
                                single, scheme, inputs, count, out);
        return;
      }
      break;
  }
#else
  (void)kernel;
#endif
  for (size_t i = 0; i < count; ++i) {
    out[i] = single(scheme, inputs[i].data, inputs[i].len);
  }
}

}  // namespace sae::crypto
