// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Internal declarations for the accelerated hash kernels. Only
// backend.cc should include this; everything else goes through
// crypto::Backend. The kernels are compiled per-function with
// __attribute__((target(...))) so the rest of the library keeps the
// baseline ISA, and they are only *called* after runtime feature
// detection plus a known-answer self-check.

#ifndef SAE_CRYPTO_KERNELS_H_
#define SAE_CRYPTO_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace sae::crypto::internal {

#if defined(SAE_CRYPTO_SIMD) && (defined(__x86_64__) || defined(__i386__))
#define SAE_CRYPTO_HAVE_KERNELS 1

// --- AVX2 8-lane multi-buffer kernels (sha_mb_avx2.cc) ---------------------
//
// Transposed state: state[word * 8 + lane]. Each lane hashes `blocks`
// consecutive 64-byte blocks starting at ptrs[lane]. Lanes are fully
// independent; callers pad short batches by pointing spare lanes at
// lane 0's data.

void Sha1X8Blocks(uint32_t* state, const uint8_t* const ptrs[8],
                  size_t blocks);
void Sha256X8Blocks(uint32_t* state, const uint8_t* const ptrs[8],
                    size_t blocks);

// --- AVX-512 16-lane multi-buffer kernel (sha_mb_avx512.cc) ----------------
//
// Same contract as the 8-lane kernels with 16 lanes: state[word * 16 +
// lane]. SHA-1 only; SHA-256 batches keep their existing paths.

void Sha1X16Blocks(uint32_t* state, const uint8_t* const ptrs[16],
                   size_t blocks);

// --- SHA-NI single-stream kernels (sha_ni.cc) ------------------------------
//
// Compression only: updates `state` in place over `blocks` 64-byte blocks.
// Padding/finalization is the caller's job (backend.cc BuildTail).

void Sha1NiBlocks(uint32_t state[5], const uint8_t* data, size_t blocks);
void Sha256NiBlocks(uint32_t state[8], const uint8_t* data, size_t blocks);

#endif  // SAE_CRYPTO_SIMD && x86

}  // namespace sae::crypto::internal

#endif  // SAE_CRYPTO_KERNELS_H_
