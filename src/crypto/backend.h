// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Runtime-dispatched crypto backend facade. The primitive layer ships
// several implementations of the same functions — portable scalar code
// (always present), AVX2 8-lane and AVX-512 16-lane multi-buffer hashing,
// and SHA-NI single-stream hashing — and this class picks the fastest one
// the CPU supports at process start. Every backend is bit-identical by
// construction: accelerated kernels are verified against pinned NIST
// digests at initialization and are disabled (falling back to scalar) on
// any mismatch, so golden-pinned digests, VTs, VOs, and signatures can
// never change with the hardware.
//
// Escape hatch: set SAE_FORCE_SCALAR=1 in the environment (or call
// set_force_scalar) to pin every primitive to the scalar reference path.

#ifndef SAE_CRYPTO_BACKEND_H_
#define SAE_CRYPTO_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "crypto/digest.h"

namespace sae::crypto {

class Backend {
 public:
  /// CPU features relevant to the crypto kernels, detected once.
  struct Features {
    bool sse41 = false;
    bool avx2 = false;
    bool sha_ni = false;
    bool avx512 = false;  ///< avx512f and avx512bw
  };

  /// The kernels HashMany can run a batch on. kAvx512X16 hashes SHA-1
  /// runs of 16 or more equal-length messages 16 at a time and sends
  /// everything else (leftovers, short runs, SHA-256) to the one-shot
  /// kernel HashOne uses.
  enum class BatchKernel { kScalar, kShaNi, kAvx2X8, kAvx512X16 };

  /// The process-wide backend (thread-safe lazy init + self-check).
  static Backend& Instance();

  const Features& features() const { return features_; }

  /// True when every primitive must take the scalar reference path:
  /// SAE_FORCE_SCALAR=1, set_force_scalar(true), or no usable kernel.
  bool force_scalar() const {
    return force_scalar_.load(std::memory_order_relaxed);
  }

  /// Test hook: flips dispatch at runtime (used by the parity harness to
  /// compare backends within one process).
  void set_force_scalar(bool on) {
    force_scalar_.store(on, std::memory_order_relaxed);
  }

  /// True when an accelerated hash kernel is active (not forced scalar,
  /// feature present, and the init-time self-check passed).
  bool accelerated_hash() const;

  /// Active kernel names, for logs and bench JSON. The hash name is the
  /// one-shot kernel, plus the batch kernel when that differs:
  /// "sha-ni+avx512-x16" | "sha-ni" | "avx2-x8+avx512-x16" | "avx2-x8" |
  /// "scalar", and "montgomery" | "scalar".
  const char* hash_kernel() const;
  const char* modexp_kernel() const;

  /// One-shot digest under `scheme`; dispatches to SHA-NI when available.
  Digest HashOne(HashScheme scheme, const void* data, size_t len) const;

  /// Batched digests: out[i] = H(inputs[i]). Bit-identical to calling
  /// HashOne per input. Runs on the best available batch kernel: AVX-512
  /// for SHA-1 runs of 16+ equal-length inputs, else SHA-NI per input,
  /// else AVX2 8-lane passes, else scalar.
  void HashMany(HashScheme scheme, const ByteSpan* inputs, size_t count,
                Digest* out) const;

  /// True when `kernel` passed feature detection and the self-check
  /// (kScalar always has). Ignores force_scalar.
  bool has_batch_kernel(BatchKernel kernel) const;

  /// "scalar" | "sha-ni" | "avx2-x8" | "avx512-x16".
  static const char* BatchKernelName(BatchKernel kernel);

  /// HashMany pinned to `kernel`, which must be available; ignores
  /// force_scalar. For the parity harness and per-kernel bench rows.
  void HashManyWith(BatchKernel kernel, HashScheme scheme,
                    const ByteSpan* inputs, size_t count, Digest* out) const;

 private:
  Backend();

  void SelfCheck();

  Features features_;
  std::atomic<bool> force_scalar_{false};
  bool sha_ni_ok_ = false;  // feature present AND self-check passed
  bool avx2_ok_ = false;
  bool avx512_ok_ = false;
};

}  // namespace sae::crypto

#endif  // SAE_CRYPTO_BACKEND_H_
