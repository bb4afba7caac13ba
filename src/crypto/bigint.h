// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Arbitrary-precision unsigned integers, sized for RSA (512-2048 bit moduli).
// 32-bit limbs, little-endian limb order, always normalized (no leading zero
// limbs). Division is Knuth's Algorithm D. Modular exponentiation with an odd
// modulus (every RSA call) runs CIOS Montgomery multiplication under
// a fixed-window ladder — the TOM insert-signing hot path; the plain
// square-and-multiply reference survives as ModPowScalar, stays the fallback
// for even moduli and SAE_FORCE_SCALAR, and anchors the differential parity
// tests (crypto_parity_test) that prove both paths agree bit for bit.

#ifndef SAE_CRYPTO_BIGINT_H_
#define SAE_CRYPTO_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"

namespace sae::crypto {

/// Unsigned arbitrary-precision integer.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From a machine word.
  explicit BigInt(uint64_t v);

  /// From big-endian bytes (leading zeros permitted).
  static BigInt FromBytes(const uint8_t* data, size_t len);

  /// From lowercase/uppercase hex (no 0x prefix). Empty string -> 0.
  static BigInt FromHex(const std::string& hex);

  /// Uniformly random integer with exactly `bits` bits (msb forced to 1)
  /// when exact_bits, else uniform in [0, 2^bits).
  static BigInt Random(Rng* rng, size_t bits, bool exact_bits);

  /// Big-endian byte serialization, zero-padded/truncated to `len` bytes.
  /// Requires the value to fit (checked).
  std::vector<uint8_t> ToBytes(size_t len) const;

  /// Minimal big-endian bytes ("" -> value 0 yields {0x00} of size 1).
  std::vector<uint8_t> ToBytes() const;

  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t BitLength() const;
  bool Bit(size_t i) const;

  /// Three-way comparison: -1, 0, +1.
  static int Compare(const BigInt& a, const BigInt& b);

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) >= 0;
  }

  static BigInt Add(const BigInt& a, const BigInt& b);
  /// Requires a >= b (checked).
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  /// Floor division; `rem` (optional) receives a mod b. Requires b != 0.
  static BigInt DivMod(const BigInt& a, const BigInt& b, BigInt* rem);
  static BigInt Mod(const BigInt& a, const BigInt& m);

  static BigInt ShiftLeft(const BigInt& a, size_t bits);
  static BigInt ShiftRight(const BigInt& a, size_t bits);

  /// (base^exp) mod m. Requires m > 1. Odd multi-limb moduli dispatch to
  /// Montgomery + fixed-window (ModPowMont); everything else — and any
  /// process with SAE_FORCE_SCALAR set — takes ModPowScalar.
  static BigInt ModPow(const BigInt& base, const BigInt& exp, const BigInt& m);

  /// Square-and-multiply reference implementation of ModPow. Public so the
  /// parity harness can compare it against the Montgomery path directly.
  static BigInt ModPowScalar(const BigInt& base, const BigInt& exp,
                             const BigInt& m);

  /// Greatest common divisor.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Modular inverse of a mod m; returns false when gcd(a, m) != 1.
  static bool ModInverse(const BigInt& a, const BigInt& m, BigInt* out);

  /// Miller-Rabin probabilistic primality, `rounds` random bases.
  static bool IsProbablePrime(const BigInt& n, Rng* rng, int rounds = 24);

  /// Random prime with exactly `bits` bits.
  static BigInt GeneratePrime(Rng* rng, size_t bits);

 private:
  void Trim();

  /// Montgomery-domain fixed-window exponentiation. Requires m odd, m > 1.
  static BigInt ModPowMont(const BigInt& base, const BigInt& exp,
                           const BigInt& m);

  std::vector<uint32_t> limbs_;  // little-endian, normalized
};

}  // namespace sae::crypto

#endif  // SAE_CRYPTO_BIGINT_H_
