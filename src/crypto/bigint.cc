// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements BigInt (crypto/bigint.h): schoolbook multiply, Knuth
// Algorithm D division, Montgomery (CIOS) fixed-window modular
// exponentiation with a square-and-multiply scalar reference, and
// Miller-Rabin prime generation for RSA key sizes.

#include "crypto/bigint.h"

#include <algorithm>

#include "crypto/backend.h"
#include "util/macros.h"

namespace sae::crypto {

namespace {

constexpr uint64_t kBase = 1ULL << 32;

// Small primes for trial division before Miller-Rabin.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

}  // namespace

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

BigInt BigInt::FromBytes(const uint8_t* data, size_t len) {
  BigInt out;
  out.limbs_.assign((len + 3) / 4, 0);
  for (size_t i = 0; i < len; ++i) {
    // data[0] is the most significant byte.
    size_t byte_index = len - 1 - i;  // little-endian byte position
    out.limbs_[byte_index / 4] |= uint32_t(data[i]) << (8 * (byte_index % 4));
  }
  out.Trim();
  return out;
}

BigInt BigInt::FromHex(const std::string& hex) {
  BigInt out;
  for (char c : hex) {
    uint32_t v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      SAE_CHECK(false && "invalid hex digit");
      return out;
    }
    out = Add(Mul(out, BigInt(16)), BigInt(v));
  }
  return out;
}

BigInt BigInt::Random(Rng* rng, size_t bits, bool exact_bits) {
  SAE_CHECK(bits > 0);
  BigInt out;
  size_t limbs = (bits + 31) / 32;
  out.limbs_.resize(limbs);
  for (auto& l : out.limbs_) l = static_cast<uint32_t>(rng->Next());
  size_t top_bits = bits - (limbs - 1) * 32;  // bits in the top limb, 1..32
  uint32_t mask =
      top_bits == 32 ? 0xffffffffu : ((uint32_t(1) << top_bits) - 1);
  out.limbs_.back() &= mask;
  if (exact_bits) out.limbs_.back() |= uint32_t(1) << (top_bits - 1);
  out.Trim();
  return out;
}

std::vector<uint8_t> BigInt::ToBytes(size_t len) const {
  std::vector<uint8_t> out(len, 0);
  size_t nbytes = limbs_.size() * 4;
  for (size_t i = 0; i < nbytes; ++i) {
    uint8_t byte = uint8_t(limbs_[i / 4] >> (8 * (i % 4)));
    if (byte != 0) SAE_CHECK(i < len && "value does not fit in len bytes");
    if (i < len) out[len - 1 - i] = byte;
  }
  return out;
}

std::vector<uint8_t> BigInt::ToBytes() const {
  size_t bytes = (BitLength() + 7) / 8;
  if (bytes == 0) bytes = 1;
  return ToBytes(bytes);
}

std::string BigInt::ToHex() const {
  if (IsZero()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigInt::Compare(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Trim();
  return out;
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  SAE_CHECK(Compare(a, b) >= 0);
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = int64_t(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += int64_t(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  SAE_CHECK(borrow == 0);
  out.Trim();
  return out;
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftLeft(const BigInt& a, size_t bits) {
  if (a.IsZero() || bits == 0) {
    BigInt out = a;
    return out;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = uint64_t(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftRight(const BigInt& a, size_t bits) {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < a.limbs_.size()) {
      v |= uint64_t(a.limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

BigInt BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* rem) {
  SAE_CHECK(!b.IsZero());
  if (Compare(a, b) < 0) {
    if (rem) *rem = a;
    return BigInt();
  }
  if (b.limbs_.size() == 1) {
    // Short division.
    uint64_t d = b.limbs_[0];
    BigInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t r = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (r << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      r = cur % d;
    }
    q.Trim();
    if (rem) *rem = BigInt(r);
    return q;
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set.
  size_t shift = 0;
  uint32_t top = b.limbs_.back();
  while (!(top & 0x80000000u)) {
    top <<= 1;
    ++shift;
  }
  BigInt u = ShiftLeft(a, shift);
  BigInt v = ShiftLeft(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 limbs

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate quotient digit.
    uint64_t numerator = (uint64_t(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = numerator / v.limbs_[n - 1];
    uint64_t rhat = numerator % v.limbs_[n - 1];
    while (qhat >= kBase ||
           (n >= 2 &&
            qhat * v.limbs_[n - 2] > ((rhat << 32) | u.limbs_[j + n - 2]))) {
      --qhat;
      rhat += v.limbs_[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = int64_t(u.limbs_[i + j]) - int64_t(uint32_t(p)) - borrow;
      u.limbs_[i + j] = static_cast<uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    int64_t t = int64_t(u.limbs_[j + n]) - int64_t(carry) - borrow;
    u.limbs_[j + n] = static_cast<uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add back.
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s = uint64_t(u.limbs_[i + j]) + v.limbs_[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      u.limbs_[j + n] = static_cast<uint32_t>(u.limbs_[j + n] + c);
    }
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  q.Trim();
  if (rem) {
    u.limbs_.resize(n);
    u.Trim();
    *rem = ShiftRight(u, shift);
  }
  return q;
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  BigInt r;
  DivMod(a, m, &r);
  return r;
}

BigInt BigInt::ModPow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  SAE_CHECK(Compare(m, BigInt(1)) > 0);
  // Montgomery form needs gcd(R, m) = 1, i.e. an odd modulus — true for
  // every RSA modulus. Single-limb moduli aren't worth the domain
  // conversions; SAE_FORCE_SCALAR pins the reference ladder.
  if (m.IsOdd() && m.limbs_.size() >= 2 && !Backend::Instance().force_scalar()) {
    return ModPowMont(base, exp, m);
  }
  return ModPowScalar(base, exp, m);
}

BigInt BigInt::ModPowScalar(const BigInt& base, const BigInt& exp,
                            const BigInt& m) {
  SAE_CHECK(Compare(m, BigInt(1)) > 0);
  BigInt result(1);
  BigInt b = Mod(base, m);
  size_t bits = exp.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = Mod(Mul(result, result), m);
    if (exp.Bit(i)) result = Mod(Mul(result, b), m);
  }
  return result;
}

namespace {

#ifdef __SIZEOF_INT128__

// The Montgomery engine works on 64-bit limbs with unsigned __int128
// accumulators — half the limb count and a quarter of the multiply count
// of the 32-bit representation BigInt stores.
using Limb = uint64_t;
using Wide = unsigned __int128;
constexpr int kLimbBits = 64;

// -x^{-1} mod 2^64 for odd x (Newton: precision doubles per step from the
// 3-bit seed inv = x, since x*x ≡ 1 mod 8).
Limb NegInvModWord(Limb x) {
  Limb inv = x;
  for (int i = 0; i < 5; ++i) inv *= 2u - x * inv;
  return ~inv + 1u;
}

// Packs BigInt's 32-bit limbs into K 64-bit limbs (zero-extended).
std::vector<Limb> PackLimbs(const std::vector<uint32_t>& v, size_t K) {
  std::vector<Limb> out(K, 0);
  for (size_t i = 0; i < v.size(); ++i) {
    out[i / 2] |= Limb(v[i]) << (32 * (i % 2));
  }
  return out;
}

// CIOS Montgomery product: out = a * b * R^{-1} mod n with R = 2^(64k).
// a, b are k-limb values < n; t is k+2 scratch limbs. out may alias a or b
// (the result lives in t until the final reduce/copy).
void MontMul(const Limb* a, const Limb* b, const Limb* n, size_t k,
             Limb n0inv, Limb* t, Limb* out) {
  std::fill(t, t + k + 2, Limb(0));
  for (size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    Limb carry = 0;
    const Limb ai = a[i];
    for (size_t j = 0; j < k; ++j) {
      const Wide cur = Wide(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    Wide cur = Wide(t[k]) + carry;
    t[k] = static_cast<Limb>(cur);
    t[k + 1] += static_cast<Limb>(cur >> kLimbBits);

    // t = (t + (t[0] * n0inv mod 2^64) * n) / 2^64 — one limb retired.
    const Limb mi = t[0] * n0inv;
    carry = static_cast<Limb>((Wide(mi) * n[0] + t[0]) >> kLimbBits);
    for (size_t j = 1; j < k; ++j) {
      const Wide c2 = Wide(mi) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(c2);
      carry = static_cast<Limb>(c2 >> kLimbBits);
    }
    cur = Wide(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(cur);
    t[k] = t[k + 1] + static_cast<Limb>(cur >> kLimbBits);
    t[k + 1] = 0;
  }
  // CIOS leaves t < 2n: at most one subtraction.
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;
    for (size_t j = k; j-- > 0;) {
      if (t[j] != n[j]) {
        ge = t[j] > n[j];
        break;
      }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (size_t j = 0; j < k; ++j) {
      const Wide d = Wide(t[j]) - n[j] - borrow;
      out[j] = static_cast<Limb>(d);
      borrow = static_cast<Limb>((d >> kLimbBits) & 1);
    }
  } else {
    std::copy(t, t + k, out);
  }
}

#endif  // __SIZEOF_INT128__

}  // namespace

BigInt BigInt::ModPowMont(const BigInt& base, const BigInt& exp,
                          const BigInt& m) {
#ifndef __SIZEOF_INT128__
  return ModPowScalar(base, exp, m);
#else
  const size_t bits = exp.BitLength();
  if (bits == 0) return BigInt(1);  // m > 1 checked by ModPow

  const size_t k = (m.limbs_.size() + 1) / 2;  // 64-bit limb count
  const std::vector<Limb> n_v = PackLimbs(m.limbs_, k);
  const Limb* n = n_v.data();
  const Limb n0inv = NegInvModWord(n[0]);

  // One-time setup via the generic division path: R mod n (the Montgomery
  // one) and R^2 mod n (the to-domain conversion factor).
  std::vector<Limb> one_m =
      PackLimbs(Mod(ShiftLeft(BigInt(1), 64 * k), m).limbs_, k);
  std::vector<Limb> rr =
      PackLimbs(Mod(ShiftLeft(BigInt(1), 128 * k), m).limbs_, k);
  std::vector<Limb> b = PackLimbs(Mod(base, m).limbs_, k);

  std::vector<Limb> t(k + 2);
  std::vector<Limb> bm(k);
  MontMul(b.data(), rr.data(), n, k, n0inv, t.data(), bm.data());

  // Fixed window: all w squarings happen per window regardless of bits, and
  // the table makes the multiply count bits/w instead of popcount(exp).
  const size_t w = bits >= 512 ? 5 : bits >= 128 ? 4 : bits >= 24 ? 3 : 1;
  const size_t table_size = size_t(1) << w;
  std::vector<std::vector<Limb>> table(table_size);
  table[0] = one_m;
  table[1] = bm;
  for (size_t i = 2; i < table_size; ++i) {
    table[i].resize(k);
    MontMul(table[i - 1].data(), bm.data(), n, k, n0inv, t.data(),
            table[i].data());
  }

  auto window_at = [&](size_t j) {
    uint32_t v = 0;
    for (size_t bi = 0; bi < w; ++bi) {
      const size_t bit = j * w + bi;
      if (bit < bits && exp.Bit(bit)) v |= uint32_t(1) << bi;
    }
    return v;
  };

  const size_t nwin = (bits + w - 1) / w;
  std::vector<Limb> acc = table[window_at(nwin - 1)];
  for (size_t j = nwin - 1; j-- > 0;) {
    for (size_t s = 0; s < w; ++s) {
      MontMul(acc.data(), acc.data(), n, k, n0inv, t.data(), acc.data());
    }
    const uint32_t d = window_at(j);
    if (d != 0) {
      MontMul(acc.data(), table[d].data(), n, k, n0inv, t.data(), acc.data());
    }
  }

  // Leave the Montgomery domain: multiply by 1 (not one_m).
  std::vector<Limb> unit(k, 0);
  unit[0] = 1;
  MontMul(acc.data(), unit.data(), n, k, n0inv, t.data(), acc.data());

  BigInt out;
  out.limbs_.resize(2 * k);
  for (size_t i = 0; i < k; ++i) {
    out.limbs_[2 * i] = static_cast<uint32_t>(acc[i]);
    out.limbs_[2 * i + 1] = static_cast<uint32_t>(acc[i] >> 32);
  }
  out.Trim();
  return out;
#endif  // __SIZEOF_INT128__
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a, y = b;
  while (!y.IsZero()) {
    BigInt r = Mod(x, y);
    x = y;
    y = r;
  }
  return x;
}

bool BigInt::ModInverse(const BigInt& a, const BigInt& m, BigInt* out) {
  // Extended Euclid with coefficients tracked as (value, negative?) pairs to
  // stay in unsigned arithmetic.
  BigInt r0 = m, r1 = Mod(a, m);
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;

  while (!r1.IsZero()) {
    BigInt q = DivMod(r0, r1, nullptr);
    BigInt r2 = Sub(r0, Mul(q, r1));

    // t2 = t0 - q * t1 with sign tracking.
    BigInt qt = Mul(q, t1);
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (Compare(t0, qt) >= 0) {
        t2 = Sub(t0, qt);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt);
      t2_neg = t0_neg;
    }

    r0 = r1;
    r1 = r2;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }

  if (Compare(r0, BigInt(1)) != 0) return false;  // not coprime
  if (t0_neg) t0 = Sub(m, Mod(t0, m));
  *out = Mod(t0, m);
  return true;
}

bool BigInt::IsProbablePrime(const BigInt& n, Rng* rng, int rounds) {
  if (Compare(n, BigInt(3)) <= 0) return Compare(n, BigInt(2)) >= 0;
  if (!n.IsOdd()) return false;

  for (uint32_t p : kSmallPrimes) {
    BigInt r = Mod(n, BigInt(p));
    if (r.IsZero()) return Compare(n, BigInt(p)) == 0;
  }

  // Write n-1 = d * 2^s.
  BigInt n_minus_1 = Sub(n, BigInt(1));
  BigInt d = n_minus_1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d = ShiftRight(d, 1);
    ++s;
  }

  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    BigInt a;
    do {
      a = Random(rng, n.BitLength(), /*exact_bits=*/false);
    } while (Compare(a, BigInt(2)) < 0 || Compare(a, Sub(n, BigInt(2))) > 0);

    BigInt x = ModPow(a, d, n);
    if (Compare(x, BigInt(1)) == 0 || Compare(x, n_minus_1) == 0) continue;
    bool witness = true;
    for (size_t i = 1; i < s; ++i) {
      x = Mod(Mul(x, x), n);
      if (Compare(x, n_minus_1) == 0) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt BigInt::GeneratePrime(Rng* rng, size_t bits) {
  SAE_CHECK(bits >= 16);
  for (;;) {
    BigInt candidate = Random(rng, bits, /*exact_bits=*/true);
    if (!candidate.IsOdd()) candidate = Add(candidate, BigInt(1));
    if (candidate.BitLength() != bits) continue;
    if (IsProbablePrime(candidate, rng)) return candidate;
  }
}

}  // namespace sae::crypto
