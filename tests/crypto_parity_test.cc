// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Differential parity harness for the crypto backends: every accelerated
// kernel (SHA-NI, AVX2 multi-buffer, Montgomery modexp, RSA-CRT signing)
// must emit exactly the bytes the scalar reference path emits, over
// randomized inputs that hit every dispatch edge — empty and 1-byte
// messages, block boundaries, multi-megabyte streams, unaligned buffers,
// mixed-length batches, and BigInt operands of randomized widths. The
// scalar path is selected in-process through Backend::set_force_scalar, so
// one binary compares both backends on identical inputs.
//
// On hardware without SHA-NI/AVX2 (or with SAE_FORCE_SCALAR set) both runs
// take the scalar path and the tests degrade to self-consistency checks —
// still meaningful for HashMany-vs-HashOne and CRT-vs-direct parity.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/backend.h"
#include "crypto/bigint.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "sigchain/sig_chain.h"
#include "util/hex.h"
#include "util/random.h"

namespace sae::crypto {
namespace {

// Restores accelerated dispatch when a test exits, even on failure.
class ScopedDispatch {
 public:
  ScopedDispatch() : saved_(Backend::Instance().force_scalar()) {}
  ~ScopedDispatch() { Backend::Instance().set_force_scalar(saved_); }

 private:
  bool saved_;
};

std::vector<uint8_t> RandomBytes(Rng* rng, size_t len) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; ++i) out[i] = uint8_t(rng->Next());
  return out;
}

std::string Hex(const Digest& d) {
  return HexEncode(d.bytes.data(), d.bytes.size());
}

// The dispatch-sensitive lengths: empty, 1 byte, around the 55/56 padding
// split, the 64-byte block boundary, two blocks, and past the 64 KiB mark.
const size_t kEdgeLens[] = {0,  1,   2,   54,  55,  56,  57,
                            63, 64,  65,  118, 119, 120, 127,
                            128, 129, 443, 500, 4096, 65536, 65537,
                            3 * 65536 + 11};

TEST(HashParityTest, EdgeLengthsMatchScalar) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  Rng rng(0x5EED'0001);
  for (HashScheme scheme : {HashScheme::kSha1, HashScheme::kSha256Trunc}) {
    for (size_t len : kEdgeLens) {
      std::vector<uint8_t> msg = RandomBytes(&rng, len);
      backend.set_force_scalar(false);
      Digest accel = ComputeDigest(msg.data(), msg.size(), scheme);
      backend.set_force_scalar(true);
      Digest scalar = ComputeDigest(msg.data(), msg.size(), scheme);
      EXPECT_EQ(Hex(accel), Hex(scalar))
          << "scheme=" << int(scheme) << " len=" << len;
    }
  }
}

TEST(HashParityTest, RandomLengthsAndAlignments) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  Rng rng(0x5EED'0002);
  // A shared arena so messages start at randomized (often odd) offsets:
  // the kernels must not assume 4/16-byte alignment.
  std::vector<uint8_t> arena = RandomBytes(&rng, 1 << 18);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.NextBounded(4096);
    if (trial % 17 == 0) len = 60'000 + rng.NextBounded(80'000);
    size_t offset = rng.NextBounded(64) | 1;  // odd start
    ASSERT_LE(offset + len, arena.size());
    HashScheme scheme =
        trial % 2 == 0 ? HashScheme::kSha1 : HashScheme::kSha256Trunc;
    backend.set_force_scalar(false);
    Digest accel = ComputeDigest(arena.data() + offset, len, scheme);
    backend.set_force_scalar(true);
    Digest scalar = ComputeDigest(arena.data() + offset, len, scheme);
    EXPECT_EQ(Hex(accel), Hex(scalar))
        << "trial=" << trial << " len=" << len << " offset=" << offset;
  }
}

TEST(HashParityTest, BatchedMatchesSingles) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  Rng rng(0x5EED'0003);
  for (int trial = 0; trial < 40; ++trial) {
    // Mixed-length batches exercise the equal-length-run grouping: runs of
    // a common length (multi-buffer lanes) interleaved with singletons,
    // empty messages, and the occasional >64 KiB stream.
    size_t count = 1 + rng.NextBounded(40);
    std::vector<std::vector<uint8_t>> messages;
    for (size_t i = 0; i < count; ++i) {
      size_t len;
      switch (rng.NextBounded(4)) {
        case 0: len = 500; break;                       // equal-length run
        case 1: len = rng.NextBounded(130); break;      // short tail cases
        case 2: len = 64 * rng.NextBounded(5); break;   // block multiples
        default: len = rng.NextBounded(70'000); break;  // long streams
      }
      messages.push_back(RandomBytes(&rng, len));
    }
    std::vector<ByteSpan> spans;
    for (const auto& m : messages) {
      spans.push_back(ByteSpan{m.data(), m.size()});
    }
    HashScheme scheme =
        trial % 2 == 0 ? HashScheme::kSha1 : HashScheme::kSha256Trunc;

    backend.set_force_scalar(false);
    std::vector<Digest> batched(count);
    ComputeDigests(spans.data(), count, batched.data(), scheme);

    backend.set_force_scalar(true);
    for (size_t i = 0; i < count; ++i) {
      Digest single =
          ComputeDigest(messages[i].data(), messages[i].size(), scheme);
      EXPECT_EQ(Hex(batched[i]), Hex(single))
          << "trial=" << trial << " i=" << i
          << " len=" << messages[i].size();
    }
  }
}

// Every batch kernel the CPU offers, pinned with HashManyWith, against the
// scalar reference: batch sizes 1-40 (partial, whole and whole-plus-
// leftover 8- and 16-lane passes) at every padding-boundary length, each
// message at its own odd offset, then mixed-length batches.
TEST(HashParityTest, EveryBatchKernelMatchesScalar) {
  Backend& backend = Backend::Instance();
  Rng rng(0x5EED'0008);
  std::vector<uint8_t> arena = RandomBytes(&rng, 40 * 520 + 64);
  const size_t kBoundaryLens[] = {55, 56, 63, 64, 119, 120, 500};
  for (auto kernel :
       {Backend::BatchKernel::kScalar, Backend::BatchKernel::kShaNi,
        Backend::BatchKernel::kAvx2X8, Backend::BatchKernel::kAvx512X16}) {
    if (!backend.has_batch_kernel(kernel)) continue;
    const char* name = Backend::BatchKernelName(kernel);
    for (HashScheme scheme : {HashScheme::kSha1, HashScheme::kSha256Trunc}) {
      auto check = [&](const std::vector<ByteSpan>& spans, const char* what) {
        std::vector<Digest> got(spans.size());
        std::vector<Digest> want(spans.size());
        backend.HashManyWith(kernel, scheme, spans.data(), spans.size(),
                             got.data());
        backend.HashManyWith(Backend::BatchKernel::kScalar, scheme,
                             spans.data(), spans.size(), want.data());
        for (size_t i = 0; i < spans.size(); ++i) {
          ASSERT_EQ(Hex(got[i]), Hex(want[i]))
              << name << " scheme=" << int(scheme) << " " << what
              << " batch=" << spans.size() << " i=" << i
              << " len=" << spans[i].len;
        }
      };
      for (size_t len : kBoundaryLens) {
        for (size_t count = 1; count <= 40; ++count) {
          std::vector<ByteSpan> spans;
          for (size_t i = 0; i < count; ++i) {
            spans.push_back(ByteSpan{arena.data() + i * 520 + 1 + i % 7, len});
          }
          check(spans, "equal-length");
        }
      }
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<ByteSpan> spans;
        size_t count = 1 + rng.NextBounded(40);
        for (size_t i = 0; i < count; ++i) {
          size_t len = rng.NextBounded(3) == 0
                           ? kBoundaryLens[rng.NextBounded(7)]
                           : rng.NextBounded(501);
          spans.push_back(ByteSpan{arena.data() + rng.NextBounded(20000), len});
        }
        check(spans, "mixed-length");
      }
    }
  }
}

// The 16-lane kernel itself: sixteen different messages of one length per
// pass, for every length up to five blocks, so a lane swap in the
// transpose or a wrong tail block shows up in a named lane.
TEST(HashParityTest, Avx512SixteenLanesMatchScalar) {
  Backend& backend = Backend::Instance();
  if (!backend.features().avx512) {
    GTEST_SKIP() << "no AVX-512 (avx512f + avx512bw) on this CPU";
  }
  // A kernel that failed the start-up self-check is disabled, not skipped.
  ASSERT_TRUE(backend.has_batch_kernel(Backend::BatchKernel::kAvx512X16));
  Rng rng(0x5EED'0009);
  std::vector<uint8_t> arena = RandomBytes(&rng, 16 * 331 + 16);
  for (size_t len = 0; len <= 320; ++len) {
    std::vector<ByteSpan> spans;
    for (size_t lane = 0; lane < 16; ++lane) {
      spans.push_back(ByteSpan{arena.data() + lane * 331 + lane % 3, len});
    }
    Digest got[16];
    Digest want[16];
    backend.HashManyWith(Backend::BatchKernel::kAvx512X16,
                         HashScheme::kSha1, spans.data(), 16, got);
    backend.HashManyWith(Backend::BatchKernel::kScalar, HashScheme::kSha1,
                         spans.data(), 16, want);
    for (size_t lane = 0; lane < 16; ++lane) {
      ASSERT_EQ(Hex(got[lane]), Hex(want[lane]))
          << "len=" << len << " lane=" << lane;
    }
  }
}

TEST(HashParityTest, CombineDigestsMatchesScalar) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  Rng rng(0x5EED'0004);
  for (size_t count : {size_t(0), size_t(1), size_t(2), size_t(127),
                       size_t(128), size_t(1000)}) {
    std::vector<Digest> children(count);
    for (size_t i = 0; i < count; ++i) {
      uint64_t x = rng.Next();
      children[i] = ComputeDigest(&x, sizeof(x));
    }
    for (HashScheme scheme :
         {HashScheme::kSha1, HashScheme::kSha256Trunc}) {
      backend.set_force_scalar(false);
      Digest accel = CombineDigests(children.data(), count, scheme);
      backend.set_force_scalar(true);
      Digest scalar = CombineDigests(children.data(), count, scheme);
      EXPECT_EQ(Hex(accel), Hex(scalar)) << "count=" << count;
    }
  }
}

// --- BigInt / modexp -----------------------------------------------------------

BigInt RandomBigInt(Rng* rng, size_t bits) {
  size_t bytes = (bits + 7) / 8;
  std::vector<uint8_t> raw = RandomBytes(rng, bytes);
  if (bits % 8 != 0) raw[0] &= uint8_t((1u << (bits % 8)) - 1);
  return BigInt::FromBytes(raw.data(), raw.size());
}

TEST(ModExpParityTest, RandomWidthsMatchScalarReference) {
  ScopedDispatch guard;
  Backend::Instance().set_force_scalar(false);
  Rng rng(0x5EED'0005);
  for (int trial = 0; trial < 120; ++trial) {
    // Widths sweep the Montgomery gate: <64-bit moduli stay scalar, wider
    // odd moduli take the CIOS ladder at 1..33 limbs.
    size_t mod_bits = 33 + rng.NextBounded(1100);
    BigInt m = RandomBigInt(&rng, mod_bits);
    if (m.IsZero()) continue;
    if (!m.IsOdd()) m = BigInt::Add(m, BigInt(1));
    BigInt base = RandomBigInt(&rng, 8 + rng.NextBounded(mod_bits + 64));
    BigInt exp = RandomBigInt(&rng, rng.NextBounded(mod_bits + 32));
    BigInt fast = BigInt::ModPow(base, exp, m);
    BigInt reference = BigInt::ModPowScalar(base, exp, m);
    EXPECT_TRUE(fast == reference)
        << "trial=" << trial << " mod_bits=" << mod_bits;
  }
}

TEST(ModExpParityTest, EvenModulusAndEdgeOperands) {
  ScopedDispatch guard;
  Backend::Instance().set_force_scalar(false);
  // Even moduli must route around Montgomery; zero/one operands hit the
  // window-ladder base cases.
  BigInt m_even(1 << 20);
  BigInt m_odd = BigInt::Add(m_even, BigInt(1));
  for (const BigInt& m : {m_even, m_odd}) {
    for (uint64_t b : {uint64_t(0), uint64_t(1), uint64_t(2), ~uint64_t(0)}) {
      for (uint64_t e : {uint64_t(0), uint64_t(1), uint64_t(2),
                         uint64_t(65537)}) {
        BigInt fast = BigInt::ModPow(BigInt(b), BigInt(e), m);
        BigInt reference =
            BigInt::ModPowScalar(BigInt(b), BigInt(e), m);
        EXPECT_TRUE(fast == reference) << "b=" << b << " e=" << e;
      }
    }
  }
}

// --- Montgomery context --------------------------------------------------------

TEST(MontgomeryParityTest, ProductChainsMatchDivisionFold) {
  ScopedDispatch guard;
  Backend::Instance().set_force_scalar(false);
  Rng rng(0x5EED'0008);
  int exercised = 0;
  for (int trial = 0; trial < 60; ++trial) {
    size_t mod_bits = 96 + rng.NextBounded(1000);
    BigInt m = RandomBigInt(&rng, mod_bits);
    if (m.BitLength() < 65) continue;
    if (!m.IsOdd()) m = BigInt::Add(m, BigInt(1));
    Montgomery mont(m);
    if (!mont.usable()) continue;  // platform without __int128
    ++exercised;
    size_t count = 1 + rng.NextBounded(20);
    Montgomery::Value acc = mont.One();
    BigInt reference(1);
    for (size_t i = 0; i < count; ++i) {
      BigInt x = RandomBigInt(&rng, 8 + rng.NextBounded(mod_bits + 64));
      Montgomery::Value xm = mont.ToMont(x);
      // To/from the domain must be the identity on reduced values.
      EXPECT_TRUE(mont.FromMont(xm) == BigInt::Mod(x, m))
          << "trial=" << trial << " i=" << i;
      mont.MulInPlace(&acc, xm);
      reference = BigInt::Mod(
          BigInt::Mul(reference, BigInt::Mod(x, m)), m);
    }
    EXPECT_TRUE(mont.FromMont(acc) == reference)
        << "trial=" << trial << " count=" << count;
    // Squaring through the aliased in-place form.
    mont.MulInPlace(&acc, acc);
    EXPECT_TRUE(mont.FromMont(acc) ==
                BigInt::Mod(BigInt::Mul(reference, reference), m))
        << "trial=" << trial;
  }
  if (exercised == 0) GTEST_SKIP() << "Montgomery context unusable here";
}

TEST(MontgomeryParityTest, UnusableGates) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  Rng rng(0x5EED'0009);
  BigInt odd_wide = RandomBigInt(&rng, 512);
  if (!odd_wide.IsOdd()) odd_wide = BigInt::Add(odd_wide, BigInt(1));
  // Forced-scalar processes must never take the Montgomery product path:
  // that is exactly what the differential parity runs pin against.
  backend.set_force_scalar(true);
  EXPECT_FALSE(Montgomery(odd_wide).usable());
  backend.set_force_scalar(false);
  // Even and single-limb moduli route around it too.
  EXPECT_FALSE(Montgomery(BigInt::Add(odd_wide, BigInt(1))).usable());
  EXPECT_FALSE(Montgomery(BigInt(12345)).usable());
}

// --- batched chain digests -----------------------------------------------------

TEST(ChainDigestParityTest, BatchedChainMatchesPerTriple) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  for (size_t count : {size_t(0), size_t(1), size_t(2), size_t(3), size_t(4),
                       size_t(257)}) {
    std::vector<Digest> ds(count);
    for (size_t i = 0; i < count; ++i) {
      ds[i] = ComputeDigest(&i, sizeof(i));
    }
    for (HashScheme scheme : {HashScheme::kSha1, HashScheme::kSha256Trunc}) {
      backend.set_force_scalar(false);
      std::vector<Digest> batched = sigchain::ChainDigests(ds, scheme);
      backend.set_force_scalar(true);
      if (count < 3) {
        EXPECT_TRUE(batched.empty()) << "count=" << count;
        continue;
      }
      ASSERT_EQ(batched.size(), count - 2);
      for (size_t k = 1; k + 1 < count; ++k) {
        EXPECT_EQ(Hex(batched[k - 1]),
                  Hex(sigchain::ChainDigest(ds[k - 1], ds[k], ds[k + 1],
                                            scheme)))
            << "count=" << count << " k=" << k;
      }
    }
  }
}

// --- RSA -----------------------------------------------------------------------

TEST(RsaParityTest, CrtSignaturesMatchScalarPath) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  Rng rng(0x5EED'0006);
  for (size_t modulus_bits : {size_t(512), size_t(768), size_t(1024)}) {
    RsaPrivateKey key = RsaGenerateKey(&rng, modulus_bits);
    ASSERT_TRUE(key.HasCrt());
    for (int trial = 0; trial < 6; ++trial) {
      uint64_t nonce = rng.Next();
      Digest digest = ComputeDigest(&nonce, sizeof(nonce));
      backend.set_force_scalar(false);
      RsaSignature fast = RsaSignDigest(key, digest);
      backend.set_force_scalar(true);
      RsaSignature reference = RsaSignDigest(key, digest);
      EXPECT_EQ(fast, reference)
          << "modulus_bits=" << modulus_bits << " trial=" << trial;
      // Cross-verify: each backend's signature must satisfy the other
      // backend's verifier.
      EXPECT_TRUE(RsaVerifyDigest(key.PublicKey(), digest, fast).ok());
      backend.set_force_scalar(false);
      EXPECT_TRUE(RsaVerifyDigest(key.PublicKey(), digest, reference).ok());
    }
  }
}

TEST(RsaParityTest, KeysWithoutCrtStillSign) {
  ScopedDispatch guard;
  Backend::Instance().set_force_scalar(false);
  Rng rng(0x5EED'0007);
  RsaPrivateKey key = RsaGenerateKey(&rng, 512);
  RsaPrivateKey bare{key.n, key.e, key.d, BigInt(), BigInt(),
                     BigInt(), BigInt(), BigInt()};
  ASSERT_FALSE(bare.HasCrt());
  Digest digest = ComputeDigest("no-crt", 6);
  EXPECT_EQ(RsaSignDigest(bare, digest), RsaSignDigest(key, digest));
}

// --- dispatch plumbing ---------------------------------------------------------

TEST(BackendTest, ForceScalarFlipsKernelNames) {
  ScopedDispatch guard;
  Backend& backend = Backend::Instance();
  backend.set_force_scalar(true);
  EXPECT_STREQ(backend.hash_kernel(), "scalar");
  EXPECT_STREQ(backend.modexp_kernel(), "scalar");
  EXPECT_FALSE(backend.accelerated_hash());
  backend.set_force_scalar(false);
  if (backend.accelerated_hash()) {
    const std::string kernel = backend.hash_kernel();
    EXPECT_TRUE(kernel == "sha-ni" || kernel == "avx2-x8" ||
                kernel == "sha-ni+avx512-x16" ||
                kernel == "avx2-x8+avx512-x16" || kernel == "avx512-x16")
        << kernel;
    // The name shows the batch kernel whenever HashMany can take it.
    EXPECT_EQ(kernel.find("avx512-x16") != std::string::npos,
              backend.has_batch_kernel(Backend::BatchKernel::kAvx512X16))
        << kernel;
  } else {
    EXPECT_STREQ(backend.hash_kernel(), "scalar");
  }
}

}  // namespace
}  // namespace sae::crypto
