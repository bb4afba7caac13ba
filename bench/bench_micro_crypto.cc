// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Micro benchmarks for the crypto substrate, self-contained (no external
// benchmark dependency): every primitive is timed twice, once pinned to the
// scalar reference path (Backend::set_force_scalar) and once under whatever
// accelerated kernel the CPU dispatched (SHA-NI / AVX2 or AVX-512
// multi-buffer / Montgomery-CRT RSA), and the per-primitive speedup is
// reported. The batched SHA-1 row is also timed once per available batch
// kernel, pinned through Backend::HashManyWith. These are
// the primitives behind Figs. 6 and 7: record digests at the paper's
// 500-byte record size, XOR folding, Merkle combination, modexp and RSA
// sign/verify.
//
// SAE_BENCH_JSON (env, default BENCH_crypto.json) names the output file.
// SAE_BENCH_SCALE scales the per-measurement time budget.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "crypto/backend.h"
#include "crypto/bigint.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "util/random.h"

using namespace sae;

namespace {

volatile uint8_t g_sink;  // defeats dead-code elimination across runs

void Consume(const crypto::Digest& d) { g_sink ^= d.bytes[0]; }
void Consume(const std::vector<uint8_t>& v) {
  g_sink ^= v.empty() ? 0 : v[0];
}
void Consume(const crypto::BigInt& b) { g_sink ^= uint8_t(b.BitLength()); }

double MsBudget() {
  const char* env = std::getenv("SAE_BENCH_SCALE");
  double scale = env != nullptr ? std::atof(env) : 1.0;
  if (scale <= 0.0) scale = 1.0;
  double ms = 200.0 * scale;
  return ms < 20.0 ? 20.0 : ms;
}

// Runs `fn` repeatedly for ~the time budget and returns ops/sec: a short
// calibration pass sizes the batch, then timed batches accumulate.
double MeasureOpsPerSec(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  auto ms = [](clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  // Calibrate: grow the batch until one batch costs >= 5 ms.
  size_t batch = 1;
  for (;;) {
    auto t0 = clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    double elapsed = ms(clock::now() - t0);
    if (elapsed >= 5.0 || batch >= (size_t(1) << 24)) break;
    batch *= 4;
  }
  const double budget = MsBudget();
  size_t ops = 0;
  double elapsed = 0.0;
  while (elapsed < budget) {
    auto t0 = clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    elapsed += ms(clock::now() - t0);
    ops += batch;
  }
  return ops / (elapsed / 1000.0);
}

struct Row {
  std::string name;
  size_t bytes_per_op = 0;  // 0 when bytes/sec is meaningless
  double scalar_ops = 0.0;
  double accel_ops = 0.0;
};

// Times `fn` under both dispatch modes. The scalar run truly exercises the
// reference path: force_scalar gates every kernel (hash, Montgomery, CRT).
Row Bench(const char* name, size_t bytes_per_op,
          const std::function<void()>& fn) {
  crypto::Backend& backend = crypto::Backend::Instance();
  Row row;
  row.name = name;
  row.bytes_per_op = bytes_per_op;
  backend.set_force_scalar(true);
  row.scalar_ops = MeasureOpsPerSec(fn);
  backend.set_force_scalar(false);
  row.accel_ops = MeasureOpsPerSec(fn);
  return row;
}

}  // namespace

int main() {
  crypto::Backend& backend = crypto::Backend::Instance();
  const bool env_forced = backend.force_scalar();
  std::printf("# Crypto micro benches: scalar vs accelerated dispatch\n");
  std::printf("# hash kernel: %s   modexp kernel: %s%s\n",
              backend.hash_kernel(), backend.modexp_kernel(),
              env_forced ? "   (SAE_FORCE_SCALAR set: both runs scalar)"
                         : "");
  std::printf("%-36s %14s %14s %9s %12s\n", "# primitive", "scalar-ops/s",
              "accel-ops/s", "speedup", "accel-MB/s");

  std::vector<Row> rows;

  std::vector<uint8_t> record(500, 0xAB);
  rows.push_back(Bench("sha1_500B", record.size(), [&] {
    Consume(crypto::ComputeDigest(record.data(), record.size(),
                                  crypto::HashScheme::kSha1));
  }));
  rows.push_back(Bench("sha256_500B", record.size(), [&] {
    Consume(crypto::ComputeDigest(record.data(), record.size(),
                                  crypto::HashScheme::kSha256Trunc));
  }));

  std::vector<uint8_t> big(64 * 1024, 0x5A);
  rows.push_back(Bench("sha1_64KiB", big.size(), [&] {
    Consume(crypto::ComputeDigest(big.data(), big.size(),
                                  crypto::HashScheme::kSha1));
  }));

  // Batched record digesting: the DigestRecords/HashMany shape — 1024
  // records of 500 bytes per call, where the multi-buffer kernels apply.
  constexpr size_t kBatch = 1024;
  std::vector<uint8_t> records(kBatch * 500);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i] = uint8_t(i * 131 + 7);
  }
  std::vector<crypto::ByteSpan> spans;
  for (size_t i = 0; i < kBatch; ++i) {
    spans.push_back(crypto::ByteSpan{records.data() + i * 500, 500});
  }
  std::vector<crypto::Digest> outs(kBatch);
  for (auto scheme :
       {crypto::HashScheme::kSha1, crypto::HashScheme::kSha256Trunc}) {
    const char* name = scheme == crypto::HashScheme::kSha1
                           ? "hash_many_sha1_1Kx500B"
                           : "hash_many_sha256t_1Kx500B";
    Row row = Bench(name, kBatch * 500, [&] {
      crypto::ComputeDigests(spans.data(), spans.size(), outs.data(), scheme);
      Consume(outs[0]);
    });
    rows.push_back(row);
  }

  // The same SHA-1 batch once per batch kernel this CPU offers, pinned
  // with HashManyWith; the scalar column is the scalar kernel each time.
  {
    using Kernel = crypto::Backend::BatchKernel;
    auto pinned = [&](Kernel kernel) {
      return [&, kernel] {
        backend.HashManyWith(kernel, crypto::HashScheme::kSha1, spans.data(),
                             spans.size(), outs.data());
        Consume(outs[0]);
      };
    };
    const double scalar_ops = MeasureOpsPerSec(pinned(Kernel::kScalar));
    for (Kernel kernel :
         {Kernel::kShaNi, Kernel::kAvx2X8, Kernel::kAvx512X16}) {
      if (!backend.has_batch_kernel(kernel)) continue;
      Row row;
      row.name = std::string("hash_many_sha1_1Kx500B[") +
                 crypto::Backend::BatchKernelName(kernel) + "]";
      row.bytes_per_op = kBatch * 500;
      row.scalar_ops = scalar_ops;
      row.accel_ops = MeasureOpsPerSec(pinned(kernel));
      rows.push_back(row);
    }
  }

  // One MB-tree node digest (127-entry fanout): a single contiguous hash
  // over the child-digest array, so it rides the single-stream kernel.
  std::vector<crypto::Digest> children(127);
  for (size_t i = 0; i < children.size(); ++i) {
    children[i] = crypto::ComputeDigest(&i, sizeof(i));
  }
  rows.push_back(Bench("combine_digests_127", 127 * crypto::Digest::kSize,
                       [&] {
                         Consume(crypto::CombineDigests(children.data(),
                                                        children.size()));
                       }));

  // XOR folding a 5000-record result: pure Digest algebra, no dispatch —
  // included so regressions in the fold itself stay visible.
  std::vector<crypto::Digest> digests(5000);
  for (size_t i = 0; i < digests.size(); ++i) {
    digests[i] = crypto::ComputeDigest(&i, sizeof(i));
  }
  rows.push_back(Bench("digest_xor_fold_5000", 0, [&] {
    crypto::Digest acc;
    for (const auto& d : digests) acc ^= d;
    Consume(acc);
  }));

  // RSA-1024: sign (CRT + Montgomery vs scalar square-and-multiply) and
  // verify (e = 65537, Montgomery vs scalar).
  Rng rng(0xBEEF);
  crypto::RsaPrivateKey key = crypto::RsaGenerateKey(&rng, 1024);
  crypto::Digest root = crypto::ComputeDigest("root", 4);
  crypto::RsaSignature sig = crypto::RsaSignDigest(key, root);
  rows.push_back(Bench("rsa1024_sign", 0,
                       [&] { Consume(crypto::RsaSignDigest(key, root)); }));
  rows.push_back(Bench("rsa1024_verify", 0, [&] {
    Status st = crypto::RsaVerifyDigest(key.PublicKey(), root, sig);
    g_sink ^= uint8_t(st.ok());
  }));

  // Bare 1024-bit modexp with a full-width exponent — the Montgomery
  // ladder itself, free of PKCS#1 framing and CRT splitting.
  crypto::BigInt base = crypto::BigInt::FromBytes(sig.data(), sig.size());
  rows.push_back(Bench("modexp_1024", 0, [&] {
    Consume(crypto::BigInt::ModPow(base, key.d, key.n));
  }));

  std::string json;
  char buf[256];
  for (const Row& row : rows) {
    double speedup = row.accel_ops / row.scalar_ops;
    double mbps = row.bytes_per_op != 0
                      ? row.accel_ops * double(row.bytes_per_op) / 1e6
                      : 0.0;
    std::printf("%-36s %14.0f %14.0f %8.2fx %12.1f\n", row.name.c_str(),
                row.scalar_ops, row.accel_ops, speedup, mbps);
    std::fflush(stdout);
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"scalar_ops_per_sec\": %.1f, "
                  "\"accel_ops_per_sec\": %.1f, \"speedup\": %.3f, "
                  "\"bytes_per_op\": %zu}",
                  row.name.c_str(), row.scalar_ops, row.accel_ops, speedup,
                  row.bytes_per_op);
    if (!json.empty()) json += ",\n";
    json += buf;
  }

  const char* json_path = std::getenv("SAE_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_crypto.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"micro_crypto\",\n"
                 "  \"hash_kernel\": \"%s\", \"modexp_kernel\": \"%s\",\n"
                 "  \"primitives\": [\n%s\n  ]\n}\n",
                 backend.hash_kernel(), backend.modexp_kernel(),
                 json.c_str());
    std::fclose(f);
    std::printf("# wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
    return 1;
  }
  return 0;
}
