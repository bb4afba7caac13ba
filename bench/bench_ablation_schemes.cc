// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Three-way scheme comparison: SAE (this paper) vs TOM (MB-tree VOs) vs the
// signature-chaining / Condensed-RSA baseline from the paper's related work
// ([8] Pang & Tan; Mykletun et al.). One table, one workload, four metrics:
// authentication bytes per query, SP index cost, extra SP storage, and
// client verification time.

#include "fig_common.h"
#include "sigchain/sig_chain.h"

using namespace sae;
using namespace sae::bench;

int main() {
  // 20K keeps the signature-chaining DO's n RSA signings (~3.8 ms each)
  // within a minute; the scheme trade-offs are scale-independent.
  size_t n = size_t(20'000 * BenchScale());
  if (n < 1000) n = 1000;
  std::printf("# Scheme comparison at n=%zu (UNF), %zu queries, extent "
              "0.5%%\n",
              n, kQueriesPerPoint);
  std::printf("# %-22s %14s %14s %14s %14s\n", "scheme", "auth B/query",
              "SPidx ms", "extra SP MB", "verify ms");

  auto dataset = MakeDataset(workload::Distribution::kUniform, n);
  auto queries = MakeQueries();
  storage::RecordCodec codec(kRecordSize);
  sim::CostModel cost;
  double nq = double(queries.size());

  // --- SAE ---
  {
    auto sp = BuildSaeSp(dataset);
    auto te = BuildTe(dataset);
    uint64_t auth = 0;
    double verify_ms = 0;
    auto idx0 = sp->index_pool_stats();
    for (const auto& q : queries) {
      auto results = sp->ExecuteRange(q.lo, q.hi).ValueOrDie();
      auto vt = te->GenerateVt(q.lo, q.hi).ValueOrDie();
      auth += core::SerializeVt(vt).size();
      sim::Stopwatch watch;
      SAE_CHECK(core::Client::CompareXor(core::Client::ResultXor(results, codec),
                                         vt.digest)
                    .ok());
      verify_ms += watch.ElapsedMs();
    }
    uint64_t idx = (sp->index_pool_stats() - idx0).accesses;
    std::printf("  %-22s %14.0f %14.1f %14.2f %14.2f\n", "SAE (this paper)",
                double(auth) / nq, cost.AccessCostMs(idx) / nq,
                (sp->IndexStorageBytes() + te->StorageBytes()) / 1048576.0,
                verify_ms / nq);
    std::fflush(stdout);
  }

  // --- TOM ---
  {
    TomSpBundle tom = BuildTomSp(dataset);
    uint64_t auth = 0;
    double verify_ms = 0;
    auto idx0 = tom.sp->index_pool_stats();
    for (const auto& q : queries) {
      auto response = tom.sp->ExecuteRange(q.lo, q.hi).ValueOrDie();
      auth += response.vo.Serialize().size();
      sim::Stopwatch watch;
      SAE_CHECK(core::TomClient::Verify(q.lo, q.hi, response.results,
                                        response.vo, tom.public_key, codec)
                    .ok());
      verify_ms += watch.ElapsedMs();
    }
    uint64_t idx = (tom.sp->index_pool_stats() - idx0).accesses;
    std::printf("  %-22s %14.0f %14.1f %14.2f %14.2f\n", "TOM (MB-tree VO)",
                double(auth) / nq, cost.AccessCostMs(idx) / nq,
                tom.sp->IndexStorageBytes() / 1048576.0, verify_ms / nq);
    std::fflush(stdout);
  }

  // --- signature chaining / Condensed-RSA ---
  {
    sigchain::SigChainOwner::Options owner_options;
    owner_options.record_size = kRecordSize;
    sigchain::SigChainOwner owner(owner_options);
    auto sigs = owner.SignDataset(dataset).ValueOrDie();

    sigchain::SigChainSp::Options sp_options;
    sp_options.record_size = kRecordSize;
    sigchain::SigChainSp sp(sp_options);
    SAE_CHECK_OK(sp.LoadDataset(dataset, sigs, owner.public_key()));

    uint64_t auth = 0;
    double verify_ms = 0;
    auto idx0 = sp.index_pool_stats();
    for (const auto& q : queries) {
      auto response = sp.ExecuteRange(q.lo, q.hi).ValueOrDie();
      auth += response.vo.Serialize().size();
      sim::Stopwatch watch;
      SAE_CHECK(sigchain::SigChainClient::Verify(q.lo, q.hi,
                                                 response.results,
                                                 response.vo,
                                                 owner.public_key(), codec)
                    .ok());
      verify_ms += watch.ElapsedMs();
    }
    uint64_t idx = (sp.index_pool_stats() - idx0).accesses;
    std::printf("  %-22s %14.0f %14.1f %14.2f %14.2f\n",
                "SigChain (Condensed)", double(auth) / nq,
                cost.AccessCostMs(idx) / nq,
                sp.SignatureStorageBytes() / 1048576.0, verify_ms / nq);
  }

  std::printf("#\n# SAE: constant 29-byte token, no SP-side auth storage "
              "beyond a plain index.\n");
  std::printf("# SigChain: small VO but 128 B/record signatures and "
              "3 RSA signings per update.\n");
  std::printf("# TOM: mid-size VO, digest-bloated index, DO mirrors the "
              "whole ADS.\n");
  return 0;
}
