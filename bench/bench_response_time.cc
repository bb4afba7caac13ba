// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Response time (paper §IV conclusion): "the above enable the client to
// experience a lower response time (i.e., interval between query
// transmission and result verification)". Models one-way latency + finite
// bandwidth; SAE's SP and TE paths run in parallel (paper footnote 1),
// while TOM ships the VO on the single SP path.

#include "fig_common.h"
#include "sim/network.h"

using namespace sae;
using namespace sae::bench;

int main() {
  PrintHeader(
      "Response time (ms) vs n — 20ms one-way latency, 8 Mbit/s link",
      "# dist        n    SAE(resp)    TOM(resp)   saving%");

  sim::CostModel cost;
  sim::NetworkModel net;
  auto queries = MakeQueries();
  storage::RecordCodec codec(kRecordSize);

  for (auto dist :
       {workload::Distribution::kUniform, workload::Distribution::kSkewed}) {
    for (size_t n : Cardinalities()) {
      auto dataset = MakeDataset(dist, n);
      double nq = double(queries.size());
      double sae_total = 0, tom_total = 0;

      {
        auto sp = BuildSaeSp(dataset);
        auto te = BuildTe(dataset);
        for (const auto& q : queries) {
          auto idx0 = sp->index_pool_stats();
          auto heap0 = sp->heap_pool_stats();
          auto te0 = te->pool_stats();
          auto results = sp->ExecuteRange(q.lo, q.hi);
          SAE_CHECK(results.ok());
          auto vt = te->GenerateVt(q.lo, q.hi);
          SAE_CHECK(vt.ok());

          double sp_ms =
              cost.AccessCostMs((sp->index_pool_stats() - idx0).accesses +
                                (sp->heap_pool_stats() - heap0).accesses);
          double te_ms = cost.AccessCostMs((te->pool_stats() - te0).accesses);
          size_t result_bytes =
              core::SerializeRecords(results.value(), codec).size();

          sim::Stopwatch watch;
          SAE_CHECK(core::Client::CompareXor(
                        core::Client::ResultXor(results.value(), codec),
                        vt.value().digest)
                        .ok());
          double verify_ms = watch.ElapsedMs();
          sae_total += sim::SaeResponseMs(net, sp_ms, te_ms, result_bytes,
                                          21, 9, verify_ms);
        }
      }

      {
        TomSpBundle tom = BuildTomSp(dataset);
        for (const auto& q : queries) {
          auto idx0 = tom.sp->index_pool_stats();
          auto heap0 = tom.sp->heap_pool_stats();
          auto response = tom.sp->ExecuteRange(q.lo, q.hi);
          SAE_CHECK(response.ok());
          double sp_ms =
              cost.AccessCostMs((tom.sp->index_pool_stats() - idx0).accesses +
                                (tom.sp->heap_pool_stats() - heap0).accesses);
          size_t result_bytes =
              core::SerializeRecords(response.value().results, codec).size();
          size_t vo_bytes = response.value().vo.Serialize().size();

          sim::Stopwatch watch;
          SAE_CHECK(core::TomClient::Verify(q.lo, q.hi,
                                            response.value().results,
                                            response.value().vo,
                                            tom.public_key, codec)
                        .ok());
          double verify_ms = watch.ElapsedMs();
          tom_total += sim::TomResponseMs(net, sp_ms, result_bytes, vo_bytes,
                                          9, verify_ms);
        }
      }

      double sae_ms = sae_total / nq;
      double tom_ms = tom_total / nq;
      std::printf("%6s %10zu %12.1f %12.1f %9.1f\n", DistName(dist), n,
                  sae_ms, tom_ms, 100.0 * (tom_ms - sae_ms) / tom_ms);
      std::fflush(stdout);
    }
  }
  return 0;
}
