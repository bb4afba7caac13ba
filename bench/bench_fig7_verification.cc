// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Figure 7: client-side verification time (ms, wall clock) vs dataset
// cardinality n, for UNF and SKW. In SAE the client hashes every result
// record and XORs; in TOM it also replays the VO to rebuild the signed root
// digest and checks the RSA signature. Both are linear in the result size;
// SKW is cheaper because the average result is smaller.

#include "fig_common.h"

using namespace sae;
using namespace sae::bench;

int main() {
  PrintHeader("Figure 7: verification time (ms) vs n",
              "# dist        n  Client(SAE)  Client(TOM)  avg|RS|");

  BenchJson json("fig7_verification");
  storage::RecordCodec codec(kRecordSize);
  auto queries = MakeQueries();
  for (auto dist :
       {workload::Distribution::kUniform, workload::Distribution::kSkewed}) {
    for (size_t n : Cardinalities()) {
      auto dataset = MakeDataset(dist, n);
      double nq = double(queries.size());
      size_t total_results = 0;

      double sae_ms = 0;
      {
        auto sp = BuildSaeSp(dataset);
        auto te = BuildTe(dataset);
        for (const auto& q : queries) {
          auto results = sp->ExecuteRange(q.lo, q.hi);
          SAE_CHECK(results.ok());
          auto vt = te->GenerateVt(q.lo, q.hi);
          SAE_CHECK(vt.ok());
          total_results += results.value().size();

          sim::Stopwatch watch;
          Status st = core::Client::CompareXor(
              core::Client::ResultXor(results.value(), codec),
              vt.value().digest);
          sae_ms += watch.ElapsedMs();
          SAE_CHECK(st.ok());
        }
      }

      double tom_ms = 0;
      {
        TomSpBundle tom = BuildTomSp(dataset);
        for (const auto& q : queries) {
          auto response = tom.sp->ExecuteRange(q.lo, q.hi);
          SAE_CHECK(response.ok());

          sim::Stopwatch watch;
          Status st = core::TomClient::Verify(
              q.lo, q.hi, response.value().results, response.value().vo,
              tom.public_key, codec);
          tom_ms += watch.ElapsedMs();
          SAE_CHECK(st.ok());
        }
      }

      std::printf("%6s %10zu %12.3f %12.3f %8.0f\n", DistName(dist), n,
                  sae_ms / nq, tom_ms / nq, double(total_results) / nq);
      std::fflush(stdout);
      json.Row({{"dist", DistName(dist)}, {"n", std::to_string(n)}},
               {{"sae_verify_ms", sae_ms / nq},
                {"tom_verify_ms", tom_ms / nq}});
    }
  }
  return json.Write();
}
