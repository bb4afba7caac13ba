// Copyright (c) saedb authors. Licensed under the MIT license.
//
// sae-hot-read: an in-process SaeSystem with default caches. Three client
// threads call ExecuteQuery on requests drawn Zipf(0.99) from a fixed pool
// of 512 distinct requests, so the working set fits the SP answer cache,
// the TE token memo and the client memo. The traced window replays each
// request through the public calls ExecuteQuery makes, one span each.

#include <atomic>
#include <memory>

#include "core/client_memo.h"
#include "core/system.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench {

using sae::core::SaeSystem;
using sae::dbms::QueryRequest;

namespace {

constexpr size_t kPoolSize = 512;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kOracleEvery = 128;  // oracle-check ~1/128 of answers

constexpr int kBlocks = 15;  // the window's time blocks (see SummarizeBlocks)

struct ThreadStats {
  std::vector<Sample> samples;
  OpTally ops;
  double auth_bytes = 0;
  std::vector<std::string> wrong;
  QueryCounters counters;  // traced window only
  SpanLog log;
};

}  // namespace

Report RunHotRead(const Args& args, const std::vector<Record>& data) {
  Report rep;
  Oracle oracle(&data);
  RequestGen gen(args.seed * 7919 + 1);
  // Pool slot i holds operator i % 7, so every seed's hot set has the same
  // operator mix by popularity rank; only the ranges differ.
  std::vector<QueryRequest> pool;
  while (pool.size() < kPoolSize) {
    QueryRequest r = gen.Next();
    if (int(r.op) == int(pool.size() % 7)) pool.push_back(r);
  }

  // Setup: Load + one warm pass over the pool (fills every cache).
  const sae::core::SaeSystemOptions options;
  std::unique_ptr<SaeSystem> sys;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    sys.reset();
    Clock::time_point t0 = Clock::now();
    sys = std::make_unique<SaeSystem>(options);
    if (!sys->Load(data).ok()) {
      rep.fatal = "Load failed";
      return rep;
    }
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> refused{0};
    RunClients([&](int) {
      for (size_t i; (i = next.fetch_add(1)) < pool.size();) {
        auto out = sys->ExecuteQuery(pool[i]);
        if (!out.ok() || !out.value().verification.ok()) refused++;
      }
    });
    if (refused > 0) rep.notes.push_back("warm-up queries refused");
    setups.push_back(MsSince(t0) / 1000.0);
  }

  // The traced path: ExecuteQuery's public calls, verified through the
  // benchmark's own client memo.
  sae::core::SaeClientMemo memo{sae::core::AnswerCacheOptions{}};
  auto traced_query = [&](const QueryRequest& req, uint64_t rid,
                          ThreadStats* st, sae::dbms::QueryAnswer* answer,
                          std::vector<Record>* witness) {
    return TracedSaeQuery(sys->sp(), sys->te(), &memo, req, sys->epoch(),
                          sys->codec(), options.scheme, rid, &st->log,
                          &st->counters, answer, witness);
  };
  // One measured window: `traced` selects the decomposed path.
  auto window = [&](double seconds, bool traced, std::vector<ThreadStats>* out) {
    out->assign(kClientThreads, ThreadStats{});
    Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    RunClients([&](int t) {
      ThreadStats& st = (*out)[size_t(t)];
      sae::Rng rng(args.seed * 1000003 + uint64_t(t) * 7 + (traced ? 99 : 0));
      sae::ZipfGenerator zipf(kPoolSize, kZipfTheta);
      uint64_t n = 0;
      while (Clock::now() < end) {
        size_t i = size_t(zipf.Next(&rng));
        const QueryRequest& req = pool[i];
        bool check = rng.NextBounded(kOracleEvery) == 0;
        double t0 = NowUs();
        sae::Status verdict;
        sae::dbms::QueryAnswer answer;
        std::vector<Record> witness;
        if (traced) {
          uint64_t rid = (uint64_t(t) << 40) | n;
          verdict = traced_query(req, rid, &st, &answer, &witness);
        } else {
          auto r = sys->ExecuteQuery(req);
          verdict = r.ok() ? r.value().verification : r.status();
          if (r.ok()) {
            st.auth_bytes += double(r.value().costs.auth_bytes);
            answer = std::move(r.value().answer);
            witness = std::move(r.value().results);
          }
        }
        double ms = (NowUs() - t0) / 1000.0;
        ++n;
        if (!verdict.ok()) {
          st.ops.Fail();
          continue;
        }
        st.ops.Ok();
        st.samples.push_back({t0, ms});
        if (check) {
          std::string bad = oracle.Check(req, answer, witness);
          if (!bad.empty()) st.wrong.push_back(bad);
        }
      }
    });
  };
  auto collect = [&](std::vector<ThreadStats>& stats, std::vector<Sample>* lat,
                     double* auth) {
    double auth_sum = 0;
    for (ThreadStats& st : stats) {
      lat->insert(lat->end(), st.samples.begin(), st.samples.end());
      rep.ops += st.ops;
      for (const std::string& w : st.wrong) rep.Wrong(w);
      auth_sum += st.auth_bytes;
    }
    *auth = Ratio(auth_sum, double(lat->size()));
  };

  double window_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<ThreadStats> stats;
  double w0 = NowUs();
  window(window_s, false, &stats);
  std::vector<Sample> lat;
  double auth = 0;
  collect(stats, &lat, &auth);
  BlockSummary untraced = SummarizeBlocks(lat, w0, w0 + window_s * 1e6, kBlocks);

  rep.E2e("query_qps", untraced.qps, "1/s");
  rep.E2e("query_p50_ms", untraced.p50, "ms");
  rep.E2e("query_p99_ms", untraced.p99, "ms");
  rep.E2e("auth_bytes_per_query", auth, "bytes");
  rep.E2e("setup_s", QuantileOf(setups, 0.5), "s");
  rep.Info("query_samples", double(untraced.samples), "count");

  if (args.trace) {
    // Warm the benchmark's own client memo, then the traced window.
    std::vector<ThreadStats> warm(1);
    for (size_t i = 0; i < pool.size(); ++i) {
      sae::dbms::QueryAnswer a;
      std::vector<Record> w;
      traced_query(pool[i], 0, &warm[0], &a, &w);
    }
    sae::core::SaeCacheStats c0 = sys->cache_stats();
    sae::core::AnswerCacheStats m0 = memo.stats();
    std::vector<ThreadStats> traced;
    double tw0 = NowUs();
    window(args.seconds, true, &traced);
    sae::core::SaeCacheStats c1 = sys->cache_stats();
    sae::core::AnswerCacheStats m1 = memo.stats();
    std::vector<Sample> tlat;
    double tauth = 0;
    collect(traced, &tlat, &tauth);
    double q = double(tlat.size());
    uint64_t idx = 0, heap = 0, pa = 0, pm = 0, te = 0;
    double hashed = 0;
    for (ThreadStats& st : traced) {
      idx += st.counters.index_accesses;
      heap += st.counters.heap_accesses;
      pa += st.counters.pool_accesses;
      pm += st.counters.pool_misses;
      te += st.counters.te_accesses;
      hashed += st.counters.hashed_bytes;
      MergeSpans(&rep.spans, std::move(st.log.spans()));
    }
    std::vector<double> self = SelfTimesUs(rep.spans);
    double plan = SelfMsPerRequest(rep.spans, self, "dbms.plan", q);
    double token = SelfMsPerRequest(rep.spans, self, "xbtree.token", q);
    double encode =
        SelfMsPerRequest(rep.spans, self, "core.encode_answer", q) +
        SelfMsPerRequest(rep.spans, self, "core.encode_vt", q);
    double decode = SelfMsPerRequest(rep.spans, self, "core.decode", q);
    double verify = SelfMsPerRequest(rep.spans, self, "core.verify", q);
    auto hit = [](uint64_t h, uint64_t m) { return Ratio(double(h), double(h + m)); };
    rep.Layer("dbms.plan_ms", plan, "ms");
    rep.Layer("btree.index_accesses_per_query", Ratio(idx, q), "count");
    rep.Layer("storage.heap_accesses_per_query", Ratio(heap, q), "count");
    rep.Layer("storage.sp_pool_miss_ratio", Ratio(pm, pa), "ratio");
    rep.Layer("xbtree.token_ms", token, "ms");
    rep.Layer("xbtree.accesses_per_query", Ratio(te, q), "count");
    rep.Layer("xbtree.digest_cache_hit_ratio",
              hit(c1.te_digest.hits - c0.te_digest.hits,
                  c1.te_digest.misses - c0.te_digest.misses),
              "ratio");
    rep.Layer("core.verify_ms", verify, "ms");
    rep.Layer("crypto.hashed_bytes_per_query", Ratio(hashed, q), "bytes");
    rep.Layer("core.encode_ms", encode, "ms");
    rep.Layer("core.decode_ms", decode, "ms");
    rep.Layer("core.sp_answer_hit_ratio",
              hit(c1.sp_answer.hits - c0.sp_answer.hits,
                  c1.sp_answer.misses - c0.sp_answer.misses),
              "ratio");
    rep.Layer("core.te_vt_hit_ratio",
              hit(c1.te_vt.hits - c0.te_vt.hits,
                  c1.te_vt.misses - c0.te_vt.misses),
              "ratio");
    rep.Layer("core.client_memo_hit_ratio",
              hit(m1.hits - m0.hits, m1.misses - m0.misses), "ratio");
    ReportAttribution(&rep, plan + token + encode + decode + verify,
                      untraced.p50,
                      SummarizeBlocks(tlat, tw0, tw0 + args.seconds * 1e6,
                                      kBlocks).p50);
  }
  rep.E2e("peak_rss_mb", PeakRssMb(), "MB");
  rep.Info("failed_share", rep.ops.FailedShare(), "ratio");
  return rep;
}

}  // namespace perfbench
