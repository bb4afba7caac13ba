// Copyright (c) saedb authors. Licensed under the MIT license.
//
// sae-durable-mixed and tom-durable-mixed: an in-process SaeSystem or
// TomSystem with durability on an in-memory storage::FaultFs whose every
// barrier costs a simulated 200 us. All DurabilityOptions stay at their
// defaults (group commit, a checkpoint every 64 updates with every 8th
// one full, background checkpointing). Three client threads mix cold
// verified queries with updates (two thirds inserts of fresh ids, one
// third deletes of live ids). The run ends with WaitForCheckpoints, a
// crash (DropVolatile), Recover and the first verified query; every
// acknowledged insert must then be present and every acknowledged delete
// absent, checked with verified point queries. A failed recovery counts
// as one failed operation.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/client_memo.h"
#include "core/durability.h"
#include "core/messages.h"
#include "core/system.h"
#include "storage/fault_fs.h"
#include "workloads.h"

namespace perfbench {

using sae::core::SaeSystem;
using sae::core::TomSystem;
using sae::dbms::QueryRequest;
using sae::storage::FaultFs;
using sae::storage::Key;
using sae::storage::RecordId;

namespace {

constexpr uint32_t kSyncLatencyUs = 200;
constexpr size_t kReplayQueries = 1000;
constexpr int kBlocks = 15;  // the window's time blocks (see SummarizeBlocks)

/// Live ids a delete may pick; each id is handed out at most once.
class LivePool {
 public:
  explicit LivePool(const std::vector<Record>& data) {
    for (const Record& r : data) items_.push_back({r.id, r.key});
  }
  void Add(RecordId id, Key key) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back({id, key});
  }
  bool Take(sae::Rng* rng, std::pair<RecordId, Key>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    size_t i = size_t(rng->NextBounded(items_.size()));
    *out = items_[i];
    items_[i] = items_.back();
    items_.pop_back();
    return true;
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<RecordId, Key>> items_;
};

struct Ack {
  RecordId id;
  Key key;
  bool present;  ///< true: acknowledged insert; false: acknowledged delete
};

struct ThreadStats {
  std::vector<Sample> query_ms;
  std::vector<double> commit_ms;
  OpTally ops;
  double auth_bytes = 0, hashed_bytes = 0, verify_ms = 0;
  uint64_t index_accesses = 0, heap_accesses = 0, te_accesses = 0;
  std::vector<Ack> acks;
  std::vector<QueryRequest> queries;  ///< issued, for the quiescent replay
  std::vector<std::string> refusals;  ///< the first few refused queries
  SpanLog log;
  // Durability counters sampled after each acknowledged update (traced).
  uint64_t pending_max = 0;
  double checkpoint_busy_ms = 0;
};

template <typename System>
typename System::Options DurableOptions(FaultFs* fs) {
  typename System::Options o;
  o.durability.enabled = true;
  o.durability.vfs = fs;
  o.durability.dir = "/db";
  return o;
}

bool Verified(const sae::Result<SaeSystem::QueryOutcome>& r) {
  return r.ok() && r.value().verification.ok();
}
bool Verified(const sae::Result<TomSystem::QueryOutcome>& r) {
  return r.ok() && r.value().verification.ok();
}

// The quiescent replay of one request against the live objects: the
// public calls ExecuteQuery makes, one span per layer call, counting the
// SP buffer-pool accesses and misses the plan caused.
void Replay(SaeSystem* sys, const SaeSystem::Options& options,
            const QueryRequest& req, uint64_t rid, SpanLog* log,
            QueryCounters* c) {
  sae::core::SaeClientMemo memo{sae::core::AnswerCacheOptions::Disabled()};
  sae::dbms::QueryAnswer answer;
  std::vector<Record> witness;
  (void)TracedSaeQuery(sys->sp(), sys->te(), &memo, req, sys->epoch(),
                       sys->codec(), options.scheme, rid, log, c, &answer,
                       &witness);
}

void Replay(TomSystem* sys, const TomSystem::Options& options,
            const QueryRequest& req, uint64_t rid, SpanLog* log,
            QueryCounters* c) {
  const auto& codec = sys->codec();
  ScopedSpan root(log, "query", rid);
  auto i0 = sys->sp().index_pool_thread_stats();
  auto h0 = sys->sp().heap_pool_thread_stats();
  sae::core::TomServiceProvider::PlanResponse plan;
  {
    ScopedSpan s(log, "mbtree.plan", rid);
    auto r = sys->sp().ExecutePlan(req);
    if (!r.ok()) return;
    plan = std::move(r).value();
  }
  auto di = sys->sp().index_pool_thread_stats() - i0;
  auto dh = sys->sp().heap_pool_thread_stats() - h0;
  c->pool_accesses += di.accesses + dh.accesses;
  c->pool_misses += di.misses + dh.misses;
  std::vector<uint8_t> msg, vo_msg;
  {
    ScopedSpan s(log, "core.encode_answer", rid);
    msg = sae::core::SerializeQueryAnswer(plan.answer, plan.witness,
                                          plan.vo.epoch, codec);
  }
  {
    ScopedSpan s(log, "core.encode_vo", rid);
    vo_msg = plan.vo.Serialize();
  }
  sae::core::QueryAnswerMessage m;
  sae::mbtree::VerificationObject vo;
  {
    ScopedSpan s(log, "core.decode", rid);
    auto a = sae::core::DeserializeQueryAnswer(msg, codec);
    auto b = sae::mbtree::VerificationObject::Deserialize(vo_msg);
    if (!a.ok() || !b.ok()) return;
    m = std::move(a).value();
    vo = std::move(b).value();
  }
  ScopedSpan s(log, "core.verify", rid);
  (void)sae::core::TomClient::VerifyAnswer(
      req, m.answer, m.witness, vo, sys->owner().public_key(), codec,
      options.scheme, sys->epoch());
}

/// Why a query was not accepted: its error status or its verdict.
template <typename Outcome>
std::string Refusal(const sae::Result<Outcome>& r) {
  return (r.ok() ? r.value().verification : r.status()).ToString();
}

template <typename System>
Report RunDurable(const Args& args, const std::vector<Record>& data,
                  double query_share) {
  constexpr bool kTom = std::is_same_v<System, TomSystem>;
  Report rep;
  sae::storage::RecordCodec codec(kRecordSize);
  RequestGen gen(args.seed * 104729 + 3);
  std::atomic<RecordId> next_id{RecordId(kRecords) + 1};
  std::mutex gen_mu;
  auto next_request = [&] {
    std::lock_guard<std::mutex> lock(gen_mu);
    return gen.Next();
  };

  // Setup: Load (+ the baseline snapshot), a few warm-up queries, and the
  // first update, which also takes the lazy O(n) adversary snapshot.
  std::unique_ptr<FaultFs> fs;
  std::unique_ptr<System> sys;
  std::vector<double> setups;
  std::vector<Ack> setup_acks;
  for (int k = 0; k < kSetupRepeats; ++k) {
    sys.reset();
    fs.reset();
    setup_acks.clear();
    next_id = RecordId(kRecords) + 1;
    Clock::time_point t0 = Clock::now();
    fs = std::make_unique<FaultFs>();
    fs->SetSyncLatency(kSyncLatencyUs);
    sys = std::make_unique<System>(DurableOptions<System>(fs.get()));
    if (!sys->Load(data).ok()) {
      rep.fatal = "Load failed";
      return rep;
    }
    for (int i = 0; i < 32; ++i) {
      if (!Verified(sys->ExecuteQuery(next_request()))) {
        rep.notes.push_back("warm-up query refused");
      }
    }
    RecordId id = next_id++;
    Key key = Key(sae::Rng(args.seed + 17).NextBounded(kDomainMax));
    if (!sys->InsertVersioned(codec.MakeRecord(id, key)).ok()) {
      rep.fatal = "first update failed";
      return rep;
    }
    setup_acks.push_back({id, key, true});
    setups.push_back(MsSince(t0) / 1000.0);
  }
  LivePool live(data);
  for (const Ack& a : setup_acks) live.Add(a.id, a.key);

  // Checkpoints completed as of the last sample, shared so each one's busy
  // time is added by exactly one thread.
  std::atomic<uint64_t> checkpoints_seen{0};
  auto window = [&](double seconds, bool traced,
                    std::vector<ThreadStats>* out) {
    out->assign(kClientThreads, ThreadStats{});
    sae::core::DurabilityStats d0 = sys->durability_stats();
    checkpoints_seen = d0.checkpoints_full + d0.checkpoints_delta;
    Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    RunClients([&](int t) {
      ThreadStats& st = (*out)[size_t(t)];
      SpanLog* log = traced ? &st.log : nullptr;
      sae::Rng rng(args.seed * 2000003 + uint64_t(t) * 31 + (traced ? 7 : 0));
      uint64_t n = 0;
      while (Clock::now() < end) {
        uint64_t rid = (uint64_t(t) << 40) | n++;
        if (rng.NextDouble() < query_share) {
          QueryRequest req = next_request();
          if (st.queries.size() < kReplayQueries) st.queries.push_back(req);
          double t0 = NowUs();
          bool ok;
          {
            ScopedSpan s(log, "query", rid);
            auto r = sys->ExecuteQuery(req);
            ok = Verified(r);
            if (!ok && st.refusals.size() < 4) {
              st.refusals.push_back(Describe(req) + " refused: " + Refusal(r));
            }
            if (ok) {
              const auto& c = r.value().costs;
              st.auth_bytes += double(c.auth_bytes);
              st.hashed_bytes += double(c.result_bytes);
              st.verify_ms += c.client_verify_ms;
              st.index_accesses += c.sp_index_accesses;
              st.heap_accesses += c.sp_heap_accesses;
              st.te_accesses += c.te_accesses;
            }
          }
          double ms = (NowUs() - t0) / 1000.0;
          if (!ok) {
            st.ops.Fail();
            continue;
          }
          st.ops.Ok();
          st.query_ms.push_back({t0, ms});
          continue;
        }
        bool insert = rng.NextBounded(3) < 2;
        std::pair<RecordId, Key> victim;
        if (!insert && !live.Take(&rng, &victim)) insert = true;
        Record record;
        if (insert) {
          record = codec.MakeRecord(next_id++, Key(rng.NextBounded(kDomainMax)));
        }
        Clock::time_point t0 = Clock::now();
        bool ok;
        {
          ScopedSpan s(log, "core.update", rid);
          ok = insert ? sys->InsertVersioned(record).ok()
                      : sys->DeleteVersioned(victim.first).ok();
        }
        double ms = MsSince(t0);
        if (!ok) {
          st.ops.Fail();
          continue;
        }
        st.ops.Ok();
        st.commit_ms.push_back(ms);
        if (insert) {
          st.acks.push_back({record.id, record.key, true});
          live.Add(record.id, record.key);
        } else {
          st.acks.push_back({victim.first, victim.second, false});
        }
        if (traced) {
          sae::core::DurabilityStats d = sys->durability_stats();
          st.pending_max = std::max(st.pending_max, d.pending_checkpoints);
          // Checkpoints that finished between two samples are charged the
          // duration of the latest one.
          uint64_t done = d.checkpoints_full + d.checkpoints_delta;
          uint64_t seen = checkpoints_seen.load();
          if (done > seen && checkpoints_seen.compare_exchange_strong(seen, done)) {
            st.checkpoint_busy_ms += d.last_checkpoint_ms * double(done - seen);
          }
        }
      }
    });
  };

  struct Totals {
    std::vector<Sample> query_ms;
    std::vector<double> commit_ms;
    double auth = 0, hashed = 0, verify = 0;
    uint64_t index = 0, heap = 0, te = 0, pending_max = 0;
    double busy_ms = 0;
  };
  std::vector<Ack> acks = setup_acks;
  auto collect = [&](std::vector<ThreadStats>& stats) {
    Totals t;
    for (ThreadStats& st : stats) {
      t.query_ms.insert(t.query_ms.end(), st.query_ms.begin(),
                        st.query_ms.end());
      t.commit_ms.insert(t.commit_ms.end(), st.commit_ms.begin(),
                         st.commit_ms.end());
      t.auth += st.auth_bytes;
      t.hashed += st.hashed_bytes;
      t.verify += st.verify_ms;
      t.index += st.index_accesses;
      t.heap += st.heap_accesses;
      t.te += st.te_accesses;
      t.pending_max = std::max(t.pending_max, st.pending_max);
      t.busy_ms += st.checkpoint_busy_ms;
      rep.ops += st.ops;
      for (std::string& n : st.refusals) rep.notes.push_back(std::move(n));
      acks.insert(acks.end(), st.acks.begin(), st.acks.end());
    }
    return t;
  };

  double window_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<ThreadStats> stats;
  double w0 = NowUs();
  window(window_s, false, &stats);
  double wall_s = (NowUs() - w0) / 1e6;
  Totals u = collect(stats);
  BlockSummary q = SummarizeBlocks(u.query_ms, w0, w0 + window_s * 1e6, kBlocks);
  Latency c = Summarize(u.commit_ms);
  double nq = double(u.query_ms.size());
  rep.E2e("query_qps", q.qps, "1/s");
  rep.E2e("query_p50_ms", q.p50, "ms");
  rep.E2e("query_p99_ms", q.p99, "ms");
  rep.E2e("auth_bytes_per_query", Ratio(u.auth, nq), "bytes");
  rep.E2e("update_ups", double(u.commit_ms.size()) / wall_s, "1/s");
  rep.E2e("commit_p50_ms", c.p50, "ms");
  rep.E2e("commit_p99_ms", c.p99, "ms");
  rep.E2e("setup_s", QuantileOf(setups, 0.5), "s");
  rep.Info("query_samples", nq, "count");
  rep.Info("commit_samples", double(c.n), "count");

  // Traced window, then the quiescent replay of its first requests. The
  // window is twice the seconds so TOM's ~10% updates give core.update's
  // p99 its 1,000 samples.
  std::vector<ThreadStats> traced;
  if (args.trace) {
    double traced_s = 2 * args.seconds;
    sae::core::DurabilityStats d0 = sys->durability_stats();
    uint64_t sync0 = fs->sync_points();
    auto c0 = sys->cache_stats();
    double tw0 = NowUs();
    window(traced_s, true, &traced);
    auto c1 = sys->cache_stats();
    sae::core::DurabilityStats d1 = sys->durability_stats();
    uint64_t sync1 = fs->sync_points();
    Totals t = collect(traced);
    double tq = double(t.query_ms.size());
    double ups = double(t.commit_ms.size());
    for (ThreadStats& st : traced) {
      MergeSpans(&rep.spans, std::move(st.log.spans()));
    }
    Latency um = Summarize(t.commit_ms);  // the core.update spans
    rep.Layer("btree.index_accesses_per_query", Ratio(t.index, tq), "count");
    rep.Layer("storage.heap_accesses_per_query", Ratio(t.heap, tq), "count");
    rep.Layer("xbtree.accesses_per_query", Ratio(t.te, tq), "count");
    rep.Layer("crypto.hashed_bytes_per_query", Ratio(t.hashed, tq), "bytes");
    rep.Info("client_verify_ms_in_query", Ratio(t.verify, tq), "ms");
    rep.Layer("core.update_p50_ms", um.p50, "ms");
    rep.Layer("core.update_p99_ms", um.p99, "ms");
    auto hit = [](const auto& a, const auto& b) {
      return Ratio(double(b.hits - a.hits),
                   double(b.hits - a.hits + b.misses - a.misses));
    };
    rep.Layer("core.sp_answer_hit_ratio", hit(c0.sp_answer, c1.sp_answer),
              "ratio");
    rep.Layer("core.client_memo_hit_ratio",
              hit(c0.client_memo, c1.client_memo), "ratio");
    if constexpr (kTom) {
      rep.Layer("mbtree.digest_cache_hit_ratio",
                hit(c0.sp_digest, c1.sp_digest), "ratio");
    } else {
      rep.Layer("core.te_vt_hit_ratio", hit(c0.te_vt, c1.te_vt), "ratio");
      rep.Layer("xbtree.digest_cache_hit_ratio",
                hit(c0.te_digest, c1.te_digest), "ratio");
    }
    rep.Layer("storage.wal_records_per_sync",
              Ratio(double(d1.wal_records - d0.wal_records),
                    double(d1.wal_syncs - d0.wal_syncs)),
              "count");
    rep.Layer("storage.barriers_per_update",
              Ratio(double(sync1 - sync0), ups), "count");
    rep.Layer("storage.checkpoint_bytes_per_update",
              Ratio(double(d1.checkpoint_bytes_total - d0.checkpoint_bytes_total),
                    ups),
              "bytes");
    rep.Layer("storage.checkpoints_full",
              double(d1.checkpoints_full - d0.checkpoints_full), "count");
    rep.Layer("storage.checkpoints_delta",
              double(d1.checkpoints_delta - d0.checkpoints_delta), "count");
    rep.Layer("storage.checkpoint_busy_ms", t.busy_ms, "ms");
    rep.Layer("storage.pending_checkpoints_max", double(t.pending_max),
              "count");
    BlockSummary traced_q =
        SummarizeBlocks(t.query_ms, tw0, tw0 + traced_s * 1e6, kBlocks);

    if (!sys->WaitForCheckpoints().ok()) {
      rep.ops.Fail();
      rep.notes.push_back("WaitForCheckpoints failed before the replay");
    }
    std::vector<Span> replay_spans;
    QueryCounters rc;
    SpanLog log;
    size_t replayed = 0;
    const auto options = DurableOptions<System>(fs.get());
    for (ThreadStats& st : traced) {
      for (const QueryRequest& req : st.queries) {
        if (replayed >= kReplayQueries) break;
        Replay(sys.get(), options, req, (uint64_t(9) << 40) | replayed, &log,
               &rc);
        ++replayed;
      }
    }
    double rq = double(replayed);
    replay_spans = std::move(log.spans());
    std::vector<double> self = SelfTimesUs(replay_spans);
    double plan = SelfMsPerRequest(replay_spans, self,
                                   kTom ? "mbtree.plan" : "dbms.plan", rq);
    double token = SelfMsPerRequest(replay_spans, self, "xbtree.token", rq);
    double encode =
        SelfMsPerRequest(replay_spans, self, "core.encode_answer", rq) +
        SelfMsPerRequest(replay_spans, self,
                         kTom ? "core.encode_vo" : "core.encode_vt", rq);
    double decode = SelfMsPerRequest(replay_spans, self, "core.decode", rq);
    double verify = SelfMsPerRequest(replay_spans, self, "core.verify", rq);
    rep.Layer(kTom ? "mbtree.plan_ms" : "dbms.plan_ms", plan, "ms");
    rep.Layer("xbtree.token_ms", token, "ms");
    rep.Layer("core.encode_ms", encode, "ms");
    rep.Layer("core.decode_ms", decode, "ms");
    rep.Layer("core.verify_ms", verify, "ms");
    rep.Layer("storage.sp_pool_miss_ratio",
              Ratio(double(rc.pool_misses), double(rc.pool_accesses)),
              "ratio");
    rep.Info("replayed_queries", rq, "count");
    MergeSpans(&rep.spans, std::move(replay_spans));
    ReportAttribution(&rep, plan + token + encode + decode + verify, q.p50,
                      traced_q.p50);
  }

  // The ending: drain checkpoints, crash, recover, first verified query.
  if (!sys->WaitForCheckpoints().ok()) {
    rep.ops.Fail();
    rep.notes.push_back("WaitForCheckpoints failed");
  }
  // Final state per id. Threads' acks merge out of time order, but a
  // delete is only issued for an id whose insert was acknowledged, so an
  // acknowledged delete always wins.
  std::map<RecordId, Ack> last;
  for (const Ack& a : acks) {
    auto [it, fresh] = last.emplace(a.id, a);
    if (!fresh && !a.present) it->second = a;
  }
  int64_t live_records = int64_t(kRecords);
  for (const auto& [id, a] : last) {
    bool loaded = id <= RecordId(kRecords);
    if (!loaded && a.present) ++live_records;
    if (loaded && !a.present) --live_records;
  }
  rep.E2e("stored_bytes_per_user_byte",
          Ratio(double(fs->durable_bytes()),
                double(live_records) * double(kRecordSize)),
          "ratio");
  sys.reset();  // the process dies; only the durable image survives
  fs->DropVolatile();
  auto options = DurableOptions<System>(fs.get());
  double open_ms = 0;
  if (args.trace) {
    // The storage half of recovery, timed alone on a copy of the image.
    std::unique_ptr<FaultFs> image = fs->Clone();
    sae::core::DurabilityOptions o = options.durability;
    o.vfs = image.get();
    Clock::time_point t0 = Clock::now();
    auto mgr = sae::core::DurabilityManager::Open(o);
    open_ms = MsSince(t0);
    rep.Layer("storage.recovery_open_ms", open_ms, "ms");
    rep.Layer("storage.wal_tail_records",
              mgr.ok() ? double(mgr.value()->recovered().wal_tail.size()) : 0.0,
              "count");
  }
  Clock::time_point crash = Clock::now();
  auto recovered = System::Recover(options);
  double recover_ms = MsSince(crash);
  if (args.trace) {
    rep.Layer("core.recovery_rebuild_ms", recover_ms - open_ms, "ms");
  }
  if (!recovered.ok()) {
    rep.ops.Fail();
    rep.notes.push_back(std::string(kTom ? "TomSystem" : "SaeSystem") +
                        "::Recover failed: " +
                        recovered.status().ToString());
    rep.Info("recovery_failed", 1, "count");
  } else {
    System& rs = *recovered.value();
    bool first_ok = Verified(rs.ExecuteQuery(next_request()));
    if (first_ok) {
      rep.ops.Ok();
      rep.E2e("recovery_ms", MsSince(crash), "ms");
      rep.Info("recover_call_ms", recover_ms, "ms");
    } else {
      rep.ops.Fail();
      rep.notes.push_back("first query after recovery refused");
    }
    // Every acknowledged update must have survived the crash.
    for (const auto& [id, a] : last) {
      auto r = rs.ExecuteQuery(QueryRequest::Point(a.key));
      if (!Verified(r)) {
        rep.ops.Fail();
        rep.notes.push_back("point query for the acknowledged " +
                            std::string(a.present ? "insert" : "delete") +
                            " of id " + std::to_string(id) + " (key " +
                            std::to_string(a.key) + ") refused: " +
                            Refusal(r));
        continue;
      }
      rep.ops.Ok();
      bool present = false;
      for (const Record& rec : r.value().results) present |= rec.id == id;
      if (present != a.present) {
        rep.Wrong(std::string(a.present ? "acknowledged insert" :
                                          "acknowledged delete") +
                  " of id " + std::to_string(id) + " lost by recovery");
      }
    }
    rep.Info("acknowledged_updates_checked", double(last.size()), "count");
  }
  rep.E2e("peak_rss_mb", PeakRssMb(), "MB");
  rep.Info("failed_share", rep.ops.FailedShare(), "ratio");
  return rep;
}

}  // namespace

Report RunSaeDurableMixed(const Args& args, const std::vector<Record>& data) {
  return RunDurable<SaeSystem>(args, data, 0.5);
}

Report RunTomDurableMixed(const Args& args, const std::vector<Record>& data) {
  return RunDurable<TomSystem>(args, data, 0.9);
}

}  // namespace perfbench
