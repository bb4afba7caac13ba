// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Micro benchmarks for the three index structures (google-benchmark):
// range search, VT generation, VO construction and point updates, with
// node-access counters reported alongside wall time. Two read-path benches
// follow, single-threaded over a loaded SAE system: the SP's uncached
// answer build (index descent, heap fetch, answer encode) and the client's
// check of a served buffer (SaeClientMemo::VerifyAnswer: decode, then a
// memo hit or a witness re-hash). One more times the buffer pool's own
// per-access cost, alone and with three threads contending.

#include <benchmark/benchmark.h>

#include <memory>

#include "btree/bplus_tree.h"
#include "core/client_memo.h"
#include "core/system.h"
#include "mbtree/mb_tree.h"
#include "storage/page_store.h"
#include "util/random.h"
#include "workload/dataset.h"
#include "xbtree/xb_tree.h"

namespace {

using namespace sae;
using storage::BufferPool;
using storage::InMemoryPageStore;

constexpr size_t kTreeSize = 100'000;
constexpr uint32_t kDomain = 10'000'000;
constexpr uint32_t kExtent = kDomain / 200;  // 0.5%

crypto::Digest DigestFor(uint64_t id) {
  return crypto::ComputeDigest(&id, sizeof(id));
}

// --- B+-tree -------------------------------------------------------------------

struct BTreeBundle {
  InMemoryPageStore store;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<btree::BPlusTree> tree;
};

BTreeBundle* SharedBTree() {
  static BTreeBundle* bundle = [] {
    auto* b = new BTreeBundle;
    b->pool = std::make_unique<BufferPool>(&b->store, 4096);
    b->tree = btree::BPlusTree::Create(b->pool.get()).ValueOrDie();
    std::vector<btree::BTreeEntry> entries;
    Rng rng(1);
    entries.reserve(kTreeSize);
    for (uint64_t id = 1; id <= kTreeSize; ++id) {
      entries.push_back(
          btree::BTreeEntry{uint32_t(rng.NextBounded(kDomain)), id});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    SAE_CHECK_OK(b->tree->BulkLoad(entries));
    return b;
  }();
  return bundle;
}

void BM_BPlusTree_RangeSearch(benchmark::State& state) {
  auto* b = SharedBTree();
  Rng rng(2);
  uint64_t accesses = 0, queries = 0;
  for (auto _ : state) {
    uint32_t lo = uint32_t(rng.NextBounded(kDomain - kExtent));
    std::vector<btree::BTreeEntry> out;
    b->pool->ResetStats();
    SAE_CHECK_OK(b->tree->RangeSearch(lo, lo + kExtent, &out));
    accesses += b->pool->stats().accesses;
    ++queries;
    benchmark::DoNotOptimize(out);
  }
  state.counters["node_accesses"] =
      benchmark::Counter(double(accesses) / double(queries));
}
BENCHMARK(BM_BPlusTree_RangeSearch);

// --- MB-tree -------------------------------------------------------------------

struct MbBundle {
  InMemoryPageStore store;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<mbtree::MbTree> tree;
};

MbBundle* SharedMbTree() {
  static MbBundle* bundle = [] {
    auto* b = new MbBundle;
    b->pool = std::make_unique<BufferPool>(&b->store, 4096);
    b->tree = mbtree::MbTree::Create(b->pool.get()).ValueOrDie();
    std::vector<mbtree::MbEntry> entries;
    Rng rng(1);
    entries.reserve(kTreeSize);
    for (uint64_t id = 1; id <= kTreeSize; ++id) {
      entries.push_back(mbtree::MbEntry{uint32_t(rng.NextBounded(kDomain)),
                                        id, DigestFor(id)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    SAE_CHECK_OK(b->tree->BulkLoad(entries));
    return b;
  }();
  return bundle;
}

void BM_MbTree_BuildVo(benchmark::State& state) {
  auto* b = SharedMbTree();
  Rng rng(3);
  std::vector<uint8_t> fake_record(500, 0x11);
  auto fetch = [&](storage::Rid) -> Result<std::vector<uint8_t>> {
    return fake_record;
  };
  uint64_t accesses = 0, queries = 0, vo_bytes = 0;
  for (auto _ : state) {
    uint32_t lo = uint32_t(rng.NextBounded(kDomain - kExtent));
    b->pool->ResetStats();
    auto vo = b->tree->BuildVo(lo, lo + kExtent, fetch);
    SAE_CHECK(vo.ok());
    accesses += b->pool->stats().accesses;
    vo_bytes += vo.value().Serialize().size();
    ++queries;
  }
  state.counters["node_accesses"] =
      benchmark::Counter(double(accesses) / double(queries));
  state.counters["vo_bytes"] =
      benchmark::Counter(double(vo_bytes) / double(queries));
}
BENCHMARK(BM_MbTree_BuildVo);

void BM_MbTree_Insert(benchmark::State& state) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4096);
  auto tree = mbtree::MbTree::Create(&pool).ValueOrDie();
  Rng rng(4);
  uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    SAE_CHECK_OK(tree->Insert(mbtree::MbEntry{
        uint32_t(rng.NextBounded(kDomain)), id, DigestFor(id)}));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MbTree_Insert);

// --- XB-tree -------------------------------------------------------------------

struct XbBundle {
  InMemoryPageStore store;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<xbtree::XbTree> tree;
};

XbBundle* SharedXbTree() {
  static XbBundle* bundle = [] {
    auto* b = new XbBundle;
    b->pool = std::make_unique<BufferPool>(&b->store, 4096);
    b->tree = xbtree::XbTree::Create(b->pool.get()).ValueOrDie();
    std::vector<xbtree::XbTuple> tuples;
    Rng rng(1);
    tuples.reserve(kTreeSize);
    for (uint64_t id = 1; id <= kTreeSize; ++id) {
      tuples.push_back(xbtree::XbTuple{uint32_t(rng.NextBounded(kDomain)), id,
                                       DigestFor(id)});
    }
    std::sort(tuples.begin(), tuples.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    SAE_CHECK_OK(b->tree->BulkLoad(tuples));
    return b;
  }();
  return bundle;
}

void BM_XbTree_GenerateVT(benchmark::State& state) {
  auto* b = SharedXbTree();
  Rng rng(5);
  uint64_t accesses = 0, queries = 0;
  for (auto _ : state) {
    uint32_t lo = uint32_t(rng.NextBounded(kDomain - kExtent));
    b->pool->ResetStats();
    auto vt = b->tree->GenerateVT(lo, lo + kExtent);
    SAE_CHECK(vt.ok());
    accesses += b->pool->stats().accesses;
    ++queries;
    benchmark::DoNotOptimize(vt);
  }
  state.counters["node_accesses"] =
      benchmark::Counter(double(accesses) / double(queries));
}
BENCHMARK(BM_XbTree_GenerateVT);

void BM_XbTree_Insert(benchmark::State& state) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4096);
  auto tree = xbtree::XbTree::Create(&pool).ValueOrDie();
  Rng rng(6);
  uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    SAE_CHECK_OK(
        tree->Insert(uint32_t(rng.NextBounded(kDomain)), id, DigestFor(id)));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_XbTree_Insert);

// --- buffer pool -------------------------------------------------------------

// One Fetch + unpin of a page picked uniformly from 12.5K, through a pool of
// 1,024 frames (the SP heap pool at perfbench scale): about 92% of fetches
// miss and evict. With 3 threads the pool's one mutex is contended.
void BM_BufferPool_FetchUnpin(benchmark::State& state) {
  constexpr size_t kPages = 12'500;
  static InMemoryPageStore* store = new InMemoryPageStore;
  static BufferPool* pool = [] {
    auto* p = new BufferPool(store, 1024);
    for (size_t i = 0; i < kPages; ++i) SAE_CHECK(p->New().ok());
    return p;
  }();
  Rng rng(8 + uint64_t(state.thread_index()));
  for (auto _ : state) {
    auto ref = pool->Fetch(storage::PageId(rng.NextBounded(kPages)));
    SAE_CHECK(ref.ok());
    benchmark::DoNotOptimize(ref.value().Get().bytes()[0]);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BufferPool_FetchUnpin)->Threads(1)->Threads(3);

// --- SAE read path ---------------------------------------------------------------

// 100K records of 500 bytes, every verified-path cache off, so each
// ServeQuery is a miss that runs the plan.
core::SaeSystem* SharedSae() {
  static core::SaeSystem* system = [] {
    auto* s = new core::SaeSystem(core::SaeSystemOptions().DisableCaches());
    workload::DatasetSpec spec;
    spec.cardinality = kTreeSize;
    SAE_CHECK_OK(s->Load(workload::GenerateDataset(spec)));
    return s;
  }();
  return system;
}

std::vector<dbms::QueryRequest> RandomScans(size_t n) {
  Rng rng(7);
  std::vector<dbms::QueryRequest> requests;
  for (size_t i = 0; i < n; ++i) {
    uint32_t lo = uint32_t(rng.NextBounded(kDomain - kExtent));
    requests.push_back(dbms::QueryRequest::Scan(lo, lo + kExtent));
  }
  return requests;
}

// The SP miss path: descent, heap fetch and answer encode for a 0.5% scan.
void BM_SaeSp_ServeMiss(benchmark::State& state) {
  const core::ServiceProvider& sp = SharedSae()->sp();
  const std::vector<dbms::QueryRequest> requests = RandomScans(256);
  size_t i = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto served = sp.ServeQuery(requests[i++ % requests.size()]);
    SAE_CHECK(served.ok());
    bytes += served.value()->answer_msg.size();
  }
  state.SetBytesProcessed(int64_t(bytes));
}
BENCHMARK(BM_SaeSp_ServeMiss)->Unit(benchmark::kMicrosecond);

// The client's check of one served buffer, as SaeSystem::ExecuteQuery makes
// it: arg 1 replays the memo (decode + hit), arg 0 re-hashes the witness
// every time (decode + XOR + answer check).
void BM_SaeClient_VerifyServed(benchmark::State& state) {
  core::SaeSystem* system = SharedSae();
  const dbms::QueryRequest request = RandomScans(1)[0];
  auto served = system->sp().ServeQuery(request).ValueOrDie();
  core::VerificationToken vt = system->te().GenerateVt(request).ValueOrDie();
  core::SaeClientMemo memo(state.range(0) != 0
                               ? core::AnswerCacheOptions{}
                               : core::AnswerCacheOptions::Disabled());
  for (auto _ : state) {
    auto checked = memo.VerifyAnswer(request, served, vt, system->epoch(),
                                     system->codec(),
                                     system->options().scheme);
    SAE_CHECK(checked.ok() && checked.value().verification.ok());
    benchmark::DoNotOptimize(checked.value().received.witness.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(served->answer_msg.size()));
}
BENCHMARK(BM_SaeClient_VerifyServed)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
