// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Adversarial security tests beyond simple result tampering: hand-crafted
// malicious verification objects for TOM, forged tokens/signatures, the
// algebraic properties SAE's security argument rests on, and the SAE
// client's rejection of witnesses an SP padded with cancelling pairs.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "adversary/adversary.h"
#include "core/client.h"
#include "core/messages.h"
#include "core/system.h"
#include "crypto/rsa.h"
#include "mbtree/mb_tree.h"
#include "mbtree/vo.h"
#include "storage/page_store.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace sae {
namespace {

using adversary::AttackMode;
using core::Record;
using storage::BufferPool;
using storage::InMemoryPageStore;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;

crypto::RsaPrivateKey* SharedKey() {
  static crypto::RsaPrivateKey* key = [] {
    Rng rng(0x5EED1);
    return new crypto::RsaPrivateKey(crypto::RsaGenerateKey(&rng, 512));
  }();
  return key;
}

// A TOM stack small enough to craft VOs by hand.
class VoCraftTest : public ::testing::Test {
 protected:
  VoCraftTest() : pool_(&store_, 512), codec_(kRecSize) {
    mbtree::MbTreeOptions options;
    options.max_leaf_entries = 5;
    options.max_internal_keys = 4;
    tree_ = mbtree::MbTree::Create(&pool_, options).ValueOrDie();
    for (uint64_t id = 1; id <= 100; ++id) {
      Record r = codec_.MakeRecord(id, uint32_t(id * 10));
      records_[id] = r;
      auto bytes = codec_.Serialize(r);
      SAE_CHECK_OK(tree_->Insert(mbtree::MbEntry{
          r.key, storage::Rid(id),
          crypto::ComputeDigest(bytes.data(), bytes.size())}));
    }
  }

  mbtree::MbTree::RecordFetcher Fetcher() {
    return [this](storage::Rid rid) -> Result<std::vector<uint8_t>> {
      return codec_.Serialize(records_.at(rid));
    };
  }

  std::vector<Record> Results(uint32_t lo, uint32_t hi) {
    std::vector<Record> out;
    for (auto& [id, r] : records_) {
      if (r.key >= lo && r.key <= hi) out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    return out;
  }

  // Signs the current root for the given epoch — the stamped commitment,
  // exactly as TomDataOwner::Resign does.
  mbtree::VerificationObject SignedVo(uint32_t lo, uint32_t hi,
                                      uint64_t epoch = 0) {
    auto vo = tree_->BuildVo(lo, hi, Fetcher()).ValueOrDie();
    vo.epoch = epoch;
    vo.signature = crypto::RsaSignDigest(
        *SharedKey(),
        crypto::EpochStampedDigest(tree_->root_digest(), epoch));
    return vo;
  }

  // Walks the VO and applies `fn` to every item (depth first).
  static void ForEachItem(mbtree::VoNode* node,
                          const std::function<void(mbtree::VoNode*, size_t)>& fn) {
    for (size_t i = 0; i < node->items.size(); ++i) {
      fn(node, i);
      if (node->items[i].type == mbtree::VoItem::Type::kChild) {
        ForEachItem(node->items[i].child.get(), fn);
      }
    }
  }

  InMemoryPageStore store_;
  BufferPool pool_;
  RecordCodec codec_;
  std::unique_ptr<mbtree::MbTree> tree_;
  std::map<uint64_t, Record> records_;
};

TEST_F(VoCraftTest, HonestBaselineVerifies) {
  auto vo = SignedVo(200, 600);
  EXPECT_TRUE(mbtree::VerifyVO(vo, 200, 600, Results(200, 600),
                               SharedKey()->PublicKey(), codec_)
                  .ok());
}

// The classic hiding attack: replace a covered result slot with its bare
// digest, drop the record, and keep the root digest perfectly valid. Only
// the structural span check can catch this.
TEST_F(VoCraftTest, HidingResultBehindDigestIsDetected) {
  auto vo = SignedVo(200, 600);
  std::vector<Record> results = Results(200, 600);

  // Find the first result slot and replace it with the record's digest.
  bool replaced = false;
  ForEachItem(&vo.root, [&](mbtree::VoNode* node, size_t i) {
    if (replaced || node->items[i].type != mbtree::VoItem::Type::kResultEntry)
      return;
    auto bytes = codec_.Serialize(results.front());
    node->items[i].type = mbtree::VoItem::Type::kDigest;
    node->items[i].digest =
        crypto::ComputeDigest(bytes.data(), bytes.size());
    replaced = true;
  });
  ASSERT_TRUE(replaced);
  results.erase(results.begin());

  // Root digest still reconstructs, so only the span rule rejects it.
  Status st = mbtree::VerifyVO(vo, 200, 600, results,
                               SharedKey()->PublicKey(), codec_);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

// Hiding an entire subtree: replace a covered child with its digest.
TEST_F(VoCraftTest, HidingSubtreeBehindDigestIsDetected) {
  auto vo = SignedVo(0, 2000);  // wide range -> covered children exist
  std::vector<Record> results = Results(0, 2000);

  // Locate a child item whose subtree contains result slots, compute its
  // true digest by replaying it, then collapse it.
  std::function<size_t(const mbtree::VoNode&)> count_results =
      [&](const mbtree::VoNode& node) {
        size_t n = 0;
        for (const auto& item : node.items) {
          if (item.type == mbtree::VoItem::Type::kResultEntry) ++n;
          if (item.type == mbtree::VoItem::Type::kChild) {
            n += count_results(*item.child);
          }
        }
        return n;
      };

  bool collapsed = false;
  size_t skip = 0;
  ForEachItem(&vo.root, [&](mbtree::VoNode* node, size_t i) {
    auto& item = node->items[i];
    if (collapsed || item.type != mbtree::VoItem::Type::kChild) return;
    size_t in_subtree = count_results(*item.child);
    if (in_subtree == 0 || in_subtree == results.size()) return;

    // Count result slots before this subtree to know which records vanish.
    // (Cheap approach: collapse the first eligible subtree, which by
    // in-order layout covers the first `in_subtree` remaining results.)
    std::vector<crypto::Digest> digests;
    std::function<crypto::Digest(const mbtree::VoNode&)> replay =
        [&](const mbtree::VoNode& n) {
          std::vector<crypto::Digest> ds;
          for (const auto& it : n.items) {
            switch (it.type) {
              case mbtree::VoItem::Type::kDigest:
                ds.push_back(it.digest);
                break;
              case mbtree::VoItem::Type::kBoundaryRecord: {
                ds.push_back(crypto::ComputeDigest(it.record_bytes.data(),
                                                   it.record_bytes.size()));
                break;
              }
              case mbtree::VoItem::Type::kResultEntry: {
                auto bytes = codec_.Serialize(results[skip]);
                ds.push_back(
                    crypto::ComputeDigest(bytes.data(), bytes.size()));
                ++skip;
                break;
              }
              case mbtree::VoItem::Type::kChild:
                ds.push_back(replay(*it.child));
                break;
            }
          }
          return crypto::CombineDigests(ds.data(), ds.size());
        };
    // Records consumed before this item: replay preceding siblings only to
    // advance `skip` (simplification: assume this is the first child with
    // results, true for this dataset/query).
    crypto::Digest true_digest = replay(*item.child);
    item.type = mbtree::VoItem::Type::kDigest;
    item.digest = true_digest;
    item.child.reset();
    results.erase(results.begin() + long(0),
                  results.begin() + long(in_subtree));
    collapsed = true;
  });
  ASSERT_TRUE(collapsed);

  Status st = mbtree::VerifyVO(vo, 0, 2000, results,
                               SharedKey()->PublicKey(), codec_);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

TEST_F(VoCraftTest, BoundaryForgeryIsDetected) {
  // Claim a narrower completeness span by moving the left boundary: replace
  // the left boundary record with a record of higher key (a record between
  // the true boundary and the hidden result).
  auto vo = SignedVo(200, 600);
  std::vector<Record> results = Results(200, 600);
  ASSERT_GE(results.size(), 2u);

  bool forged = false;
  ForEachItem(&vo.root, [&](mbtree::VoNode* node, size_t i) {
    auto& item = node->items[i];
    if (forged || item.type != mbtree::VoItem::Type::kBoundaryRecord) return;
    // Overwrite the boundary bytes with the first result record; then drop
    // that record from the result list ("it was just the boundary").
    item.record_bytes = codec_.Serialize(results.front());
    forged = true;
  });
  ASSERT_TRUE(forged);
  results.erase(results.begin());

  Status st = mbtree::VerifyVO(vo, 200, 600, results,
                               SharedKey()->PublicKey(), codec_);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

TEST_F(VoCraftTest, SignatureFromForeignKeyIsRejected) {
  auto vo = tree_->BuildVo(200, 600, Fetcher()).ValueOrDie();
  Rng rng(777);
  crypto::RsaPrivateKey mallory = crypto::RsaGenerateKey(&rng, 512);
  vo.signature = crypto::RsaSignDigest(mallory, tree_->root_digest());
  Status st = mbtree::VerifyVO(vo, 200, 600, Results(200, 600),
                               SharedKey()->PublicKey(), codec_);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

TEST_F(VoCraftTest, ReplayedVoForOldStateIsRejected) {
  auto old_vo = SignedVo(200, 600, /*epoch=*/1);
  auto old_results = Results(200, 600);
  // The dataset changes (a record inside the range is deleted).
  Record victim = old_results[1];
  SAE_CHECK_OK(tree_->Delete(victim.key, storage::Rid(victim.id)));
  records_.erase(victim.id);

  // The SP replays the old VO + old results against the *new* signature.
  auto fresh_sig = crypto::RsaSignDigest(
      *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 2));
  old_vo.signature = fresh_sig;
  old_vo.epoch = 2;
  Status st = mbtree::VerifyVO(old_vo, 200, 600, old_results,
                               SharedKey()->PublicKey(), codec_,
                               crypto::HashScheme::kSha1, /*current=*/2);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

// The textbook replay: the WHOLE pre-update answer — old results, old VO,
// old epoch-stamped signature — is internally consistent and passes every
// cryptographic check for its own epoch. Only the freshness gate, with its
// distinct error code, can reject it.
TEST_F(VoCraftTest, FullReplayOfConsistentOldStateIsStaleNotCorrupt) {
  auto old_vo = SignedVo(200, 600, /*epoch=*/1);
  auto old_results = Results(200, 600);

  // Sanity: the replay verifies cleanly against its own epoch.
  EXPECT_TRUE(mbtree::VerifyVO(old_vo, 200, 600, old_results,
                               SharedKey()->PublicKey(), codec_,
                               crypto::HashScheme::kSha1, /*current=*/1)
                  .ok());

  // An update advances the published epoch to 2.
  Record victim = old_results[1];
  SAE_CHECK_OK(tree_->Delete(victim.key, storage::Rid(victim.id)));
  records_.erase(victim.id);

  Status st = mbtree::VerifyVO(old_vo, 200, 600, old_results,
                               SharedKey()->PublicKey(), codec_,
                               crypto::HashScheme::kSha1, /*current=*/2);
  EXPECT_EQ(st.code(), StatusCode::kStaleEpoch);
}

TEST_F(VoCraftTest, ForgedFresherEpochBreaksTheSignature) {
  // An adversary who rewrites the stale VO's epoch to the current one
  // converts staleness into a signature failure — never into acceptance.
  auto vo = SignedVo(200, 600, /*epoch=*/1);
  vo.epoch = 2;
  Status st = mbtree::VerifyVO(vo, 200, 600, Results(200, 600),
                               SharedKey()->PublicKey(), codec_,
                               crypto::HashScheme::kSha1, /*current=*/2);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

// --- hand-built malformed VOs ----------------------------------------------------

class MalformedVoTest : public ::testing::Test {
 protected:
  RecordCodec codec_{kRecSize};

  Status Verify(mbtree::VerificationObject vo,
                const std::vector<Record>& results) {
    // Content is structurally wrong before the signature matters; use any
    // key so signature checking is reached only on structurally valid VOs.
    vo.signature.assign(64, 0x11);
    return mbtree::VerifyVO(vo, 10, 20, results, SharedKey()->PublicKey(),
                            codec_);
  }
};

TEST_F(MalformedVoTest, EmptyRootRejected) {
  mbtree::VerificationObject vo;
  vo.root.is_leaf = true;
  EXPECT_FALSE(Verify(std::move(vo), {}).ok());
}

TEST_F(MalformedVoTest, ResultSlotAboveLeafLevelRejected) {
  mbtree::VerificationObject vo;
  vo.root.is_leaf = false;  // internal node claiming a result slot
  mbtree::VoItem item;
  item.type = mbtree::VoItem::Type::kResultEntry;
  vo.root.items.push_back(std::move(item));
  Record r = codec_.MakeRecord(1, 15);
  EXPECT_FALSE(Verify(std::move(vo), {r}).ok());
}

TEST_F(MalformedVoTest, ChildUnderLeafRejected) {
  mbtree::VerificationObject vo;
  vo.root.is_leaf = true;
  mbtree::VoItem item;
  item.type = mbtree::VoItem::Type::kChild;
  item.child = std::make_unique<mbtree::VoNode>();
  item.child->is_leaf = true;
  mbtree::VoItem inner;
  inner.type = mbtree::VoItem::Type::kResultEntry;
  item.child->items.push_back(std::move(inner));
  vo.root.items.push_back(std::move(item));
  Record r = codec_.MakeRecord(1, 15);
  EXPECT_FALSE(Verify(std::move(vo), {r}).ok());
}

TEST_F(MalformedVoTest, ThreeBoundariesRejected) {
  mbtree::VerificationObject vo;
  vo.root.is_leaf = true;
  for (uint32_t key : {5u, 25u, 30u}) {
    mbtree::VoItem item;
    item.type = mbtree::VoItem::Type::kBoundaryRecord;
    item.record_bytes = codec_.Serialize(codec_.MakeRecord(key, key));
    vo.root.items.push_back(std::move(item));
  }
  EXPECT_FALSE(Verify(std::move(vo), {}).ok());
}

TEST_F(MalformedVoTest, MoreResultSlotsThanRecordsRejected) {
  mbtree::VerificationObject vo;
  vo.root.is_leaf = true;
  for (int i = 0; i < 3; ++i) {
    mbtree::VoItem item;
    item.type = mbtree::VoItem::Type::kResultEntry;
    vo.root.items.push_back(std::move(item));
  }
  Record r = codec_.MakeRecord(1, 15);
  EXPECT_FALSE(Verify(std::move(vo), {r}).ok());
}

TEST_F(MalformedVoTest, FewerResultSlotsThanRecordsRejected) {
  mbtree::VerificationObject vo;
  vo.root.is_leaf = true;
  mbtree::VoItem item;
  item.type = mbtree::VoItem::Type::kResultEntry;
  vo.root.items.push_back(std::move(item));
  Record a = codec_.MakeRecord(1, 15);
  Record b = codec_.MakeRecord(2, 16);
  EXPECT_FALSE(Verify(std::move(vo), {a, b}).ok());
}

// --- freshness attack matrix ----------------------------------------------------
//
// Both freshness attacks, across both models (SAE over the XB-tree, TOM
// over the MB-tree) and both hash schemes, must be rejected with the
// *distinct* freshness code kStaleEpoch — never silently accepted, and
// never misreported as generic corruption.

std::vector<core::Record> MatrixDataset(size_t n) {
  storage::RecordCodec codec(kRecSize);
  std::vector<core::Record> out;
  for (uint64_t id = 1; id <= n; ++id) {
    out.push_back(codec.MakeRecord(id, uint32_t(id * 10)));
  }
  return out;
}

class FreshnessMatrixTest
    : public ::testing::TestWithParam<crypto::HashScheme> {};

TEST_P(FreshnessMatrixTest, SaeRejectsBothFreshnessAttacks) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::SaeAdversary attacker(&system);

  // Advance the epoch so the adversary's replica is genuinely stale.
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(9000, 1234)).ok());
  ASSERT_TRUE(system.Delete(5).ok());
  EXPECT_EQ(system.epoch(), 3u);

  for (AttackMode mode :
       {AttackMode::kReplayStaleRoot, AttackMode::kStaleVt}) {
    auto outcome = attacker.Query(100, 2500, mode);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().verification.code(), StatusCode::kStaleEpoch)
        << "mode " << int(mode) << ": " << outcome.value().verification.ToString();
  }
  // Honest queries still verify at the new epoch.
  auto honest = system.Query(100, 2500);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest.value().verification.ok());
  EXPECT_EQ(honest.value().vt.epoch, 3u);
}

TEST_P(FreshnessMatrixTest, TomRejectsBothFreshnessAttacks) {
  core::TomSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  options.rsa_modulus_bits = 512;  // fast for tests
  core::TomSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::TomAdversary attacker(&system);

  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(9000, 1234)).ok());
  ASSERT_TRUE(system.Delete(5).ok());
  EXPECT_EQ(system.epoch(), 3u);

  for (AttackMode mode :
       {AttackMode::kReplayStaleRoot, AttackMode::kStaleVt}) {
    auto outcome = attacker.Query(100, 2500, mode);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().verification.code(), StatusCode::kStaleEpoch)
        << "mode " << int(mode) << ": " << outcome.value().verification.ToString();
  }
  auto honest = system.Query(100, 2500);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest.value().verification.ok());
  EXPECT_EQ(honest.value().vo.epoch, 3u);
}

// A replay staged before ANY update exists must still be rejected (the
// adversary claims a rewound epoch — "malicious" never means "honest").
TEST_P(FreshnessMatrixTest, FreshnessAttacksRejectedEvenWithoutUpdates) {
  core::SaeSystem::Options sae_options;
  sae_options.record_size = kRecSize;
  sae_options.scheme = GetParam();
  core::SaeSystem sae(sae_options);
  SAE_CHECK_OK(sae.Load(MatrixDataset(100)));
  adversary::SaeAdversary sae_adversary(&sae);

  core::TomSystem::Options tom_options;
  tom_options.record_size = kRecSize;
  tom_options.scheme = GetParam();
  tom_options.rsa_modulus_bits = 512;
  core::TomSystem tom(tom_options);
  SAE_CHECK_OK(tom.Load(MatrixDataset(100)));
  adversary::TomAdversary tom_adversary(&tom);

  for (AttackMode mode :
       {AttackMode::kReplayStaleRoot, AttackMode::kStaleVt}) {
    auto sae_outcome = sae_adversary.Query(0, 500, mode);
    ASSERT_TRUE(sae_outcome.ok());
    EXPECT_EQ(sae_outcome.value().verification.code(),
              StatusCode::kStaleEpoch)
        << "SAE mode " << int(mode);
    auto tom_outcome = tom_adversary.Query(0, 500, mode);
    ASSERT_TRUE(tom_outcome.ok());
    EXPECT_EQ(tom_outcome.value().verification.code(),
              StatusCode::kStaleEpoch)
        << "TOM mode " << int(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(BothHashSchemes, FreshnessMatrixTest,
                         ::testing::Values(crypto::HashScheme::kSha1,
                                           crypto::HashScheme::kSha256Trunc));

// --- aggregate adversarial matrix -------------------------------------------------
//
// The answer-level attacks: the SP ships a perfectly genuine witness (the
// range proof verifies) but lies about the derived answer — wrong COUNT,
// wrong SUM, or a silently truncated top-k. Both models, both hash
// schemes: every lie must be a kVerificationFailure, record-level attacks
// must still be caught under aggregate operators, and the honest control
// row must verify.

struct AggregateCase {
  dbms::QueryRequest request;
  AttackMode attack;
};

std::vector<AggregateCase> AggregateCases() {
  return {
      {dbms::QueryRequest::Count(100, 2500), AttackMode::kWrongCount},
      {dbms::QueryRequest::Sum(100, 2500), AttackMode::kWrongSum},
      {dbms::QueryRequest::TopK(100, 2500, 5),
       AttackMode::kTruncatedTopK},
      // "Never silently honest": answer attacks against operators whose
      // primary dimension is elsewhere are still caught, because every
      // derived dimension is checked for every operator — and truncation
      // against a non-top-k operator (whose rows are the witness, not the
      // answer) degrades to a count lie rather than a no-op.
      {dbms::QueryRequest::Scan(100, 2500), AttackMode::kWrongCount},
      {dbms::QueryRequest::Min(100, 2500), AttackMode::kWrongSum},
      {dbms::QueryRequest::Scan(100, 2500), AttackMode::kTruncatedTopK},
      {dbms::QueryRequest::Point(110), AttackMode::kTruncatedTopK},
      // Record-level tampering under an aggregate operator: the witness
      // breaks the range proof even though the claimed answer is
      // self-consistent with the tampered witness.
      {dbms::QueryRequest::Count(100, 2500), AttackMode::kDropOne},
      {dbms::QueryRequest::Sum(100, 2500), AttackMode::kInjectFake},
      {dbms::QueryRequest::TopK(100, 2500, 5),
       AttackMode::kTamperPayload},
      // Empty range: the truncation attack degrades to a count lie.
      {dbms::QueryRequest::TopK(900000, 950000, 5),
       AttackMode::kTruncatedTopK},
  };
}

class AggregateMatrixTest
    : public ::testing::TestWithParam<crypto::HashScheme> {};

TEST_P(AggregateMatrixTest, SaeRejectsEveryAggregateAttack) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::SaeAdversary attacker(&system);

  for (const AggregateCase& c : AggregateCases()) {
    auto outcome = attacker.Query(c.request, c.attack);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().verification.code(),
              StatusCode::kVerificationFailure)
        << dbms::QueryOpName(c.request.op) << " under attack "
        << int(c.attack) << ": " << outcome.value().verification.ToString();
    // Control row: the same request, honest, verifies.
    auto honest = system.Query(c.request);
    ASSERT_TRUE(honest.ok());
    EXPECT_TRUE(honest.value().verification.ok())
        << dbms::QueryOpName(c.request.op);
  }
}

TEST_P(AggregateMatrixTest, TomRejectsEveryAggregateAttack) {
  core::TomSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  options.rsa_modulus_bits = 512;  // fast for tests
  core::TomSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::TomAdversary attacker(&system);

  for (const AggregateCase& c : AggregateCases()) {
    auto outcome = attacker.Query(c.request, c.attack);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().verification.code(),
              StatusCode::kVerificationFailure)
        << dbms::QueryOpName(c.request.op) << " under attack "
        << int(c.attack) << ": " << outcome.value().verification.ToString();
    auto honest = system.Query(c.request);
    ASSERT_TRUE(honest.ok());
    EXPECT_TRUE(honest.value().verification.ok())
        << dbms::QueryOpName(c.request.op);
  }
}

// Aggregate lies and freshness attacks are orthogonal gates: a stale
// replay of an aggregate query reports staleness (the freshness gate runs
// first), never generic corruption.
TEST_P(AggregateMatrixTest, StaleAggregateReportsStalenessNotCorruption) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::SaeAdversary attacker(&system);
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(9000, 1234)).ok());

  auto outcome = attacker.Query(dbms::QueryRequest::Count(100, 2500),
                                AttackMode::kReplayStaleRoot);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verification.code(), StatusCode::kStaleEpoch);
}

INSTANTIATE_TEST_SUITE_P(BothHashSchemes, AggregateMatrixTest,
                         ::testing::Values(crypto::HashScheme::kSha1,
                                           crypto::HashScheme::kSha256Trunc));

// --- cache adversaries ---------------------------------------------------------
//
// The caching layer's threat model: the SP's answer cache is SP-side state,
// so a compromised SP can replay entries keyed to dead epochs or poison its
// own cache with tampered bytes. Neither may ever be accepted — clients
// verify cache hits exactly like misses ("caching without trusting the
// cache"). kPoisonedCache is the one attack that outlives its query: the
// poisoned entry keeps serving tampered bytes to later HONEST queries until
// an epoch bump flushes the cache, and every one of those must fail too.

class CacheAdversaryTest
    : public ::testing::TestWithParam<crypto::HashScheme> {};

TEST_P(CacheAdversaryTest, SaeStaleCacheReplayRejected) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::SaeAdversary attacker(&system);
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(9000, 1234)).ok());

  // Twice: the second replay is served from the stale SP's now-warm answer
  // cache — a literal cached blob keyed to the dead epoch.
  for (int i = 0; i < 2; ++i) {
    auto outcome = attacker.Query(100, 2500, AttackMode::kStaleCacheReplay);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().verification.code(), StatusCode::kStaleEpoch)
        << outcome.value().verification.ToString();
  }
  auto honest = system.Query(100, 2500);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest.value().verification.ok());
}

TEST_P(CacheAdversaryTest, TomStaleCacheReplayRejected) {
  core::TomSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  options.rsa_modulus_bits = 512;  // fast for tests
  core::TomSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::TomAdversary attacker(&system);
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(9000, 1234)).ok());

  for (int i = 0; i < 2; ++i) {
    auto outcome = attacker.Query(100, 2500, AttackMode::kStaleCacheReplay);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().verification.code(), StatusCode::kStaleEpoch)
        << outcome.value().verification.ToString();
  }
  auto honest = system.Query(100, 2500);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest.value().verification.ok());
}

TEST_P(CacheAdversaryTest, SaePoisonedCachePersistsUntilEpochBump) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::SaeAdversary attacker(&system);
  dbms::QueryRequest request = dbms::QueryRequest::Scan(100, 2500);

  // The poisoning query itself ships tampered bytes: rejected.
  auto poisoned = attacker.Query(request, AttackMode::kPoisonedCache);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(poisoned.value().verification.code(),
            StatusCode::kVerificationFailure);

  // The poison persists: subsequent HONEST queries for the same plan are
  // served the poisoned cache entry — and every one is still rejected.
  for (int i = 0; i < 2; ++i) {
    auto honest = system.Query(request);
    ASSERT_TRUE(honest.ok());
    EXPECT_EQ(honest.value().verification.code(),
              StatusCode::kVerificationFailure)
        << "poisoned cache entry must never be accepted";
  }
  // A different plan misses the poisoned key and verifies.
  auto other = system.Query(dbms::QueryRequest::Count(100, 2500));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other.value().verification.ok());

  // An epoch bump flushes the cache; the same plan recovers.
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(9000, 1234)).ok());
  auto recovered = system.Query(request);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().verification.ok());
}

TEST_P(CacheAdversaryTest, TomPoisonedCachePersistsUntilEpochBump) {
  core::TomSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  options.rsa_modulus_bits = 512;  // fast for tests
  core::TomSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::TomAdversary attacker(&system);
  dbms::QueryRequest request = dbms::QueryRequest::Scan(100, 2500);

  auto poisoned = attacker.Query(request, AttackMode::kPoisonedCache);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(poisoned.value().verification.code(),
            StatusCode::kVerificationFailure);

  for (int i = 0; i < 2; ++i) {
    auto honest = system.Query(request);
    ASSERT_TRUE(honest.ok());
    EXPECT_EQ(honest.value().verification.code(),
              StatusCode::kVerificationFailure)
        << "poisoned cache entry must never be accepted";
  }
  auto other = system.Query(dbms::QueryRequest::Count(100, 2500));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other.value().verification.ok());

  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(9000, 1234)).ok());
  auto recovered = system.Query(request);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().verification.ok());
}

// Poisoning with the cache disabled still tampers the poisoning query
// itself (and is rejected), but nothing persists — the next honest query
// is clean. Pins the cache as the only persistence channel.
TEST_P(CacheAdversaryTest, PoisonWithoutCacheDoesNotPersist) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  options.DisableCaches();
  core::SaeSystem system(options);
  SAE_CHECK_OK(system.Load(MatrixDataset(300)));
  adversary::SaeAdversary attacker(&system);
  dbms::QueryRequest request = dbms::QueryRequest::Scan(100, 2500);

  auto poisoned = attacker.Query(request, AttackMode::kPoisonedCache);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(poisoned.value().verification.code(),
            StatusCode::kVerificationFailure);
  auto honest = system.Query(request);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest.value().verification.ok());
}

INSTANTIATE_TEST_SUITE_P(BothHashSchemes, CacheAdversaryTest,
                         ::testing::Values(crypto::HashScheme::kSha1,
                                           crypto::HashScheme::kSha256Trunc));

// --- SAE token properties -------------------------------------------------------

TEST(VtAlgebraTest, DisjointRangesCompose) {
  // VT[a,c] = VT[a,b] ^ VT(b,c] — the XOR group structure GenerateVT
  // exploits. Checked through the public TE interface.
  InMemoryPageStore store;
  BufferPool pool(&store, 512);
  auto tree = xbtree::XbTree::Create(&pool).ValueOrDie();
  Rng rng(4242);
  for (uint64_t id = 1; id <= 2000; ++id) {
    crypto::Digest d = crypto::ComputeDigest(&id, sizeof(id));
    SAE_CHECK_OK(tree->Insert(uint32_t(rng.NextBounded(10000)), id, d));
  }
  for (int i = 0; i < 25; ++i) {
    uint32_t a = uint32_t(rng.NextBounded(8000));
    uint32_t b = a + uint32_t(rng.NextBounded(1000));
    uint32_t c = b + 1 + uint32_t(rng.NextBounded(1000));
    crypto::Digest whole = tree->GenerateVT(a, c).ValueOrDie();
    crypto::Digest left = tree->GenerateVT(a, b).ValueOrDie();
    crypto::Digest right = tree->GenerateVT(b + 1, c).ValueOrDie();
    EXPECT_EQ(whole, left ^ right) << a << " " << b << " " << c;
  }
}

TEST(VtAlgebraTest, SwappingRecordsAcrossRangesIsDetected) {
  // A malicious SP cannot satisfy the token by substituting a record from
  // outside the range, even one from the same table.
  RecordCodec codec(kRecSize);
  std::vector<Record> in_range, out_of_range;
  for (uint64_t id = 1; id <= 10; ++id) {
    in_range.push_back(codec.MakeRecord(id, uint32_t(100 + id)));
    out_of_range.push_back(codec.MakeRecord(100 + id, uint32_t(900 + id)));
  }
  crypto::Digest vt = core::Client::ResultXor(in_range, codec);

  std::vector<Record> swapped = in_range;
  swapped[3] = out_of_range[3];
  EXPECT_FALSE(
      core::Client::CompareXor(core::Client::ResultXor(swapped, codec), vt)
          .ok());
}

TEST(VtAlgebraTest, PayloadBitFlipChangesToken) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records{codec.MakeRecord(1, 10)};
  crypto::Digest vt = core::Client::ResultXor(records, codec);
  for (size_t byte : {0u, 7u, 20u, 51u}) {
    std::vector<Record> tampered = records;
    tampered[0].payload.MutableData()[byte] ^= 0x01;
    EXPECT_FALSE(
        core::Client::CompareXor(core::Client::ResultXor(tampered, codec), vt)
            .ok())
        << "byte " << byte;
  }
}

TEST(VtAlgebraTest, PairCancellationRequiresIdenticalRecords) {
  // XOR-cancellation (adding a record twice) only "works" when the very
  // same bytes appear twice — which the client can reject by checking for
  // duplicate ids; different records never cancel.
  RecordCodec codec(kRecSize);
  Record a = codec.MakeRecord(1, 10);
  Record b = codec.MakeRecord(2, 10);
  std::vector<Record> honest{a};
  crypto::Digest vt = core::Client::ResultXor(honest, codec);
  std::vector<Record> padded{a, b, b};
  // b ^ b cancels: the multiset {a, b, b} has the same XOR as {a}.
  EXPECT_TRUE(
      core::Client::CompareXor(core::Client::ResultXor(padded, codec), vt)
          .ok());
  // ...but {a, b, b'} with b' != b never matches.
  Record b_prime = b;
  b_prime.payload.MutableData()[0] ^= 1;
  std::vector<Record> broken{a, b, b_prime};
  EXPECT_FALSE(
      core::Client::CompareXor(core::Client::ResultXor(broken, codec), vt)
          .ok());
}

TEST(VtAlgebraTest, EndToEndDuplicatePairAttackVisibility) {
  // The XOR check alone admits even-multiplicity padding (previous test);
  // the paper's client can additionally reject duplicate record ids. Verify
  // the library exposes enough information to do so.
  RecordCodec codec(kRecSize);
  Record a = codec.MakeRecord(1, 10);
  Record b = codec.MakeRecord(2, 11);
  std::vector<Record> padded{a, b, b};
  std::map<uint64_t, int> id_count;
  for (const auto& r : padded) ++id_count[r.id];
  bool has_duplicate_ids = false;
  for (auto& [id, n] : id_count) has_duplicate_ids |= (n > 1);
  EXPECT_TRUE(has_duplicate_ids);
}

// --- witness padding: the pair cancellation, rejected --------------------------

// An SP that pads the witness with two copies of one record keeps the XOR
// intact (PairCancellationRequiresIdenticalRecords). The client's witness
// check must reject both padding legs on every SAE client path, each with
// the message of the one check it targets. The made-up record of the
// duplicate leg shares its key with a real one.
class WitnessPaddingTest : public ::testing::Test {
 protected:
  WitnessPaddingTest() : codec_(kRecSize) {
    // Keys 300..3297 step 3: key 450 is id 150's.
    for (uint64_t id = 100; id < 1100; ++id) {
      dataset_.push_back(codec_.MakeRecord(id, uint32_t(id * 3)));
    }
  }

  core::SaeSystemOptions Options() const {
    core::SaeSystemOptions options;
    options.record_size = kRecSize;
    return options;
  }

  std::vector<dbms::QueryRequest> Requests() const {
    return {dbms::QueryRequest::Scan(400, 500),
            dbms::QueryRequest::Count(400, 500),
            dbms::QueryRequest::TopK(400, 500, 3)};
  }

  // Every SAE client path, with `tap` standing in for the SP, must reject
  // every request with a verification failure that names `why`.
  void ExpectRejectedEverywhere(adversary::PairPaddingTap* tap,
                                const std::string& why) {
    for (bool cached : {true, false}) {
      core::SaeSystemOptions options = Options();
      if (!cached) options.DisableCaches();
      core::SaeSystem system(options);
      ASSERT_TRUE(system.Load(dataset_).ok());
      for (const dbms::QueryRequest& request : Requests()) {
        // Three runs: a miss, the admitted second miss, a memo hit.
        for (int run = 0; run < 3; ++run) {
          auto outcome = system.ExecuteQuery(request, tap);
          ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
          Status st = outcome.value().verification;
          EXPECT_EQ(st.code(), StatusCode::kVerificationFailure)
              << "cached=" << cached << " run " << run << ": "
              << st.ToString();
          EXPECT_NE(st.message().find(why), std::string::npos)
              << st.ToString();
        }
      }
    }

    core::ShardedSaeSystem sharded(core::ShardRouter({450}), Options());
    ASSERT_TRUE(sharded.Load(dataset_).ok());
    for (const dbms::QueryRequest& request : Requests()) {
      auto outcome = sharded.ExecuteQuery(request, tap);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      Status st = outcome.value().verification;
      EXPECT_EQ(st.code(), StatusCode::kVerificationFailure) << st.ToString();
      EXPECT_NE(st.message().find(why), std::string::npos) << st.ToString();
    }

    // The check NetSaeClient runs on each networked answer.
    core::SaeSystem system(Options());
    ASSERT_TRUE(system.Load(dataset_).ok());
    for (const dbms::QueryRequest& request : Requests()) {
      auto served = system.sp().ServeQuery(request);
      ASSERT_TRUE(served.ok());
      auto padded = tap->OnAnswer(request, system.epoch(), served.value());
      ASSERT_TRUE(padded.ok());
      auto message =
          core::DeserializeQueryAnswer(padded.value()->answer_msg, codec_);
      ASSERT_TRUE(message.ok());
      auto vt = system.te().GenerateVt(request);
      ASSERT_TRUE(vt.ok());
      // The pair cancels: the padded witness still matches the token.
      const std::vector<Record>& witness = message.value().witness;
      ASSERT_TRUE(core::Client::CompareXor(
                      core::Client::ResultXor(witness, codec_),
                      vt.value().digest)
                      .ok());
      Status st = core::Client::VerifyAnswer(
          request, message.value().answer, witness, vt.value(),
          message.value().epoch, system.epoch(), codec_);
      EXPECT_EQ(st.code(), StatusCode::kVerificationFailure) << st.ToString();
      EXPECT_EQ(st.message(), why);
    }
  }

  RecordCodec codec_;
  std::vector<Record> dataset_;
};

TEST_F(WitnessPaddingTest, DuplicatePairIsRejected) {
  adversary::PairPaddingTap tap(adversary::PairPaddingTap::Leg::kDuplicatePair,
                                codec_.MakeRecord(5000, 450), codec_);
  ExpectRejectedEverywhere(&tap, "witness repeats a record id");
}

TEST_F(WitnessPaddingTest, OutOfRangePairIsRejected) {
  // The real record with key 300, below every queried range.
  adversary::PairPaddingTap tap(adversary::PairPaddingTap::Leg::kOutOfRangePair,
                                dataset_.front(), codec_);
  ExpectRejectedEverywhere(&tap, "witness record lies outside the queried range");
}

// The witness check does not ask (key, id) to ascend: the B+-tree places
// an inserted key after the equal keys already there, so an honest answer
// after an update can list equal keys with their ids out of order.
TEST_F(WitnessPaddingTest, HonestEqualKeysOutOfIdOrderVerify) {
  core::SaeSystem system(Options());
  ASSERT_TRUE(system.Load(dataset_).ok());
  ASSERT_TRUE(system.Insert(codec_.MakeRecord(5, 450)).ok());
  auto outcome = system.ExecuteQuery(dbms::QueryRequest::Scan(400, 500));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().verification.ok())
      << outcome.value().verification.ToString();
  const std::vector<Record>& witness = outcome.value().results;
  bool ids_descend = false;
  for (size_t i = 1; i < witness.size(); ++i) {
    ids_descend |= witness[i - 1].key == witness[i].key &&
                   witness[i - 1].id > witness[i].id;
  }
  EXPECT_TRUE(ids_descend);
  EXPECT_TRUE(core::Client::VerifyAnswer(
                  dbms::QueryRequest::Scan(400, 500), outcome.value().answer,
                  witness, outcome.value().vt, outcome.value().claimed_epoch,
                  system.epoch(), codec_)
                  .ok());
}

}  // namespace
}  // namespace sae
