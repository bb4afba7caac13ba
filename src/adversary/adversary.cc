// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the test-side SP adversaries (adversary/adversary.h).

#include "adversary/adversary.h"

#include <algorithm>

#include "core/messages.h"
#include "mbtree/vo.h"
#include "util/macros.h"

namespace sae::adversary {

namespace {

bool IsReplay(AttackMode mode) {
  return mode == AttackMode::kReplayStaleRoot ||
         mode == AttackMode::kStaleCacheReplay;
}

// The epoch a freshness adversary claims: the replica's epoch when one
// exists, and in any case strictly behind the published epoch, so a replay
// staged before any update still announces itself as stale.
template <typename Sp>
uint64_t StaleClaim(const Sp* stale, uint64_t published) {
  uint64_t behind = published > 0 ? published - 1 : 0;
  return stale != nullptr ? std::min(stale->epoch(), behind) : behind;
}

// The SP a replay answers from. The cache-replay variant serves the second
// of two identical calls, so the replayed bytes come straight out of an
// answer-cache entry keyed to the old epoch.
template <typename Sp>
Result<std::shared_ptr<const core::CachedAnswer>> Replay(
    AttackMode mode, const Sp& source, const dbms::QueryRequest& request) {
  if (mode == AttackMode::kStaleCacheReplay) {
    SAE_RETURN_NOT_OK(source.ServeQuery(request).status());
  }
  return source.ServeQuery(request);
}

// Replaces the cache entry for (request, current epoch) with a tampered
// copy of `served`, which keeps its proof bytes.
Result<std::shared_ptr<const core::CachedAnswer>> Poison(
    core::ServiceProvider* sp, const dbms::QueryRequest& request,
    const core::CachedAnswer& served, uint64_t seed) {
  uint64_t epoch = sp->epoch();
  SAE_ASSIGN_OR_RETURN(
      std::vector<uint8_t> tampered,
      TamperAnswer(served.answer_msg, request, AttackMode::kTamperPayload,
                   sp->table().codec(), seed, epoch));
  auto poisoned = std::make_shared<const core::CachedAnswer>(
      core::CachedAnswer{std::move(tampered), served.proof_msg});
  sp->answer_cache().Insert(core::AnswerCache::Key::For(request, epoch),
                            poisoned);
  return poisoned;
}

// The tamper seed PoisonCache uses.
constexpr uint64_t kPoisonSeed = 42;

}  // namespace

Result<std::vector<uint8_t>> TamperAnswer(
    const std::vector<uint8_t>& answer_msg, const dbms::QueryRequest& request,
    AttackMode mode, const RecordCodec& codec, uint64_t seed,
    uint64_t claimed_epoch) {
  SAE_ASSIGN_OR_RETURN(core::QueryAnswerMessage plan,
                       core::DeserializeQueryAnswer(answer_msg, codec));
  std::vector<Record> witness =
      ApplyAttack(std::move(plan.witness), mode, codec, seed);
  dbms::QueryAnswer answer = IsRecordAttack(mode)
                                 ? dbms::EvaluateAnswer(request, witness)
                                 : std::move(plan.answer);
  ApplyAnswerAttack(&answer, mode, seed);
  return core::SerializeQueryAnswer(answer, witness, claimed_epoch, codec);
}

Result<std::shared_ptr<const core::CachedAnswer>> PoisonCache(
    core::ServiceProvider* sp, const dbms::QueryRequest& request) {
  SAE_ASSIGN_OR_RETURN(std::shared_ptr<const core::CachedAnswer> served,
                       sp->ServeQuery(request));
  return Poison(sp, request, *served, kPoisonSeed);
}

// --- SAE ---------------------------------------------------------------------

Result<std::shared_ptr<const core::CachedAnswer>> SaeSpAttack::OnAnswer(
    const dbms::QueryRequest& request, uint64_t published,
    std::shared_ptr<const core::CachedAnswer> served) {
  uint64_t seed = seed_.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == AttackMode::kPoisonedCache) {
    return Poison(sp_, request, *served, seed);
  }
  uint64_t claimed = sp_->epoch();
  if (IsReplay(mode_)) {
    // The replica (honestly) stamps its own, old epoch: the freshness
    // check, not the XOR, catches it.
    claimed = StaleClaim(stale_, published);
    SAE_ASSIGN_OR_RETURN(
        served, Replay(mode_, stale_ != nullptr ? *stale_ : *sp_, request));
  }
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> answer_msg,
                       TamperAnswer(served->answer_msg, request, mode_,
                                    sp_->table().codec(), seed, claimed));
  return std::make_shared<const core::CachedAnswer>(
      core::CachedAnswer{std::move(answer_msg), {}});
}

Result<std::vector<uint8_t>> SaeSpAttack::OnToken(
    const dbms::QueryRequest& /*request*/, uint64_t /*published*/,
    std::vector<uint8_t> vt_msg) {
  if (mode_ != AttackMode::kStaleVt) return vt_msg;
  SAE_ASSIGN_OR_RETURN(core::VerificationToken vt, core::DeserializeVt(vt_msg));
  vt.epoch = vt.epoch > 0 ? vt.epoch - 1 : 0;
  return core::SerializeVt(vt);
}

Result<std::shared_ptr<const core::CachedAnswer>> PairPaddingTap::OnAnswer(
    const dbms::QueryRequest& request, uint64_t /*published*/,
    std::shared_ptr<const core::CachedAnswer> served) {
  const bool inside = pad_.key >= request.lo && pad_.key <= request.hi;
  if (inside != (leg_ == Leg::kDuplicatePair)) return served;
  SAE_ASSIGN_OR_RETURN(core::QueryAnswerMessage plan,
                       core::DeserializeQueryAnswer(served->answer_msg, codec_));
  auto at = std::upper_bound(
      plan.witness.begin(), plan.witness.end(), pad_.key,
      [](Key key, const Record& record) { return key < record.key; });
  plan.witness.insert(at, 2, pad_);
  return std::make_shared<const core::CachedAnswer>(core::CachedAnswer{
      core::SerializeQueryAnswer(dbms::EvaluateAnswer(request, plan.witness),
                                 plan.witness, plan.epoch, codec_),
      {}});
}

// --- TOM ---------------------------------------------------------------------

Result<std::shared_ptr<const core::CachedAnswer>> TomSpAttack::OnAnswer(
    const dbms::QueryRequest& request, uint64_t published,
    std::shared_ptr<const core::CachedAnswer> served) {
  uint64_t seed = seed_.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == AttackMode::kPoisonedCache) {
    return Poison(sp_, request, *served, seed);
  }
  if (IsReplay(mode_)) {
    // Full replay: stale results + stale VO + the stale epoch-stamped
    // signature, internally consistent and valid for its own epoch. Only
    // the freshness gate can reject it.
    SAE_ASSIGN_OR_RETURN(
        served, Replay(mode_, stale_ != nullptr ? *stale_ : *sp_, request));
  }
  SAE_ASSIGN_OR_RETURN(
      mbtree::VerificationObject vo,
      mbtree::VerificationObject::Deserialize(served->proof_msg));
  if (IsReplay(mode_)) {
    vo.epoch = StaleClaim(stale_, published);
  } else if (mode_ == AttackMode::kStaleVt) {
    // Stale authentication against the current result: an old epoch's
    // signature (TOM's analog of a replayed TE token).
    vo.epoch = StaleClaim(stale_, published);
    if (stale_ != nullptr) vo.signature = stale_signature_;
  }
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> answer_msg,
                       TamperAnswer(served->answer_msg, request, mode_,
                                    sp_->table().codec(), seed, vo.epoch));
  return std::make_shared<const core::CachedAnswer>(
      core::CachedAnswer{std::move(answer_msg), vo.Serialize()});
}

// --- per-system adversaries --------------------------------------------------

template <>
Adversary<core::SaeSystem>::Adversary(core::SaeSystem* system)
    : system_(system) {
  const core::SaeSystemOptions& o = system->options();
  uint64_t epoch = 0;
  core::SnapshotState state = system->CaptureState(&epoch).ValueOrDie();
  stale_ = std::make_unique<core::ServiceProvider>(
      core::ServiceProvider::Options{o.record_size, o.sp_index_pool_pages,
                                     o.sp_heap_pool_pages,
                                     o.sp_answer_cache});
  SAE_CHECK_OK(stale_->LoadDataset(state.records));
  stale_->SetEpoch(epoch);
}

template <>
Adversary<core::TomSystem>::Adversary(core::TomSystem* system)
    : system_(system) {
  const core::TomSystemOptions& o = system->options();
  uint64_t epoch = 0;
  core::SnapshotState state = system->CaptureState(&epoch).ValueOrDie();
  stale_signature_ = state.signature;
  core::TomServiceProvider::Options sp_options;
  sp_options.record_size = o.record_size;
  sp_options.index_pool_pages = o.sp_index_pool_pages;
  sp_options.heap_pool_pages = o.sp_heap_pool_pages;
  sp_options.answer_cache = o.sp_answer_cache;
  sp_options.scheme = o.scheme;
  sp_options.mb_options = o.mb_options;
  stale_ = std::make_unique<core::TomServiceProvider>(sp_options);
  // The captured shape rebuilds the very tree the stale signature covers.
  SAE_CHECK_OK(stale_->LoadDataset(state.records, state.shape));
  stale_->SetSignature(state.signature, epoch);
}

namespace {

std::unique_ptr<core::QueryTap> MakeTap(AttackMode mode,
                                        core::ServiceProvider* sp,
                                        const core::ServiceProvider* stale,
                                        const crypto::RsaSignature&) {
  return std::make_unique<SaeSpAttack>(mode, sp, stale);
}

std::unique_ptr<core::QueryTap> MakeTap(
    AttackMode mode, core::TomServiceProvider* sp,
    const core::TomServiceProvider* stale,
    const crypto::RsaSignature& stale_signature) {
  return std::make_unique<TomSpAttack>(mode, sp, stale, stale_signature);
}

}  // namespace

template <typename System>
core::QueryTap* Adversary<System>::Tap(AttackMode mode) {
  if (mode == AttackMode::kNone) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<core::QueryTap>& tap = taps_[mode];
  if (tap == nullptr) {
    tap = MakeTap(mode, &system_->sp(), stale_.get(), stale_signature_);
  }
  return tap.get();
}

template class Adversary<core::SaeSystem>;
template class Adversary<core::TomSystem>;

// --- sharded placement -------------------------------------------------------

template <typename Base>
class ShardedAdversary<Base>::ShardTap final : public core::QueryTap {
 public:
  ShardTap(ShardedAdversary* owner, AttackMode mode, size_t shard)
      : owner_(owner), mode_(mode), shard_(shard) {}

  Result<std::shared_ptr<const core::CachedAnswer>> OnAnswer(
      const dbms::QueryRequest& request, uint64_t published,
      std::shared_ptr<const core::CachedAnswer> served) override {
    core::QueryTap* tap = For(request);
    if (tap == nullptr) return served;
    return tap->OnAnswer(request, published, std::move(served));
  }

  Result<std::vector<uint8_t>> OnToken(const dbms::QueryRequest& request,
                                       uint64_t published,
                                       std::vector<uint8_t> vt_msg) override {
    core::QueryTap* tap = For(request);
    if (tap == nullptr) return vt_msg;
    return tap->OnToken(request, published, std::move(vt_msg));
  }

 private:
  // The sub-request is clipped to its shard's slice, so its lower bound
  // names the shard.
  core::QueryTap* For(const dbms::QueryRequest& sub) {
    size_t s = owner_->system_->router().ShardOf(sub.lo);
    if (shard_ != kAllShards && shard_ != s) return nullptr;
    return owner_->shards_[s]->Tap(mode_);
  }

  ShardedAdversary* owner_;
  AttackMode mode_;
  size_t shard_;
};

template <typename Base>
ShardedAdversary<Base>::ShardedAdversary(System* system) : system_(system) {
  for (size_t s = 0; s < system->num_shards(); ++s) {
    shards_.push_back(std::make_unique<Adversary<Base>>(&system->shard(s)));
  }
}

template <typename Base>
ShardedAdversary<Base>::~ShardedAdversary() = default;

template <typename Base>
core::QueryTap* ShardedAdversary<Base>::Tap(AttackMode mode, size_t shard) {
  if (mode == AttackMode::kNone) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ShardTap>& tap = taps_[{mode, shard}];
  if (tap == nullptr) tap = std::make_unique<ShardTap>(this, mode, shard);
  return tap.get();
}

template class ShardedAdversary<core::SaeSystem>;
template class ShardedAdversary<core::TomSystem>;

}  // namespace sae::adversary
