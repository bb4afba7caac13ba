// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the end-to-end SaeSystem and TomSystem harnesses
// (core/system.h): the verified query path under the reader lock, each
// model's hook into the shared update pipeline, and the freshness
// adversaries (kReplayStaleRoot / kStaleVt) that answer from pre-update
// snapshots.

#include "core/system.h"

#include <algorithm>
#include <limits>

#include "core/messages.h"
#include "core/query_engine.h"
#include "sim/cost_model.h"
#include "util/macros.h"

namespace sae::core {

namespace {

std::vector<Record> SortByKey(std::vector<Record> records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.key != b.key ? a.key < b.key : a.id < b.id;
            });
  return records;
}

constexpr Key kMinKey = std::numeric_limits<Key>::min();
constexpr Key kMaxKey = std::numeric_limits<Key>::max();

// The epoch a freshness adversary claims: the snapshot's epoch when one
// exists, and in any case strictly behind the published epoch — a replay
// staged before any update occurred still announces itself as stale, so
// "malicious" never silently means "honest".
uint64_t StaleClaim(bool captured, uint64_t stale_epoch, uint64_t published) {
  uint64_t behind = published > 0 ? published - 1 : 0;
  return captured ? std::min(stale_epoch, behind) : behind;
}

}  // namespace

// --- SaeSystem ---------------------------------------------------------------

SaeSystem::SaeSystem(const Options& options)
    : UpdatePipeline({SnapshotState::kSae, uint32_t(options.record_size),
                      options.scheme},
                     options.durability),
      options_(options),
      owner_(options.record_size),
      sp_(ServiceProvider::Options{options.record_size,
                                   options.sp_index_pool_pages,
                                   options.sp_heap_pool_pages,
                                   options.sp_answer_cache}),
      te_(TrustedEntity::Options{options.record_size, options.scheme,
                                 options.te_pool_pages, options.xb_options,
                                 options.te_vt_cache}),
      client_memo_(options.client_memo) {}

Status SaeSystem::Load(const std::vector<Record>& records) {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  SAE_RETURN_NOT_OK(LoadLocked(records));
  return FinishLoad();
}

Status SaeSystem::LoadLocked(const std::vector<Record>& records) {
  SAE_RETURN_NOT_OK(owner_.SetDataset(records));
  return owner_.Outsource(&sp_, &te_, &do_sp_, &do_te_);
}

Status SaeSystem::Apply(const WalUpdate& update, Traffic* traffic) {
  // Channels carry shipment + epoch notice; the applying update holds the
  // unique lock, so the delta is exactly this update's traffic.
  uint64_t bytes0 = do_sp_.total_bytes() + do_te_.total_bytes();
  Status st =
      update.op == WalUpdate::kInsert
          ? owner_.InsertRecord(update.record, &sp_, &te_, &do_sp_, &do_te_)
          : owner_.DeleteRecord(update.id, &sp_, &te_, &do_sp_, &do_te_);
  size_t sent = do_sp_.total_bytes() + do_te_.total_bytes() - bytes0;
  traffic->auth_bytes = st.ok() ? 2 * SerializeEpochNotice(0).size() : 0;
  traffic->shipment_bytes = sent - traffic->auth_bytes;
  return st;
}

Status SaeSystem::Capture(bool with_records, SnapshotState* state) {
  // The TE rebuilds its XB-tree from the records: no root to persist.
  if (with_records) state->records = owner_.SortedDataset();
  return Status::OK();
}

Status SaeSystem::Restore(const SnapshotState& state, uint64_t epoch) {
  SAE_RETURN_NOT_OK(LoadLocked(state.records));
  owner_.RestoreEpoch(epoch, &sp_, &te_);
  return Status::OK();
}

Result<SaeSystem::QueryOutcome> SaeSystem::Query(
    const dbms::QueryRequest& request, AttackMode attack) {
  QueryEngine engine;  // no workers: the batch of one runs on this thread
  QueryEngine::SaeBatch batch =
      engine.Run(this, {BatchQuery{request, attack}});
  return std::move(batch.outcomes[0]);
}

void SaeSystem::CaptureStaleSnapshotLocked() {
  if (stale_captured_) return;
  // Freeze the pre-update database once, right before the first update
  // ever applied: the replay adversary will answer from this state.
  auto snapshot = sp_.ExecuteRange(kMinKey, kMaxKey);
  if (!snapshot.ok()) return;  // leave uncaptured; replay degrades cleanly
  stale_records_ = std::move(snapshot.value());
  stale_epoch_ = owner_.epoch();
  stale_captured_ = true;
}

const ServiceProvider* SaeSystem::StaleSp() {
  if (!stale_captured_) return nullptr;
  std::call_once(stale_build_once_, [this] {
    auto sp = std::make_unique<ServiceProvider>(ServiceProvider::Options{
        options_.record_size, options_.sp_index_pool_pages,
        options_.sp_heap_pool_pages, options_.sp_answer_cache});
    if (sp->LoadDataset(stale_records_).ok()) {
      sp->SetEpoch(stale_epoch_);
      stale_sp_ = std::move(sp);
    }
    stale_records_.clear();
    stale_records_.shrink_to_fit();
  });
  return stale_sp_.get();
}

Result<SaeSystem::QueryOutcome> SaeSystem::ExecuteQuery(
    const dbms::QueryRequest& request, AttackMode attack) {
  // Shared (reader) lock for the whole query: the epoch observed by the
  // SP answer, the TE token, and the client check is one frozen snapshot.
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  uint64_t published = owner_.epoch();
  uint64_t seed = attack_seed_.fetch_add(1, std::memory_order_relaxed);

  QueryOutcome outcome;
  outcome.request = request;
  // Per-thread pool counters and per-query channel sessions keep the cost
  // attribution exact when many queries run concurrently.
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();
  storage::BufferPool::Stats te0 = te_.pool_thread_stats();

  // Client -> SP: the SP serves its encoded answer; the SP may be
  // compromised. A replaying SP serves from the pre-update snapshot and
  // (honestly) stamps the snapshot's epoch — the freshness check, not the
  // XOR, catches it.
  std::shared_ptr<const CachedAnswer> served;
  uint64_t claimed_epoch = sp_.epoch();
  if (attack == AttackMode::kReplayStaleRoot ||
      attack == AttackMode::kStaleCacheReplay) {
    const ServiceProvider* stale = StaleSp();
    claimed_epoch = StaleClaim(stale != nullptr, stale_epoch_, published);
    const ServiceProvider& source = stale != nullptr ? *stale : sp_;
    if (attack == AttackMode::kStaleCacheReplay) {
      // Warm the stale SP's answer cache, then serve from it: the replayed
      // bytes literally come out of a cache entry keyed to the old epoch.
      SAE_RETURN_NOT_OK(source.ServeQuery(request).status());
    }
    SAE_ASSIGN_OR_RETURN(served, source.ServeQuery(request));
  } else if (attack == AttackMode::kPoisonedCache) {
    // The SP poisons its own cache: tampered bytes ship now and persist
    // for later honest queries until an epoch bump flushes the cache.
    SAE_ASSIGN_OR_RETURN(served, sp_.ServePoisonedQuery(request, seed));
  } else {
    SAE_ASSIGN_OR_RETURN(served, sp_.ServeQuery(request));
  }
  if (attack != AttackMode::kNone) {
    // Only an attacking SP decodes what it served, tampers and re-encodes.
    // Record attacks tamper the witness and re-derive the answer from it
    // (a consistent lie the range proof catches); answer attacks leave the
    // witness honest and falsify the derived fields (CheckAnswer's job).
    SAE_ASSIGN_OR_RETURN(QueryAnswerMessage plan,
                         DeserializeQueryAnswer(served->answer_msg, codec()));
    std::vector<Record> witness =
        ApplyAttack(std::move(plan.witness), attack, codec(), seed);
    dbms::QueryAnswer answer = IsRecordAttack(attack)
                                   ? dbms::EvaluateAnswer(request, witness)
                                   : std::move(plan.answer);
    ApplyAnswerAttack(&answer, attack, seed);
    served = std::make_shared<const CachedAnswer>(CachedAnswer{
        SerializeQueryAnswer(answer, witness, claimed_epoch, codec()), {}});
  }
  // The honest SP hands its served buffer to the channel and the client as
  // it is: one encode per answer, none at all on a cache hit.
  const std::vector<uint8_t>& result_msg = served->answer_msg;
  sim::Channel::Session sp_session = sp_client_.OpenSession();
  sp_session.Send(result_msg);
  outcome.costs.result_bytes = sp_session.bytes();
  outcome.costs.sp_index_accesses =
      (sp_.index_pool_thread_stats() - sp_index0).accesses;
  outcome.costs.sp_heap_accesses =
      (sp_.heap_pool_thread_stats() - sp_heap0).accesses;

  // Client -> TE: verification token (the TE itself is always honest; a
  // kStaleVt adversary replays a token captured before the last update).
  SAE_ASSIGN_OR_RETURN(VerificationToken vt, te_.GenerateVt(request));
  if (attack == AttackMode::kStaleVt) {
    vt.epoch = vt.epoch > 0 ? vt.epoch - 1 : 0;
  }
  std::vector<uint8_t> vt_msg = SerializeVt(vt);
  sim::Channel::Session te_session = te_client_.OpenSession();
  te_session.Send(vt_msg);
  outcome.costs.auth_bytes = te_session.bytes();
  outcome.costs.te_accesses = (te_.pool_thread_stats() - te0).accesses;

  // Client: decode and verify — freshness gates, then the XOR check over
  // the witness, then the answer recomputation (Client::VerifyAnswer).
  SAE_ASSIGN_OR_RETURN(QueryAnswerMessage received,
                       DeserializeQueryAnswer(result_msg, codec()));
  outcome.answer = std::move(received.answer);
  outcome.results = std::move(received.witness);
  outcome.claimed_epoch = received.epoch;
  SAE_ASSIGN_OR_RETURN(outcome.vt, DeserializeVt(vt_msg));
  sim::Stopwatch watch;
  outcome.verification = client_memo_.VerifyAnswer(
      request, outcome.answer, outcome.results, outcome.vt,
      outcome.claimed_epoch, published, codec(), options_.scheme);
  outcome.costs.client_verify_ms = watch.ElapsedMs();
  return outcome;
}

// --- TomSystem ---------------------------------------------------------------

TomSystem::TomSystem(const Options& options)
    : UpdatePipeline({SnapshotState::kTom, uint32_t(options.record_size),
                      options.scheme},
                     options.durability),
      options_(options),
      codec_(options.record_size),
      owner_(TomDataOwner::Options{options.record_size, options.scheme,
                                   options.rsa_modulus_bits, options.rsa_seed,
                                   options.do_pool_pages,
                                   options.mb_options}),
      sp_(TomServiceProvider::Options{options.record_size, options.scheme,
                                      options.sp_index_pool_pages,
                                      options.sp_heap_pool_pages,
                                      options.mb_options,
                                      options.sp_answer_cache}),
      client_memo_(options.client_memo) {}

Status TomSystem::Load(const std::vector<Record>& records) {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  SAE_RETURN_NOT_OK(LoadLocked(records, /*ship=*/true));
  return FinishLoad();
}

Status TomSystem::LoadLocked(const std::vector<Record>& records, bool ship) {
  std::vector<Record> sorted = SortByKey(records);
  SAE_RETURN_NOT_OK(owner_.LoadDataset(sorted));
  if (ship) {
    std::vector<uint8_t> shipment = SerializeRecords(sorted, codec_);
    std::vector<uint8_t> sig_msg =
        SerializeSignature(owner_.signature(), owner_.epoch());
    do_sp_.Send(shipment);
    do_sp_.Send(sig_msg);
  }
  return sp_.LoadDataset(sorted, owner_.signature(), owner_.epoch());
}

Status TomSystem::Apply(const WalUpdate& update, Traffic* traffic) {
  const bool insert = update.op == WalUpdate::kInsert;
  uint64_t bytes0 = do_sp_.total_bytes();
  Status st = insert ? owner_.InsertRecord(update.record)
                     : owner_.DeleteRecord(update.id);
  if (st.ok()) {
    // The record (or deletion notice) ships with the freshly re-signed
    // epoch-stamped root.
    std::vector<uint8_t> shipment = insert
                                        ? SerializeRecords({update.record}, codec_)
                                        : SerializeDelete(update.id, 0);
    std::vector<uint8_t> sig_msg =
        SerializeSignature(owner_.signature(), owner_.epoch());
    traffic->auth_bytes = sig_msg.size();
    do_sp_.Send(shipment);
    do_sp_.Send(sig_msg);
    st = insert ? sp_.ApplyInsert(update.record, owner_.signature(),
                                  owner_.epoch())
                : sp_.ApplyDelete(update.id, owner_.signature(),
                                  owner_.epoch());
  }
  traffic->shipment_bytes =
      do_sp_.total_bytes() - bytes0 - traffic->auth_bytes;
  return st;
}

Status TomSystem::Capture(bool with_records, SnapshotState* state) {
  state->signature = owner_.signature();
  if (!with_records) return Status::OK();
  SAE_ASSIGN_OR_RETURN(TomServiceProvider::QueryResponse range,
                       sp_.ExecuteRange(kMinKey, kMaxKey));
  state->records = std::move(range.results);
  return Status::OK();
}

Status TomSystem::Restore(const SnapshotState& state, uint64_t epoch) {
  SAE_RETURN_NOT_OK(LoadLocked(state.records, /*ship=*/false));
  SAE_RETURN_NOT_OK(owner_.RestoreEpoch(epoch));
  // The re-signed recovered root must byte-match the persisted signature:
  // this proves the rebuilt ADS is identical to the checkpointed one
  // before any client sees it.
  if (owner_.signature() != state.signature) {
    return Status::Corruption(
        "recovered root signature does not match the snapshot");
  }
  sp_.SetSignature(owner_.signature(), owner_.epoch());
  return Status::OK();
}

Result<TomSystem::QueryOutcome> TomSystem::Query(
    const dbms::QueryRequest& request, AttackMode attack) {
  QueryEngine engine;  // no workers: the batch of one runs on this thread
  QueryEngine::TomBatch batch =
      engine.Run(this, {BatchQuery{request, attack}});
  return std::move(batch.outcomes[0]);
}

void TomSystem::CaptureStaleSnapshotLocked() {
  if (stale_captured_) return;
  auto snapshot = sp_.ExecuteRange(kMinKey, kMaxKey);
  if (!snapshot.ok()) return;
  stale_records_ = std::move(snapshot.value().results);
  stale_signature_ = owner_.signature();  // pre-update: not yet re-signed
  stale_epoch_ = owner_.epoch();
  stale_captured_ = true;
}

const TomServiceProvider* TomSystem::StaleSp() {
  if (!stale_captured_) return nullptr;
  std::call_once(stale_build_once_, [this] {
    auto sp = std::make_unique<TomServiceProvider>(
        TomServiceProvider::Options{options_.record_size, options_.scheme,
                                    options_.sp_index_pool_pages,
                                    options_.sp_heap_pool_pages,
                                    options_.mb_options,
                                    options_.sp_answer_cache});
    if (sp->LoadDataset(stale_records_, stale_signature_, stale_epoch_)
            .ok()) {
      stale_sp_ = std::move(sp);
    }
    stale_records_.clear();
    stale_records_.shrink_to_fit();
  });
  return stale_sp_.get();
}

Result<TomSystem::QueryOutcome> TomSystem::ExecuteQuery(
    const dbms::QueryRequest& request, AttackMode attack) {
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  uint64_t published = owner_.epoch();
  uint64_t seed = attack_seed_.fetch_add(1, std::memory_order_relaxed);

  QueryOutcome outcome;
  outcome.request = request;
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();

  std::shared_ptr<const CachedAnswer> served;
  const TomServiceProvider* stale = nullptr;
  if (attack == AttackMode::kReplayStaleRoot ||
      attack == AttackMode::kStaleCacheReplay) {
    // Full replay: stale results + stale VO + the stale epoch-stamped
    // signature — internally consistent, cryptographically valid for its
    // own epoch. Only the freshness gate can reject it. The cache-replay
    // variant serves the second of two identical calls, so the replayed
    // bytes come straight out of a cache entry keyed to the old epoch.
    stale = StaleSp();
    const TomServiceProvider& source = stale != nullptr ? *stale : sp_;
    if (attack == AttackMode::kStaleCacheReplay) {
      SAE_RETURN_NOT_OK(source.ServeQuery(request).status());
    }
    SAE_ASSIGN_OR_RETURN(served, source.ServeQuery(request));
  } else if (attack == AttackMode::kPoisonedCache) {
    // The SP poisons its own cache: tampered witness bytes ship with the
    // honest VO (the VO disproves them) and persist in the cache for later
    // honest queries until a signature install flushes it.
    SAE_ASSIGN_OR_RETURN(served, sp_.ServePoisonedQuery(request, seed));
  } else {
    SAE_ASSIGN_OR_RETURN(served, sp_.ServeQuery(request));
  }
  if (attack != AttackMode::kNone) {
    // Only an attacking SP decodes what it served, tampers and re-encodes.
    SAE_ASSIGN_OR_RETURN(QueryAnswerMessage plan,
                         DeserializeQueryAnswer(served->answer_msg, codec_));
    SAE_ASSIGN_OR_RETURN(
        mbtree::VerificationObject vo,
        mbtree::VerificationObject::Deserialize(served->proof_msg));
    if (attack == AttackMode::kReplayStaleRoot ||
        attack == AttackMode::kStaleCacheReplay) {
      vo.epoch = StaleClaim(stale != nullptr, stale_epoch_, published);
    } else if (attack == AttackMode::kStaleVt) {
      // Stale authentication against the current result: the SP presents
      // an old epoch's signature (TOM's analog of a replayed TE token).
      vo.epoch = StaleClaim(stale_captured_, stale_epoch_, published);
      if (stale_captured_) vo.signature = stale_signature_;
    }
    // Record attacks tamper the witness (and the answer re-derives from
    // the tampered set — a consistent lie the VO catches); answer attacks
    // leave the witness honest and falsify only the derived answer.
    std::vector<Record> witness =
        ApplyAttack(std::move(plan.witness), attack, codec_, seed);
    dbms::QueryAnswer answer = IsRecordAttack(attack)
                                   ? dbms::EvaluateAnswer(request, witness)
                                   : std::move(plan.answer);
    ApplyAnswerAttack(&answer, attack, seed);
    served = std::make_shared<const CachedAnswer>(CachedAnswer{
        SerializeQueryAnswer(answer, witness, vo.epoch, codec_),
        vo.Serialize()});
  }
  // The honest SP hands its served buffers to the channel and the client
  // as they are: one encode per answer, none at all on a cache hit.
  const std::vector<uint8_t>& result_msg = served->answer_msg;
  const std::vector<uint8_t>& vo_msg = served->proof_msg;
  sim::Channel::Session session = sp_client_.OpenSession();
  session.Send(result_msg);
  outcome.costs.result_bytes = session.bytes();
  session.Send(vo_msg);
  outcome.costs.auth_bytes = session.bytes() - outcome.costs.result_bytes;
  outcome.costs.sp_index_accesses =
      (sp_.index_pool_thread_stats() - sp_index0).accesses;
  outcome.costs.sp_heap_accesses =
      (sp_.heap_pool_thread_stats() - sp_heap0).accesses;

  SAE_ASSIGN_OR_RETURN(QueryAnswerMessage received,
                       DeserializeQueryAnswer(result_msg, codec_));
  outcome.answer = std::move(received.answer);
  outcome.results = std::move(received.witness);
  SAE_ASSIGN_OR_RETURN(outcome.vo,
                       mbtree::VerificationObject::Deserialize(vo_msg));
  sim::Stopwatch watch;
  outcome.verification = client_memo_.VerifyAnswer(
      request, outcome.answer, outcome.results, outcome.vo, vo_msg,
      owner_.public_key(), codec_, options_.scheme, published);
  outcome.costs.client_verify_ms = watch.ElapsedMs();
  return outcome;
}

}  // namespace sae::core
