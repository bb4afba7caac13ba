// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the end-to-end SaeSystem and TomSystem harnesses
// (core/system.h): the verified query path under the reader lock and each
// model's hook into the shared update pipeline.

#include "core/system.h"

#include <algorithm>
#include <limits>

#include "core/messages.h"
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

Result<SaeSystem::QueryOutcome> SaeSystem::ExecuteQuery(
    const dbms::QueryRequest& request, QueryTap* tap) {
  // Shared (reader) lock while the parties answer: the SP answer, the TE
  // token and the published epoch are read from one frozen snapshot. The
  // client check below depends only on those values, so it runs unlocked.
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  uint64_t published = owner_.epoch();

  QueryOutcome outcome;
  outcome.request = request;
  // Per-thread pool counters and per-query channel sessions keep the cost
  // attribution exact when many queries run concurrently.
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();
  storage::BufferPool::Stats te0 = te_.pool_thread_stats();

  // Client -> SP: the SP serves its encoded answer (a tap may stand in for
  // a compromised SP and replace it).
  SAE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnswer> served,
                       sp_.ServeQuery(request));
  if (tap != nullptr) {
    SAE_ASSIGN_OR_RETURN(served,
                         tap->OnAnswer(request, published, std::move(served)));
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
  // tap may replay an old token in its place).
  SAE_ASSIGN_OR_RETURN(VerificationToken vt, te_.GenerateVt(request));
  std::vector<uint8_t> vt_msg = SerializeVt(vt);
  if (tap != nullptr) {
    SAE_ASSIGN_OR_RETURN(vt_msg,
                         tap->OnToken(request, published, std::move(vt_msg)));
  }
  sim::Channel::Session te_session = te_client_.OpenSession();
  te_session.Send(vt_msg);
  outcome.costs.auth_bytes = te_session.bytes();
  outcome.costs.te_accesses = (te_.pool_thread_stats() - te0).accesses;
  lock.unlock();

  // Client: decode and verify — freshness gates, then the XOR check over
  // the witness, then the answer recomputation (Client::VerifyAnswer),
  // memoized on the served buffer.
  SAE_ASSIGN_OR_RETURN(outcome.vt, DeserializeVt(vt_msg));
  sim::Stopwatch watch;
  SAE_ASSIGN_OR_RETURN(
      VerifiedAnswer checked,
      client_memo_.VerifyAnswer(request, served, outcome.vt, published,
                                codec(), options_.scheme));
  outcome.costs.client_verify_ms = watch.ElapsedMs();
  outcome.verification = std::move(checked.verification);
  outcome.answer = std::move(checked.received.answer);
  outcome.results = std::move(checked.received.witness);
  outcome.claimed_epoch = checked.received.epoch;
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

Result<TomSystem::QueryOutcome> TomSystem::ExecuteQuery(
    const dbms::QueryRequest& request, QueryTap* tap) {
  // Reader lock while the SP answers; the client check runs unlocked (see
  // SaeSystem::ExecuteQuery).
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  uint64_t published = owner_.epoch();

  QueryOutcome outcome;
  outcome.request = request;
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();

  SAE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnswer> served,
                       sp_.ServeQuery(request));
  if (tap != nullptr) {
    SAE_ASSIGN_OR_RETURN(served,
                         tap->OnAnswer(request, published, std::move(served)));
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
  const crypto::RsaPublicKey owner_key = owner_.public_key();
  lock.unlock();

  sim::Stopwatch watch;
  SAE_ASSIGN_OR_RETURN(
      VerifiedAnswer checked,
      client_memo_.VerifyAnswer(request, served, owner_key, codec_,
                                options_.scheme, published));
  outcome.costs.client_verify_ms = watch.ElapsedMs();
  outcome.verification = std::move(checked.verification);
  outcome.vo = std::move(checked.vo);
  outcome.answer = std::move(checked.received.answer);
  outcome.results = std::move(checked.received.witness);
  return outcome;
}

}  // namespace sae::core
