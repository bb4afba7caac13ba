// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the end-to-end SaeSystem and TomSystem harnesses
// (core/system.h): the verified query path under the reader lock and each
// model's hook into the shared update pipeline.

#include "core/system.h"

#include "core/messages.h"
#include "sim/cost_model.h"
#include "util/macros.h"

namespace sae::core {

namespace {

TomServiceProvider::Options SpOptions(const TomSystemOptions& options) {
  TomServiceProvider::Options sp;
  sp.record_size = options.record_size;
  sp.index_pool_pages = options.sp_index_pool_pages;
  sp.heap_pool_pages = options.sp_heap_pool_pages;
  sp.answer_cache = options.sp_answer_cache;
  sp.scheme = options.scheme;
  sp.mb_options = options.mb_options;
  return sp;
}

}  // namespace

// --- SaeSystem ---------------------------------------------------------------

SaeSystem::SaeSystem(const Options& options)
    : UpdatePipeline({SnapshotState::kSae, uint32_t(options.record_size),
                      options.scheme, {}, {}, {}},
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
  SAE_RETURN_NOT_OK(CheckLoad(records));
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  // The owner ships the sorted dataset, and the baseline checkpoint is of
  // the same vector.
  std::vector<Record> copy;
  const std::vector<Record>& sorted = storage::SortedByKeyId(records, &copy);
  SAE_RETURN_NOT_OK(LoadLocked(sorted));
  return FinishLoad(sorted);
}

Status SaeSystem::LoadLocked(const std::vector<Record>& records) {
  return owner_.Outsource(records, &sp_, &te_, &do_sp_, &do_te_);
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
                      options.scheme, {}, {}, {}},
                     options.durability),
      options_(options),
      codec_(options.record_size),
      owner_(TomDataOwner::Options{options.record_size, options.scheme,
                                   options.rsa_modulus_bits,
                                   options.do_pool_pages,
                                   options.mb_options}),
      sp_(SpOptions(options)),
      client_memo_(options.client_memo) {}

Status TomSystem::Load(const std::vector<Record>& records) {
  SAE_RETURN_NOT_OK(CheckLoad(records));
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  std::vector<Record> copy;
  const std::vector<Record>& sorted = storage::SortedByKeyId(records, &copy);
  SAE_RETURN_NOT_OK(owner_.LoadDataset(sorted));
  do_sp_.SendBytes(RecordsMessageSize(sorted.size(), codec_));
  do_sp_.Send(SerializeSignature(owner_.signature(), owner_.epoch()));
  SAE_RETURN_NOT_OK(
      sp_.LoadDataset(sorted, owner_.signature(), owner_.epoch()));
  // A bulk load keeps `sorted` in leaf order: it is the baseline's dataset.
  return FinishLoad(sorted);
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
  // The tree's shape rides along with the signature in every checkpoint:
  // the same records bulk-loaded into any other shape would hash to a
  // different root.
  state->signature = owner_.signature();
  return sp_.table().Dump(with_records ? &state->records : nullptr,
                          &state->shape);
}

Status TomSystem::Restore(const SnapshotState& state, uint64_t epoch) {
  // Rebuild the owner's ADS in the checkpointed shape and re-sign it at the
  // snapshot epoch. The signature must byte-match the persisted one: this
  // proves the rebuilt ADS is the one the DO signed before any client sees
  // it. The SP's table is rebuilt from the same records and shape.
  SAE_RETURN_NOT_OK(owner_.Restore(state.records, state.shape, epoch));
  if (owner_.signature() != state.signature) {
    return Status::Corruption(
        "recovered root signature does not match the snapshot");
  }
  SAE_RETURN_NOT_OK(sp_.LoadDataset(state.records, state.shape));
  sp_.SetSignature(owner_.signature(), epoch);
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
