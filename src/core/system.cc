// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the end-to-end SaeSystem and TomSystem harnesses
// (core/system.h): the shared-mutex reader-writer discipline, the
// epoch-versioned update pipeline, and the freshness adversaries
// (kReplayStaleRoot / kStaleVt) that answer from pre-update snapshots.

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
    : options_(options),
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
  if (options_.durability.enabled) {
    SAE_ASSIGN_OR_RETURN(durability_,
                         DurabilityManager::Open(options_.durability));
    // The epoch-1 baseline: until this snapshot is durable, a crash means
    // re-outsourcing from the DO's master copy (Recover -> kNotFound).
    SAE_RETURN_NOT_OK(WriteSnapshotLocked());
  }
  return Status::OK();
}

Status SaeSystem::LoadLocked(const std::vector<Record>& records) {
  SAE_RETURN_NOT_OK(owner_.SetDataset(records));
  SAE_RETURN_NOT_OK(owner_.Outsource(&sp_, &te_, &do_sp_, &do_te_));
  published_epoch_.store(owner_.epoch(), std::memory_order_release);
  return Status::OK();
}

Status SaeSystem::WriteSnapshotLocked() {
  SnapshotState state;
  state.model = SnapshotState::kSae;
  state.record_size = uint32_t(options_.record_size);
  state.scheme = options_.scheme;
  state.records = owner_.SortedDataset();
  return durability_->WriteSnapshot(owner_.epoch(), state);
}

Status SaeSystem::CheckpointLocked() {
  if (durability_->NextCheckpointIsFull()) {
    SnapshotState state;
    state.model = SnapshotState::kSae;
    state.record_size = uint32_t(options_.record_size);
    state.scheme = options_.scheme;
    state.records = owner_.SortedDataset();
    return durability_->CheckpointFull(owner_.epoch(), std::move(state));
  }
  // O(changes): the pending set accumulated at stage time IS the delta.
  return durability_->CheckpointDelta(owner_.epoch(), {});
}

bool SaeSystem::EffectiveHasRecord(RecordId id) const {
  auto it = staged_presence_.find(id);
  if (it != staged_presence_.end()) return it->second.first;
  return owner_.HasRecord(id);
}

Result<std::unique_ptr<SaeSystem>> SaeSystem::Recover(const Options& options) {
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<DurabilityManager> mgr,
                       DurabilityManager::Open(options.durability));
  const DurabilityManager::Recovered& rec = mgr->recovered();
  if (!rec.has_snapshot) {
    return Status::NotFound("no durable snapshot to recover from");
  }
  if (rec.snapshot.model != SnapshotState::kSae) {
    return Status::Corruption("snapshot belongs to a different model");
  }
  if (rec.snapshot.record_size != options.record_size ||
      rec.snapshot.scheme != options.scheme) {
    return Status::Corruption("snapshot configuration does not match options");
  }

  auto system = std::unique_ptr<SaeSystem>(new SaeSystem(options));
  std::unique_lock<std::shared_mutex> lock(system->rw_mu_);
  SAE_RETURN_NOT_OK(system->LoadLocked(rec.snapshot.records));
  system->owner_.RestoreEpoch(rec.snapshot_epoch, &system->sp_,
                              &system->te_);
  // Replay the WAL tail through the normal owner paths. Records at or
  // below the snapshot epoch are already inside it (a crash can land
  // between the snapshot rename and the WAL reset); later records must
  // chain epoch-contiguously out of the snapshot.
  for (const WalUpdate& update : rec.wal_tail) {
    if (update.epoch <= rec.snapshot_epoch) continue;
    if (update.epoch != system->owner_.epoch() + 1) {
      return Status::Corruption("wal epoch does not follow recovered state");
    }
    Status applied =
        update.op == WalUpdate::kInsert
            ? system->owner_.InsertRecord(update.record, &system->sp_,
                                          &system->te_, &system->do_sp_,
                                          &system->do_te_)
            : system->owner_.DeleteRecord(update.id, &system->sp_,
                                          &system->te_, &system->do_sp_,
                                          &system->do_te_);
    if (!applied.ok()) {
      return Status::Corruption("wal replay failed: " + applied.message());
    }
  }
  system->published_epoch_.store(system->owner_.epoch(),
                                 std::memory_order_release);
  system->durability_ = std::move(mgr);
  return system;
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

template <typename Validate, typename Fn>
Result<uint64_t> SaeSystem::RunUpdate(uint64_t* op_counter,
                                      WalUpdate wal_update,
                                      Validate&& validate, Fn&& apply) {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  // Adversary staging (a one-time O(n) scan on the first update ever)
  // happens before the stopwatch so the reported update latency measures
  // the pipeline, not the test harness's replay snapshot.
  CaptureStaleSnapshotLocked();
  sim::Stopwatch watch;
  const bool group =
      durability_ != nullptr && durability_->options().wal_group_commit;
  auto fail = [&](Status st) -> Result<uint64_t> {
    ++update_stats_.failed;
    update_stats_.latency_ms += watch.ElapsedMs();
    return st;
  };
  // Write-ahead ordering: validate first — against the owner state PLUS
  // everything staged ahead of us, so the WAL never records an update its
  // apply would reject — then make the record durable, and only then
  // mutate memory. A synced record still precedes every in-memory apply
  // it covers.
  Status st = validate();
  if (!st.ok()) return fail(st);
  uint64_t my_epoch = 0;
  uint64_t seq = 0;
  RecordId staged_id = 0;
  if (durability_ != nullptr) {
    if (wal_dead_) {
      return fail(Status::IoError("durable write pipeline failed"));
    }
    my_epoch = std::max(staged_epoch_, owner_.epoch()) + 1;
    wal_update.epoch = my_epoch;
    staged_id = wal_update.op == WalUpdate::kInsert ? wal_update.record.id
                                                    : wal_update.id;
    auto staged = durability_->StageUpdate(wal_update);
    if (!staged.ok()) return fail(staged.status());
    seq = staged.value();
    staged_epoch_ = my_epoch;
    if (group) {
      staged_presence_[staged_id] = {wal_update.op == WalUpdate::kInsert,
                                     my_epoch};
      const uint64_t my_gen = wal_generation_;
      // Commit OUTSIDE the lock so concurrent committers share one fsync,
      // then re-enter and wait for our turn: applies happen in staged
      // epoch order, exactly as if the pipeline were sequential.
      lock.unlock();
      Status synced = durability_->CommitStaged(seq);
      lock.lock();
      if (synced.ok() && !wal_dead_ && wal_generation_ == my_gen) {
        apply_cv_.wait(lock, [&] {
          return wal_dead_ || wal_generation_ != my_gen ||
                 owner_.epoch() + 1 == my_epoch;
        });
      }
      if (wal_generation_ != my_gen && !wal_dead_) {
        // A failure below us in the pipeline durably retracted the whole
        // staged suffix — this record included — and re-armed. Our update
        // simply failed; recovery will never replay it.
        return fail(Status::IoError(
            "update retracted: a group-commit neighbor failed"));
      }
      if (!synced.ok() || wal_dead_) {
        // A failed group fsync (or a failure upstream in the pipeline)
        // means epochs staged after the failure can never publish. Retract
        // the whole unapplied suffix durably — a neighboring leader's
        // retried fsync may have synced our record even though our own
        // commit failed, so a volatile-looking record can still resurrect
        // — then re-arm the pipeline for new updates. Only if the
        // retraction itself cannot be made durable is the pipeline
        // poisoned: the suffix's post-crash outcome is unknown.
        if (!wal_dead_ &&
            durability_->RetractStagedFrom(owner_.epoch() + 1).ok()) {
          staged_epoch_ = owner_.epoch();
          staged_presence_.clear();
          ++wal_generation_;
        } else {
          wal_dead_ = true;
        }
        apply_cv_.notify_all();
        return fail(synced.ok()
                        ? Status::IoError("durable write pipeline failed")
                        : synced);
      }
    } else {
      st = durability_->CommitStaged(seq);
      if (!st.ok()) {
        // Single-record commit: nothing was synced on top of us, so a
        // plain stage undo retracts the record; fall back to a durable
        // abort marker, and fail stop only if both fail — then the
        // record's post-crash outcome is unknown.
        if (durability_->UndoFailedUpdate().ok() ||
            durability_->RetractStagedFrom(my_epoch).ok()) {
          staged_epoch_ = my_epoch - 1;
        } else {
          wal_dead_ = true;
        }
        return fail(st);
      }
    }
  }
  // Channels carry shipment + epoch notice; the applying update holds the
  // unique lock, so the delta is exactly this update's traffic.
  uint64_t sp_bytes0 = do_sp_.total_bytes();
  uint64_t te_bytes0 = do_te_.total_bytes();
  st = apply();
  size_t traffic = (do_sp_.total_bytes() - sp_bytes0) +
                   (do_te_.total_bytes() - te_bytes0);
  size_t notice_bytes = st.ok() ? 2 * SerializeEpochNotice(0).size() : 0;
  update_stats_.shipment_bytes += traffic - notice_bytes;
  update_stats_.auth_bytes += notice_bytes;
  update_stats_.latency_ms += watch.ElapsedMs();
  if (!st.ok()) {
    if (durability_ != nullptr) {
      bool retracted = false;
      if (staged_epoch_ == my_epoch) {
        // Ours is the newest staged record: retract it — the log and the
        // pending delta must not claim an update that did not happen. The
        // record may already be durable (group fsync), and recovery's
        // contiguity check would replay it — it only cuts epoch GAPS —
        // so prefer the physical stage undo (leaves the log byte-identical
        // to a never-staged history) and fall back to a durable abort
        // marker.
        retracted = durability_->UndoFailedUpdate().ok() ||
                    durability_->RetractStagedFrom(my_epoch).ok();
        if (retracted) {
          staged_epoch_ = my_epoch - 1;
          auto it = staged_presence_.find(staged_id);
          if (it != staged_presence_.end() && it->second.second == my_epoch) {
            staged_presence_.erase(it);
          }
        }
      } else {
        // Later updates already staged (and validated) on top of our
        // durable record; none of them can ever publish. Durably retract
        // the whole suffix and re-arm: waiters from this generation fail
        // without applying, new updates restage from the owner epoch.
        retracted = durability_->RetractStagedFrom(my_epoch).ok();
        if (retracted) {
          staged_epoch_ = my_epoch - 1;
          staged_presence_.clear();
          ++wal_generation_;
        }
      }
      if (!retracted) {
        // The failed update's durable record cannot be retracted: its
        // post-crash outcome is unknown. Fail stop so no later update
        // stacks onto an epoch that may or may not replay.
        wal_dead_ = true;
      }
      apply_cv_.notify_all();
    }
    ++update_stats_.failed;
    return st;
  }
  if (group) {
    auto it = staged_presence_.find(staged_id);
    if (it != staged_presence_.end() && it->second.second == my_epoch) {
      staged_presence_.erase(it);
    }
  }
  ++*op_counter;
  published_epoch_.store(owner_.epoch(), std::memory_order_release);
  if (durability_ != nullptr) apply_cv_.notify_all();
  if (durability_ != nullptr && durability_->ShouldSnapshot() &&
      staged_epoch_ == owner_.epoch()) {
    // Checkpoint only at a quiescent point (nothing staged-but-unapplied):
    // the WAL rotation inside the capture is then barrier-free and the
    // pending set is exactly the state delta. The cadence counter stays
    // due until the last committer of a burst lands here. The update
    // itself is already durable; a failing checkpoint still surfaces.
    SAE_RETURN_NOT_OK(CheckpointLocked());
  }
  return owner_.epoch();
}

Result<uint64_t> SaeSystem::InsertVersioned(const Record& record) {
  WalUpdate wal_update;
  wal_update.op = WalUpdate::kInsert;
  wal_update.record = record;
  return RunUpdate(
      &update_stats_.inserts, std::move(wal_update),
      [&] {
        return EffectiveHasRecord(record.id)
                   ? Status::AlreadyExists("record id already present")
                   : Status::OK();
      },
      [&] { return owner_.InsertRecord(record, &sp_, &te_, &do_sp_, &do_te_); });
}

Result<uint64_t> SaeSystem::DeleteVersioned(RecordId id) {
  WalUpdate wal_update;
  wal_update.op = WalUpdate::kDelete;
  wal_update.id = id;
  return RunUpdate(
      &update_stats_.deletes, std::move(wal_update),
      [&] {
        return EffectiveHasRecord(id)
                   ? Status::OK()
                   : Status::NotFound("no record with this id");
      },
      [&] { return owner_.DeleteRecord(id, &sp_, &te_, &do_sp_, &do_te_); });
}

UpdateStats SaeSystem::update_stats() const {
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  return update_stats_;
}

// --- TomSystem ---------------------------------------------------------------

TomSystem::TomSystem(const Options& options)
    : options_(options),
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
  if (options_.durability.enabled) {
    SAE_ASSIGN_OR_RETURN(durability_,
                         DurabilityManager::Open(options_.durability));
    SAE_RETURN_NOT_OK(WriteSnapshotLocked());  // the epoch-1 baseline
  }
  return Status::OK();
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
  SAE_RETURN_NOT_OK(
      sp_.LoadDataset(sorted, owner_.signature(), owner_.epoch()));
  published_epoch_.store(owner_.epoch(), std::memory_order_release);
  return Status::OK();
}

Status TomSystem::WriteSnapshotLocked() {
  SnapshotState state;
  state.model = SnapshotState::kTom;
  state.record_size = uint32_t(options_.record_size);
  state.scheme = options_.scheme;
  SAE_ASSIGN_OR_RETURN(TomServiceProvider::QueryResponse range,
                       sp_.ExecuteRange(std::numeric_limits<Key>::min(),
                                        std::numeric_limits<Key>::max()));
  state.records = std::move(range.results);
  state.signature = owner_.signature();
  return durability_->WriteSnapshot(owner_.epoch(), state);
}

Status TomSystem::CheckpointLocked() {
  if (durability_->NextCheckpointIsFull()) {
    SnapshotState state;
    state.model = SnapshotState::kTom;
    state.record_size = uint32_t(options_.record_size);
    state.scheme = options_.scheme;
    SAE_ASSIGN_OR_RETURN(TomServiceProvider::QueryResponse range,
                         sp_.ExecuteRange(std::numeric_limits<Key>::min(),
                                          std::numeric_limits<Key>::max()));
    state.records = std::move(range.results);
    state.signature = owner_.signature();
    return durability_->CheckpointFull(owner_.epoch(), std::move(state));
  }
  // O(changes); the delta carries the root signature AT this epoch, so the
  // composed chain stays byte-provable at recovery.
  return durability_->CheckpointDelta(owner_.epoch(), owner_.signature());
}

bool TomSystem::EffectiveHasRecord(RecordId id) const {
  auto it = staged_presence_.find(id);
  if (it != staged_presence_.end()) return it->second.first;
  return owner_.HasRecord(id);
}

Result<std::unique_ptr<TomSystem>> TomSystem::Recover(const Options& options) {
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<DurabilityManager> mgr,
                       DurabilityManager::Open(options.durability));
  const DurabilityManager::Recovered& rec = mgr->recovered();
  if (!rec.has_snapshot) {
    return Status::NotFound("no durable snapshot to recover from");
  }
  if (rec.snapshot.model != SnapshotState::kTom) {
    return Status::Corruption("snapshot belongs to a different model");
  }
  if (rec.snapshot.record_size != options.record_size ||
      rec.snapshot.scheme != options.scheme) {
    return Status::Corruption("snapshot configuration does not match options");
  }

  auto system = std::unique_ptr<TomSystem>(new TomSystem(options));
  std::unique_lock<std::shared_mutex> lock(system->rw_mu_);
  SAE_RETURN_NOT_OK(system->LoadLocked(rec.snapshot.records, /*ship=*/false));
  SAE_RETURN_NOT_OK(system->owner_.RestoreEpoch(rec.snapshot_epoch));
  // The re-signed recovered root must byte-match the persisted signature:
  // this proves the rebuilt ADS is identical to the checkpointed one
  // before any client sees it.
  if (system->owner_.signature() != rec.snapshot.signature) {
    return Status::Corruption(
        "recovered root signature does not match the snapshot");
  }
  system->sp_.SetSignature(system->owner_.signature(),
                           system->owner_.epoch());
  for (const WalUpdate& update : rec.wal_tail) {
    if (update.epoch <= rec.snapshot_epoch) continue;
    if (update.epoch != system->owner_.epoch() + 1) {
      return Status::Corruption("wal epoch does not follow recovered state");
    }
    Status applied;
    if (update.op == WalUpdate::kInsert) {
      applied = system->owner_.InsertRecord(update.record);
      if (applied.ok()) {
        applied = system->sp_.ApplyInsert(update.record,
                                          system->owner_.signature(),
                                          system->owner_.epoch());
      }
    } else {
      applied = system->owner_.DeleteRecord(update.id);
      if (applied.ok()) {
        applied = system->sp_.ApplyDelete(update.id,
                                          system->owner_.signature(),
                                          system->owner_.epoch());
      }
    }
    if (!applied.ok()) {
      return Status::Corruption("wal replay failed: " + applied.message());
    }
  }
  system->published_epoch_.store(system->owner_.epoch(),
                                 std::memory_order_release);
  system->durability_ = std::move(mgr);
  return system;
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

template <typename Validate, typename Fn>
Result<uint64_t> TomSystem::RunUpdate(uint64_t* op_counter,
                                      WalUpdate wal_update,
                                      Validate&& validate, Fn&& apply) {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  CaptureStaleSnapshotLocked();  // off the clock, see SaeSystem::RunUpdate
  sim::Stopwatch watch;
  const bool group =
      durability_ != nullptr && durability_->options().wal_group_commit;
  auto fail = [&](Status st) -> Result<uint64_t> {
    ++update_stats_.failed;
    update_stats_.latency_ms += watch.ElapsedMs();
    return st;
  };
  // Write-ahead ordering, as in SaeSystem::RunUpdate: validate (against
  // owner state + staged-ahead changes), make durable, apply in epoch
  // order.
  Status st = validate();
  if (!st.ok()) return fail(st);
  uint64_t my_epoch = 0;
  uint64_t seq = 0;
  RecordId staged_id = 0;
  if (durability_ != nullptr) {
    if (wal_dead_) {
      return fail(Status::IoError("durable write pipeline failed"));
    }
    my_epoch = std::max(staged_epoch_, owner_.epoch()) + 1;
    wal_update.epoch = my_epoch;
    staged_id = wal_update.op == WalUpdate::kInsert ? wal_update.record.id
                                                    : wal_update.id;
    auto staged = durability_->StageUpdate(wal_update);
    if (!staged.ok()) return fail(staged.status());
    seq = staged.value();
    staged_epoch_ = my_epoch;
    if (group) {
      staged_presence_[staged_id] = {wal_update.op == WalUpdate::kInsert,
                                     my_epoch};
      const uint64_t my_gen = wal_generation_;
      lock.unlock();
      Status synced = durability_->CommitStaged(seq);
      lock.lock();
      if (synced.ok() && !wal_dead_ && wal_generation_ == my_gen) {
        apply_cv_.wait(lock, [&] {
          return wal_dead_ || wal_generation_ != my_gen ||
                 owner_.epoch() + 1 == my_epoch;
        });
      }
      if (wal_generation_ != my_gen && !wal_dead_) {
        // Retracted by a failure below us; see SaeSystem::RunUpdate.
        return fail(Status::IoError(
            "update retracted: a group-commit neighbor failed"));
      }
      if (!synced.ok() || wal_dead_) {
        // Retract the unapplied suffix and re-arm; poison only if the
        // retraction cannot be made durable. See SaeSystem::RunUpdate.
        if (!wal_dead_ &&
            durability_->RetractStagedFrom(owner_.epoch() + 1).ok()) {
          staged_epoch_ = owner_.epoch();
          staged_presence_.clear();
          ++wal_generation_;
        } else {
          wal_dead_ = true;
        }
        apply_cv_.notify_all();
        return fail(synced.ok()
                        ? Status::IoError("durable write pipeline failed")
                        : synced);
      }
    } else {
      st = durability_->CommitStaged(seq);
      if (!st.ok()) {
        // Undo (or durably abort) the unsynced record so it cannot
        // resurrect; fail stop only if both fail. See SaeSystem.
        if (durability_->UndoFailedUpdate().ok() ||
            durability_->RetractStagedFrom(my_epoch).ok()) {
          staged_epoch_ = my_epoch - 1;
        } else {
          wal_dead_ = true;
        }
        return fail(st);
      }
    }
  }
  uint64_t bytes0 = do_sp_.total_bytes();
  size_t auth_bytes = 0;
  st = apply(&auth_bytes);
  size_t traffic = do_sp_.total_bytes() - bytes0;
  update_stats_.shipment_bytes += traffic - auth_bytes;
  update_stats_.auth_bytes += auth_bytes;
  update_stats_.latency_ms += watch.ElapsedMs();
  if (!st.ok()) {
    if (durability_ != nullptr) {
      // Retract the failed (possibly durable) record — or the whole
      // staged suffix when later updates stacked on top — and re-arm;
      // fail stop only when no retraction can be made durable. See
      // SaeSystem::RunUpdate for the full reasoning.
      bool retracted = false;
      if (staged_epoch_ == my_epoch) {
        retracted = durability_->UndoFailedUpdate().ok() ||
                    durability_->RetractStagedFrom(my_epoch).ok();
        if (retracted) {
          staged_epoch_ = my_epoch - 1;
          auto it = staged_presence_.find(staged_id);
          if (it != staged_presence_.end() && it->second.second == my_epoch) {
            staged_presence_.erase(it);
          }
        }
      } else {
        retracted = durability_->RetractStagedFrom(my_epoch).ok();
        if (retracted) {
          staged_epoch_ = my_epoch - 1;
          staged_presence_.clear();
          ++wal_generation_;
        }
      }
      if (!retracted) wal_dead_ = true;
      apply_cv_.notify_all();
    }
    ++update_stats_.failed;
    return st;
  }
  if (group) {
    auto it = staged_presence_.find(staged_id);
    if (it != staged_presence_.end() && it->second.second == my_epoch) {
      staged_presence_.erase(it);
    }
  }
  ++*op_counter;
  published_epoch_.store(owner_.epoch(), std::memory_order_release);
  if (durability_ != nullptr) apply_cv_.notify_all();
  if (durability_ != nullptr && durability_->ShouldSnapshot() &&
      staged_epoch_ == owner_.epoch()) {
    SAE_RETURN_NOT_OK(CheckpointLocked());  // quiescent, see SaeSystem
  }
  return owner_.epoch();
}

Result<uint64_t> TomSystem::InsertVersioned(const Record& record) {
  WalUpdate wal_update;
  wal_update.op = WalUpdate::kInsert;
  wal_update.record = record;
  return RunUpdate(
      &update_stats_.inserts, std::move(wal_update),
      [&] {
        return EffectiveHasRecord(record.id)
                   ? Status::AlreadyExists("record id already present")
                   : Status::OK();
      },
      [&](size_t* auth_bytes) {
        SAE_RETURN_NOT_OK(owner_.InsertRecord(record));
        std::vector<uint8_t> shipment = SerializeRecords({record}, codec_);
        std::vector<uint8_t> sig_msg =
            SerializeSignature(owner_.signature(), owner_.epoch());
        *auth_bytes = sig_msg.size();
        do_sp_.Send(shipment);
        do_sp_.Send(sig_msg);
        return sp_.ApplyInsert(record, owner_.signature(), owner_.epoch());
      });
}

Result<uint64_t> TomSystem::DeleteVersioned(RecordId id) {
  WalUpdate wal_update;
  wal_update.op = WalUpdate::kDelete;
  wal_update.id = id;
  return RunUpdate(
      &update_stats_.deletes, std::move(wal_update),
      [&] {
        return EffectiveHasRecord(id)
                   ? Status::OK()
                   : Status::NotFound("no record with this id");
      },
      [&](size_t* auth_bytes) {
        SAE_RETURN_NOT_OK(owner_.DeleteRecord(id));
        std::vector<uint8_t> note = SerializeDelete(id, 0);
        std::vector<uint8_t> sig_msg =
            SerializeSignature(owner_.signature(), owner_.epoch());
        *auth_bytes = sig_msg.size();
        do_sp_.Send(note);
        do_sp_.Send(sig_msg);
        return sp_.ApplyDelete(id, owner_.signature(), owner_.epoch());
      });
}

UpdateStats TomSystem::update_stats() const {
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  return update_stats_;
}

}  // namespace sae::core
