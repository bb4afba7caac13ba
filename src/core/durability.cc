// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the durability subsystem (core/durability.h): WAL-record,
// snapshot and delta codecs, the chain-composing open/recovery path, the
// stage/commit write path, and the background checkpoint pipeline.

#include "core/durability.h"

#include <algorithm>
#include <chrono>

#include "util/codec.h"

namespace sae::core {

namespace {

void PutRecord(ByteWriter* w, const Record& record) {
  w->PutU64(record.id);
  w->PutU32(record.key);
  w->PutU32(uint32_t(record.payload.size()));
  w->PutBytes(record.payload.data(), record.payload.size());
}

bool GetRecord(ByteReader* r, Record* out) {
  out->id = r->GetU64();
  out->key = r->GetU32();
  uint32_t len = r->GetU32();
  if (r->failed() || len > r->remaining()) return false;
  const uint8_t* bytes = r->Take(len);
  if (bytes == nullptr) return false;
  out->payload = storage::Payload(bytes, len);
  return true;
}

// The header both checkpoint payloads open with: model tag, record size,
// hash scheme.
template <typename State>
void PutHeader(ByteWriter* w, const State& state) {
  w->PutU8(state.model);
  w->PutU32(state.record_size);
  w->PutU8(uint8_t(state.scheme));
}

template <typename State>
Status GetHeader(ByteReader* r, const std::string& what, State* state) {
  state->model = r->GetU8();
  state->record_size = r->GetU32();
  uint8_t scheme = r->GetU8();
  if (state->model != SnapshotState::kSae &&
      state->model != SnapshotState::kTom) {
    return Status::Corruption(what + " has unknown model tag");
  }
  if (scheme > uint8_t(crypto::HashScheme::kSha256Trunc)) {
    return Status::Corruption(what + " has unknown hash scheme");
  }
  state->scheme = crypto::HashScheme(scheme);
  return Status::OK();
}

// The tail both checkpoint payloads close with: the length-prefixed TOM
// root signature (empty for SAE), then nothing.
void PutSignature(ByteWriter* w, const std::vector<uint8_t>& signature) {
  w->PutU32(uint32_t(signature.size()));
  w->PutBytes(signature.data(), signature.size());
}

Status GetSignature(ByteReader* r, const std::string& what,
                    std::vector<uint8_t>* signature) {
  uint32_t sig_len = r->GetU32();
  if (r->failed() || sig_len > r->remaining()) {
    return Status::Corruption(what + " signature does not decode");
  }
  signature->resize(sig_len);
  if (sig_len > 0 && !r->GetBytes(signature->data(), sig_len)) {
    return Status::Corruption(what + " signature does not decode");
  }
  if (r->remaining() != 0) {
    return Status::Corruption(what + " payload has trailing bytes");
  }
  return Status::OK();
}

std::vector<Record> SortedByKey(std::map<RecordId, Record> by_id) {
  std::vector<Record> records;
  records.reserve(by_id.size());
  for (auto& [id, record] : by_id) records.push_back(std::move(record));
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.key != b.key ? a.key < b.key : a.id < b.id;
            });
  return records;
}

}  // namespace

std::vector<uint8_t> EncodeWalUpdate(const WalUpdate& update) {
  ByteWriter w;
  w.PutU8(update.op);
  w.PutU64(update.epoch);
  if (update.op == WalUpdate::kInsert) {
    PutRecord(&w, update.record);
  } else if (update.op == WalUpdate::kDelete) {
    w.PutU64(update.id);
  }  // kAbort carries op + epoch only
  return w.Release();
}

Result<WalUpdate> DecodeWalUpdate(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  WalUpdate update;
  update.op = r.GetU8();
  update.epoch = r.GetU64();
  if (update.op == WalUpdate::kInsert) {
    if (!GetRecord(&r, &update.record)) {
      return Status::Corruption("wal insert record does not decode");
    }
  } else if (update.op == WalUpdate::kDelete) {
    update.id = r.GetU64();
  } else if (update.op != WalUpdate::kAbort) {
    return Status::Corruption("wal record has unknown op");
  }
  if (r.failed() || r.remaining() != 0 || update.epoch == 0) {
    return Status::Corruption("wal record does not decode");
  }
  return update;
}

std::vector<uint8_t> EncodeSnapshotState(const SnapshotState& state) {
  ByteWriter w;
  PutHeader(&w, state);
  w.PutU32(uint32_t(state.records.size()));
  for (const Record& record : state.records) PutRecord(&w, record);
  PutSignature(&w, state.signature);
  return w.Release();
}

Result<SnapshotState> DecodeSnapshotState(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  SnapshotState state;
  SAE_RETURN_NOT_OK(GetHeader(&r, "snapshot", &state));
  uint32_t count = r.GetU32();
  state.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Record record;
    if (!GetRecord(&r, &record)) {
      return Status::Corruption("snapshot record does not decode");
    }
    state.records.push_back(std::move(record));
  }
  SAE_RETURN_NOT_OK(GetSignature(&r, "snapshot", &state.signature));
  return state;
}

std::vector<uint8_t> EncodeDeltaState(const DeltaState& state) {
  ByteWriter w;
  PutHeader(&w, state);
  w.PutU32(uint32_t(state.upserts.size()));
  for (const Record& record : state.upserts) PutRecord(&w, record);
  w.PutU32(uint32_t(state.removes.size()));
  for (RecordId id : state.removes) w.PutU64(id);
  PutSignature(&w, state.signature);
  return w.Release();
}

Result<DeltaState> DecodeDeltaState(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  DeltaState state;
  SAE_RETURN_NOT_OK(GetHeader(&r, "delta", &state));
  uint32_t upserts = r.GetU32();
  state.upserts.reserve(upserts);
  for (uint32_t i = 0; i < upserts; ++i) {
    Record record;
    if (!GetRecord(&r, &record)) {
      return Status::Corruption("delta upsert record does not decode");
    }
    state.upserts.push_back(std::move(record));
  }
  uint32_t removes = r.GetU32();
  if (r.failed() || uint64_t(removes) * 8 > r.remaining()) {
    return Status::Corruption("delta remove list does not decode");
  }
  state.removes.reserve(removes);
  for (uint32_t i = 0; i < removes; ++i) state.removes.push_back(r.GetU64());
  SAE_RETURN_NOT_OK(GetSignature(&r, "delta", &state.signature));
  return state;
}

DurabilityManager::DurabilityManager(const DurabilityOptions& options,
                                     storage::Vfs* vfs)
    : options_(options),
      vfs_(vfs),
      snapshots_(vfs, options.dir, options.keep_snapshots) {}

DurabilityManager::~DurabilityManager() {
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_stop_ = true;
    ckpt_cv_.notify_all();
  }
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityOptions& options) {
  if (!options.enabled || options.dir.empty()) {
    return Status::InvalidArgument("durability needs enabled=true and a dir");
  }
  storage::Vfs* vfs =
      options.vfs != nullptr ? options.vfs : storage::Vfs::Default();
  SAE_RETURN_NOT_OK(vfs->MkDir(options.dir));
  auto mgr = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, vfs));

  // Compose the newest intact chain: the base full snapshot, then every
  // delta that validly links onto it. Each link's removes-then-upserts
  // replays the net changes of its checkpoint window; the tail's signature
  // speaks for the composed state.
  auto chain = mgr->snapshots_.LoadChain();
  if (chain.ok()) {
    SAE_ASSIGN_OR_RETURN(SnapshotState base,
                         DecodeSnapshotState(chain.value().base_payload));
    std::map<RecordId, Record> by_id;
    for (Record& record : base.records) {
      RecordId id = record.id;
      by_id[id] = std::move(record);
    }
    uint64_t tail_epoch = chain.value().base_epoch;
    std::vector<uint8_t> signature = std::move(base.signature);
    for (storage::SnapshotStore::ChainLink& link : chain.value().deltas) {
      SAE_ASSIGN_OR_RETURN(DeltaState delta, DecodeDeltaState(link.payload));
      if (delta.model != base.model ||
          delta.record_size != base.record_size ||
          delta.scheme != base.scheme) {
        return Status::Corruption(
            "delta configuration does not match its chain base");
      }
      for (RecordId id : delta.removes) by_id.erase(id);
      for (Record& record : delta.upserts) {
        RecordId id = record.id;
        by_id[id] = std::move(record);
      }
      signature = std::move(delta.signature);
      tail_epoch = link.epoch;
    }
    SnapshotState composed;
    composed.model = base.model;
    composed.record_size = base.record_size;
    composed.scheme = base.scheme;
    composed.records = SortedByKey(std::move(by_id));
    composed.signature = std::move(signature);
    mgr->recovered_.has_snapshot = true;
    mgr->recovered_.snapshot_epoch = tail_epoch;
    mgr->recovered_.snapshot_fell_back = chain.value().fell_back;
    mgr->recovered_.chain_deltas = chain.value().deltas.size();
    mgr->recovered_.snapshot = std::move(composed);
    mgr->have_chain_ = true;
    mgr->chain_tail_epoch_ = tail_epoch;
    mgr->chain_length_ = chain.value().deltas.size();
  } else if (chain.status().code() != StatusCode::kNotFound) {
    return chain.status();
  }

  // Open the WAL: the checksum scan already cut any torn tail; a crc-valid
  // record that fails to DECODE also ends the replayable prefix (it cannot
  // have been written by the stage path), and so does a record whose epoch
  // neither precedes the composed chain tail (redundant, skipped by the
  // system) nor chains contiguously out of it (an orphan of a newer chain
  // this recovery fell back behind) — truncate there, never crash on
  // garbage, never replay past it.
  storage::WalContents contents;
  SAE_ASSIGN_OR_RETURN(mgr->wal_, storage::WriteAheadLog::Open(
                                      vfs, options.dir, &contents));
  mgr->recovered_.wal_truncated = contents.torn_tail;
  size_t keep = 0;
  bool cut = false;
  uint64_t expected = mgr->recovered_.snapshot_epoch + 1;
  for (const std::vector<uint8_t>& payload : contents.records) {
    auto update = DecodeWalUpdate(payload);
    if (!update.ok()) {
      cut = true;
      break;
    }
    if (update.value().op == WalUpdate::kAbort) {
      // A durable retraction: every record logged before it with epoch >=
      // the abort's epoch was acknowledged as FAILED. Those records form a
      // suffix of the tail (staged epochs only grow between aborts) — drop
      // them, and rewind the contiguity cursor so re-staged epochs chain
      // on. The cursor only ever rewinds here: a corrupt forward abort
      // cannot smuggle an epoch gap past the scan.
      uint64_t first = update.value().epoch;
      std::vector<WalUpdate>& tail = mgr->recovered_.wal_tail;
      while (!tail.empty() && tail.back().epoch >= first) tail.pop_back();
      if (first < expected) {
        expected = std::max(first, mgr->recovered_.snapshot_epoch + 1);
      }
      ++keep;
      continue;
    }
    if (mgr->recovered_.has_snapshot) {
      uint64_t epoch = update.value().epoch;
      if (epoch > mgr->recovered_.snapshot_epoch) {
        if (epoch != expected) {
          cut = true;
          break;
        }
        ++expected;
      }
    }
    mgr->recovered_.wal_tail.push_back(std::move(update.value()));
    ++keep;
  }
  if (cut) {
    mgr->recovered_.wal_truncated = true;
    SAE_RETURN_NOT_OK(mgr->wal_->TruncateAfterRecord(keep));
  }
  return mgr;
}

Result<uint64_t> DurabilityManager::StageUpdate(const WalUpdate& update) {
  SAE_ASSIGN_OR_RETURN(uint64_t seq, wal_->Stage(EncodeWalUpdate(update)));
  std::lock_guard<std::mutex> lock(state_mu_);
  RecordId id = update.op == WalUpdate::kInsert ? update.record.id : update.id;
  auto it = pending_.find(id);
  last_staged_id_ = id;
  last_staged_had_prev_ = it != pending_.end();
  if (last_staged_had_prev_) last_staged_prev_ = it->second;
  undo_armed_ = true;
  PendingChange change;
  change.present = update.op == WalUpdate::kInsert;
  if (change.present) change.record = update.record;
  pending_[id] = std::move(change);
  return seq;
}

Status DurabilityManager::CommitStaged(uint64_t seq) {
  return wal_->Commit(seq);
}

Status DurabilityManager::UndoFailedUpdate() {
  SAE_RETURN_NOT_OK(wal_->UndoLastStaged());
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!undo_armed_) return Status::OK();
  // The retracted update's net change must not leak into the next delta
  // checkpoint, and (having never applied) it must not advance the
  // cadence either — ShouldSnapshot only counts applied updates.
  if (last_staged_had_prev_) {
    pending_[last_staged_id_] = last_staged_prev_;
  } else {
    pending_.erase(last_staged_id_);
  }
  undo_armed_ = false;
  return Status::OK();
}

Status DurabilityManager::RetractStagedFrom(uint64_t first_epoch) {
  WalUpdate abort;
  abort.op = WalUpdate::kAbort;
  abort.epoch = first_epoch;
  SAE_ASSIGN_OR_RETURN(uint64_t seq, wal_->Stage(EncodeWalUpdate(abort)));
  // Sync before returning: the retraction must be durable before the
  // caller acknowledges the failure, or a crash in between would resurrect
  // the suffix the caller just reported as failed.
  SAE_RETURN_NOT_OK(wal_->Commit(seq));
  std::lock_guard<std::mutex> lock(state_mu_);
  // The pending-change set has one level of undo; a retracted multi-record
  // suffix cannot be selectively unwound from it. Drop it wholesale and
  // force the next checkpoint FULL, so no delta claims to account for
  // changes the map no longer carries.
  pending_.clear();
  undo_armed_ = false;
  pending_incomplete_ = true;
  return Status::OK();
}

bool DurabilityManager::ShouldSnapshot() {
  if (options_.snapshot_interval == 0) return false;
  std::lock_guard<std::mutex> lock(state_mu_);
  return ++updates_since_checkpoint_ >= options_.snapshot_interval;
}

bool DurabilityManager::NextCheckpointIsFull() const {
  if (options_.full_snapshot_every <= 1) return true;
  // A failed checkpoint write broke the on-disk chain: only a full
  // snapshot can re-cover the retained WAL windows and resume segment GC.
  if (chain_broken_.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!have_chain_ || pending_incomplete_) return true;
  return chain_length_ + 1 >= options_.full_snapshot_every;
}

Status DurabilityManager::CaptureLocked(CheckpointJob job, bool wait) {
  // Seal the WAL at the capture point: everything logged so far is covered
  // by this checkpoint, everything after it belongs to the next window.
  // The sealed segments stay on disk until the checkpoint is DURABLE — a
  // crash mid-checkpoint recovers from the previous chain plus these
  // segments, losing nothing.
  SAE_ASSIGN_OR_RETURN(job.sealed_wal_seq, wal_->Rotate());
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    pending_.clear();
    updates_since_checkpoint_ = 0;
    undo_armed_ = false;
    have_chain_ = true;
    chain_tail_epoch_ = job.epoch;
    chain_length_ = job.full ? 0 : chain_length_ + 1;
    // A full capture carries complete state, so a pending set dropped by a
    // retraction no longer owes anything to the next delta.
    if (job.full) pending_incomplete_ = false;
  }
  if (wait) return RunCheckpointJob(job);
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  if (!ckpt_thread_started_) {
    ckpt_thread_started_ = true;
    ckpt_thread_ = std::thread([this] { CheckpointThreadMain(); });
  }
  ckpt_queue_.push_back(std::move(job));
  ckpt_cv_.notify_all();
  return Status::OK();
}

Status DurabilityManager::CheckpointFull(uint64_t epoch, SnapshotState state,
                                         bool wait) {
  CheckpointJob job;
  job.full = true;
  job.epoch = epoch;
  job.full_state = std::move(state);
  return CaptureLocked(std::move(job), wait);
}

Status DurabilityManager::CheckpointDelta(uint64_t epoch,
                                          SnapshotState header) {
  CheckpointJob job;
  job.full = false;
  job.epoch = epoch;
  DeltaState& delta = job.delta_state;
  delta.model = header.model;
  delta.record_size = header.record_size;
  delta.scheme = header.scheme;
  delta.signature = std::move(header.signature);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (auto& [id, change] : pending_) {
      if (change.present) {
        delta.upserts.push_back(std::move(change.record));
      } else {
        delta.removes.push_back(id);
      }
    }
    job.base_epoch = chain_tail_epoch_;
  }
  return CaptureLocked(std::move(job), /*wait=*/false);
}

Status DurabilityManager::RunCheckpointJob(const CheckpointJob& job) {
  if (!job.full && chain_broken_.load(std::memory_order_acquire)) {
    // An earlier checkpoint write failed, so this delta's base never
    // reached the disk: writing it would chain onto a missing link, and
    // dropping its sealed segments would delete records covered by no
    // durable checkpoint. Skip the job and KEEP the segments — recovery
    // composes the old chain plus the retained WAL, losing nothing — until
    // the forced full snapshot re-covers everything and resumes GC.
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ++checkpoints_skipped_;
    return Status::IoError("delta checkpoint skipped: chain broken upstream");
  }
  auto start = std::chrono::steady_clock::now();
  std::vector<uint8_t> payload = job.full
                                     ? EncodeSnapshotState(job.full_state)
                                     : EncodeDeltaState(job.delta_state);
  Status st = job.full ? snapshots_.Write(job.epoch, payload)
                       : snapshots_.WriteDelta(job.base_epoch, job.epoch,
                                               payload);
  if (st.ok()) {
    if (job.full) {
      // A durable full snapshot carries complete state: the chain is whole
      // again, and every sealed segment is redundant — including those
      // retained across failed or skipped checkpoints (seals are
      // monotonic, so this job's seal covers all of them).
      chain_broken_.store(false, std::memory_order_release);
    }
    if (job.sealed_wal_seq > 0) {
      // The checkpoint is durable under its final name; the sealed
      // segments' records are now redundant. A crash between the rename
      // and this drop replays records with epoch <= checkpoint epoch,
      // which recovery skips.
      st = wal_->DropSegmentsThrough(job.sealed_wal_seq);
    }
  } else {
    // The checkpoint never reached its final name: the sealed segments are
    // now the ONLY durable copy of this window's changes (the pending set
    // was recycled at capture). Gate WAL GC — and, via
    // NextCheckpointIsFull, force the next checkpoint full — until a
    // durable full snapshot re-covers them.
    chain_broken_.store(true, std::memory_order_release);
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (st.ok()) {
      ++(job.full ? checkpoints_full_ : checkpoints_delta_);
      checkpoint_bytes_total_ += payload.size();
      last_checkpoint_bytes_ = payload.size();
      last_checkpoint_ms_ = ms;
    } else if (ckpt_status_.ok()) {
      ckpt_status_ = st;
    }
  }
  return st;
}

void DurabilityManager::CheckpointThreadMain() {
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  for (;;) {
    ckpt_cv_.wait(lock,
                  [this] { return ckpt_stop_ || !ckpt_queue_.empty(); });
    if (ckpt_queue_.empty()) {
      if (ckpt_stop_) return;  // drained; pending captures never abandoned
      continue;
    }
    CheckpointJob job = std::move(ckpt_queue_.front());
    ckpt_queue_.pop_front();
    ckpt_running_ = true;
    lock.unlock();
    Status st = RunCheckpointJob(job);  // failure is sticky in ckpt_status_
    (void)st;
    lock.lock();
    ckpt_running_ = false;
    ckpt_cv_.notify_all();
  }
}

Status DurabilityManager::WaitForCheckpoints() {
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  ckpt_cv_.wait(lock,
                [this] { return ckpt_queue_.empty() && !ckpt_running_; });
  Status st = ckpt_status_;
  ckpt_status_ = Status::OK();
  return st;
}

DurabilityStats DurabilityManager::stats() const {
  DurabilityStats s;
  storage::WriteAheadLog::Stats w = wal_->stats();
  s.wal_bytes = wal_->size_bytes();
  s.wal_records = w.staged_records;
  s.wal_syncs = w.syncs;
  s.avg_group_records =
      w.syncs > 0 ? double(w.synced_records) / double(w.syncs) : 0.0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    s.delta_chain_length = chain_length_;
    s.updates_since_checkpoint = updates_since_checkpoint_;
  }
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    s.checkpoints_full = checkpoints_full_;
    s.checkpoints_delta = checkpoints_delta_;
    s.checkpoints_skipped = checkpoints_skipped_;
    s.pending_checkpoints = ckpt_queue_.size() + (ckpt_running_ ? 1 : 0);
    s.checkpoint_bytes_total = checkpoint_bytes_total_;
    s.last_checkpoint_bytes = last_checkpoint_bytes_;
    s.last_checkpoint_ms = last_checkpoint_ms_;
  }
  return s;
}

}  // namespace sae::core
