// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the durability subsystem (core/durability.h): the WAL-record
// and checkpoint codecs, the chain-composing open/recovery path, the
// stage/commit write path, and the background checkpoint pipeline.

#include "core/durability.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/codec.h"

namespace sae::core {

namespace {

// Bytes one record takes in a payload: id, key, payload length, payload.
uint64_t EncodedSize(const Record& record) {
  return 8 + 4 + 4 + record.payload.size();
}

void PutRecord(ByteWriter* w, const Record& record) {
  uint8_t* out = w->Extend(EncodedSize(record));
  EncodeU64(out, record.id);
  EncodeU32(out + 8, record.key);
  EncodeU32(out + 12, uint32_t(record.payload.size()));
  if (!record.payload.empty()) {
    std::memcpy(out + 16, record.payload.data(), record.payload.size());
  }
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

// The payload bytes ahead of the records: model tag, record size, hash
// scheme, record count.
void PutHead(ByteWriter* w, const SnapshotState& state, uint32_t count) {
  w->PutU8(state.model);
  w->PutU32(state.record_size);
  w->PutU8(uint8_t(state.scheme));
  w->PutU32(count);
}

// The payload bytes behind the records: the remove list (u32 count, u64
// ids), the length-prefixed TOM root signature (empty for SAE), then, for
// TOM only, the MB-tree shape as a u32 level count and, per level, a u32
// node count and one u16 fan-out per node.
void PutTail(ByteWriter* w, const SnapshotState& state) {
  w->PutU32(uint32_t(state.removes.size()));
  for (RecordId id : state.removes) w->PutU64(id);
  w->PutU32(uint32_t(state.signature.size()));
  w->PutBytes(state.signature.data(), state.signature.size());
  if (state.model != SnapshotState::kTom) return;
  w->PutU32(uint32_t(state.shape.size()));
  for (const std::vector<uint32_t>& level : state.shape) {
    w->PutU32(uint32_t(level.size()));
    for (uint32_t fanout : level) w->PutU16(uint16_t(fanout));
  }
}

RecordId IdOf(const WalUpdate& update) {
  return update.op == WalUpdate::kInsert ? update.record.id : update.id;
}

// The net effect of a pending log, as a link lists it: the newest change
// to each id wins. Removes ascend by id; upserts ascend by id for SAE and
// follow the log — update order — for TOM, whose equal-key runs keep
// insertion order. The header, signature and shape come from `header`.
SnapshotState NetChanges(std::vector<WalUpdate> log, SnapshotState header) {
  SnapshotState link = std::move(header);
  link.records.clear();
  link.removes.clear();
  std::map<RecordId, size_t> newest;  // id -> index of its last change
  for (size_t i = 0; i < log.size(); ++i) newest[IdOf(log[i])] = i;
  std::vector<size_t> upserts;
  for (const auto& [id, i] : newest) {
    if (log[i].op == WalUpdate::kInsert) {
      upserts.push_back(i);
    } else {
      link.removes.push_back(id);
    }
  }
  if (link.model == SnapshotState::kTom) {
    std::sort(upserts.begin(), upserts.end());
  }
  link.records.reserve(upserts.size());
  for (size_t i : upserts) link.records.push_back(std::move(log[i].record));
  return link;
}

// A full snapshot payload streams out in chunks of at most this many bytes
// (a larger record goes out as a chunk of its own).
constexpr size_t kChunkBytes = size_t(1) << 20;

// The full snapshot payload of an image — the link from the empty state —
// never built whole: `header`'s header and the record count, the image's
// records in index order, then `header`'s (empty) remove list, signature
// and shape — EncodeSnapshotState's bytes.
struct FullPayload {
  ByteWriter head;
  ByteWriter tail;
  uint64_t size = 0;

  FullPayload(const SnapshotState& header, const CheckpointImage& image) {
    PutHead(&head, header, uint32_t(image.size()));
    PutTail(&tail, header);
    size = head.size() + image.encoded_bytes() + tail.size();
  }

  Status Stream(const CheckpointImage& image,
                storage::SnapshotStore::PayloadSink* sink) const {
    SAE_RETURN_NOT_OK(sink->Put(head.bytes().data(), head.size()));
    ByteWriter chunk;
    chunk.Reserve(kChunkBytes);
    SAE_RETURN_NOT_OK(image.ForEach([&](const Record& record) {
      if (chunk.size() > 0 &&
          chunk.size() + EncodedSize(record) > kChunkBytes) {
        SAE_RETURN_NOT_OK(sink->Put(chunk.bytes().data(), chunk.size()));
        chunk.Clear();
      }
      PutRecord(&chunk, record);
      return Status::OK();
    }));
    SAE_RETURN_NOT_OK(sink->Put(chunk.bytes().data(), chunk.size()));
    return sink->Put(tail.bytes().data(), tail.size());
  }
};

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
  PutHead(&w, state, uint32_t(state.records.size()));
  for (const Record& record : state.records) PutRecord(&w, record);
  PutTail(&w, state);
  return w.Release();
}

Result<SnapshotState> DecodeSnapshotState(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  SnapshotState state;
  state.model = r.GetU8();
  state.record_size = r.GetU32();
  const uint8_t scheme = r.GetU8();
  if (state.model != SnapshotState::kSae &&
      state.model != SnapshotState::kTom) {
    return Status::Corruption("checkpoint has unknown model tag");
  }
  if (scheme > uint8_t(crypto::HashScheme::kSha256Trunc)) {
    return Status::Corruption("checkpoint has unknown hash scheme");
  }
  state.scheme = crypto::HashScheme(scheme);
  // Every record takes at least its id, key and length: a count the bytes
  // left cannot hold is refused before anything is reserved for it.
  const uint32_t count = r.GetU32();
  if (r.failed() || count > r.remaining() / 16) {
    return Status::Corruption("checkpoint record count does not decode");
  }
  state.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Record record;
    if (!GetRecord(&r, &record)) {
      return Status::Corruption("checkpoint record does not decode");
    }
    state.records.push_back(std::move(record));
  }
  const uint32_t removes = r.GetU32();
  if (r.failed() || uint64_t(removes) * 8 > r.remaining()) {
    return Status::Corruption("checkpoint remove list does not decode");
  }
  state.removes.reserve(removes);
  for (uint32_t i = 0; i < removes; ++i) state.removes.push_back(r.GetU64());
  const uint32_t sig_len = r.GetU32();
  if (r.failed() || sig_len > r.remaining()) {
    return Status::Corruption("checkpoint signature does not decode");
  }
  state.signature.resize(sig_len);
  if (!r.GetBytes(state.signature.data(), sig_len)) {
    return Status::Corruption("checkpoint signature does not decode");
  }
  if (state.model == SnapshotState::kTom) {
    const uint32_t levels = r.GetU32();
    if (r.failed() || uint64_t(levels) * 4 > r.remaining()) {
      return Status::Corruption("checkpoint tree shape does not decode");
    }
    state.shape.resize(levels);
    for (std::vector<uint32_t>& level : state.shape) {
      const uint32_t nodes = r.GetU32();
      if (r.failed() || uint64_t(nodes) * 2 > r.remaining()) {
        return Status::Corruption("checkpoint tree shape does not decode");
      }
      level.reserve(nodes);
      for (uint32_t i = 0; i < nodes; ++i) level.push_back(r.GetU16());
    }
  }
  if (r.failed() || r.remaining() != 0) {
    return Status::Corruption("checkpoint payload has trailing bytes");
  }
  return state;
}

void CheckpointImage::Reset(uint8_t model) {
  ranked_ = model == SnapshotState::kTom;
  next_rank_ = 0;
  encoded_bytes_ = 0;
  ordered_.clear();
  slot_of_.clear();
}

void CheckpointImage::Erase(RecordId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;
  encoded_bytes_ -= EncodedSize(it->second->second);
  ordered_.erase(it->second);
  slot_of_.erase(it);
}

void CheckpointImage::Apply(const std::vector<RecordId>& removes,
                            std::vector<Record> upserts) {
  for (RecordId id : removes) Erase(id);
  // Only a seed (an empty image) reserves: sizing the index to every
  // delta would rehash it whenever a delta's bucket count differs.
  if (slot_of_.empty()) slot_of_.reserve(upserts.size());
  for (Record& record : upserts) {
    Erase(record.id);
    const Slot slot{record.key, ranked_ ? next_rank_++ : record.id};
    const RecordId id = record.id;
    encoded_bytes_ += EncodedSize(record);
    // A seed arrives in slot order, so the end is the usual place; any
    // other slot falls back to the logarithmic search.
    slot_of_[id] =
        ordered_.emplace_hint(ordered_.end(), slot, std::move(record));
  }
}

std::vector<Record> CheckpointImage::Records() const {
  std::vector<Record> records;
  records.reserve(ordered_.size());
  for (const auto& [slot, record] : ordered_) records.push_back(record);
  return records;
}

DurabilityManager::DurabilityManager(const DurabilityOptions& options,
                                     storage::Vfs* vfs)
    : options_(options),
      vfs_(vfs),
      snapshots_(vfs, options.dir) {}

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

  // Compose the newest intact chain into the checkpoint image: every link,
  // the base-0 full snapshot included, applied in order to an empty image.
  // Each link's removes-then-upserts replays the net changes of its
  // checkpoint window; the tail's signature and shape speak for the
  // composed state. A link's payload is dropped as soon as it is decoded.
  auto chain = mgr->snapshots_.LoadChain();
  if (chain.ok()) {
    std::vector<storage::SnapshotStore::Link>& links = chain.value().links;
    SnapshotState state;
    for (size_t i = 0; i < links.size(); ++i) {
      SAE_ASSIGN_OR_RETURN(SnapshotState link,
                           DecodeSnapshotState(links[i].payload));
      links[i].payload = {};
      if (i == 0) {
        mgr->image_.Reset(link.model);
      } else if (link.model != state.model ||
                 link.record_size != state.record_size ||
                 link.scheme != state.scheme) {
        return Status::Corruption(
            "checkpoint link configuration does not match its chain base");
      }
      mgr->image_.Apply(link.removes, std::move(link.records));
      state = std::move(link);
    }
    state.removes.clear();
    state.records = mgr->image_.Records();
    const uint64_t tail_epoch = links.back().epoch;
    mgr->recovered_.has_snapshot = true;
    mgr->recovered_.snapshot_epoch = tail_epoch;
    mgr->recovered_.snapshot_fell_back = chain.value().fell_back;
    mgr->recovered_.chain_deltas = links.size() - 1;
    mgr->recovered_.snapshot = std::move(state);
    mgr->have_chain_ = true;
    mgr->chain_tail_epoch_ = tail_epoch;
    mgr->chain_length_ = links.size() - 1;
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
  // The records the caller replays past the chain are changes since its
  // tail capture like any staged update: the next checkpoint must carry
  // them, or sealing the WAL for it would drop their only durable copy.
  for (const WalUpdate& update : mgr->recovered_.wal_tail) {
    if (update.epoch > mgr->recovered_.snapshot_epoch) {
      mgr->pending_.push_back(update);
    }
  }
  return mgr;
}

Result<uint64_t> DurabilityManager::StageUpdate(const WalUpdate& update) {
  SAE_ASSIGN_OR_RETURN(uint64_t seq, wal_->Stage(EncodeWalUpdate(update)));
  std::lock_guard<std::mutex> lock(state_mu_);
  pending_.push_back(update);
  return seq;
}

Status DurabilityManager::CommitStaged(uint64_t seq) {
  return wal_->Commit(seq);
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
  // The retracted records are the log's suffix from `first_epoch` on
  // (staged epochs only grow between retractions).
  std::lock_guard<std::mutex> lock(state_mu_);
  while (!pending_.empty() && pending_.back().epoch >= first_epoch) {
    pending_.pop_back();
  }
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
  if (!have_chain_) return true;
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
    job.changes = std::exchange(pending_, {});
    updates_since_checkpoint_ = 0;
    job.base_epoch = chain_tail_epoch_;
    have_chain_ = true;
    chain_tail_epoch_ = job.epoch;
    chain_length_ = job.full ? 0 : chain_length_ + 1;
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

Status DurabilityManager::CheckpointBaseline(uint64_t epoch,
                                             SnapshotState state) {
  CheckpointJob job;
  job.full = true;
  job.seed = true;
  job.epoch = epoch;
  job.state = std::move(state);
  return CaptureLocked(std::move(job), /*wait=*/true);
}

Status DurabilityManager::Checkpoint(uint64_t epoch, SnapshotState header) {
  CheckpointJob job;
  job.full = NextCheckpointIsFull();
  job.epoch = epoch;
  job.state = std::move(header);
  return CaptureLocked(std::move(job), /*wait=*/false);
}

Status DurabilityManager::RunCheckpointJob(CheckpointJob& job) {
  auto start = std::chrono::steady_clock::now();
  // Move the image to this capture's state first, whether or not this
  // job's file lands: the next capture's changes build on it, and a full
  // that repairs a broken chain writes it.
  if (job.seed) {
    // The seed is the whole state at its epoch; nothing logged before it
    // (a reused directory's WAL tail) applies on top.
    image_.Reset(job.state.model);
    image_.Apply({}, std::move(job.state.records));
    job.changes.clear();
  }
  SnapshotState link = NetChanges(std::move(job.changes), job.state);
  std::vector<uint8_t> delta_payload;
  if (!job.full) delta_payload = EncodeSnapshotState(link);
  image_.Apply(link.removes, std::move(link.records));

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
  uint64_t bytes = 0;
  Status st;
  if (job.full) {
    // The link from the empty state, streamed out of the image: no payload
    // buffer is ever built.
    FullPayload payload(job.state, image_);
    bytes = payload.size;
    st = snapshots_.Write(/*base=*/0, job.epoch, bytes,
                          [&](storage::SnapshotStore::PayloadSink* sink) {
                            return payload.Stream(image_, sink);
                          });
  } else {
    bytes = delta_payload.size();
    st = snapshots_.Write(job.base_epoch, job.epoch, bytes,
                          [&](storage::SnapshotStore::PayloadSink* sink) {
                            return sink->Put(delta_payload.data(), bytes);
                          });
  }
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
    // now the ONLY durable copy of this window's changes (the pending log
    // was handed over at capture). Gate WAL GC — and, via
    // NextCheckpointIsFull, force the next checkpoint full — until a
    // durable full snapshot re-covers them.
    chain_broken_.store(true, std::memory_order_release);
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    checkpoint_ms_total_ += ms;
    if (st.ok()) {
      ++(job.full ? checkpoints_full_ : checkpoints_delta_);
      checkpoint_bytes_total_ += bytes;
      last_checkpoint_bytes_ = bytes;
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
    s.checkpoint_ms_total = checkpoint_ms_total_;
  }
  return s;
}

}  // namespace sae::core
