// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The durability subsystem the systems (core/system.h) plug into: the WAL
// record and checkpoint payload formats plus the DurabilityManager that
// owns a system's on-disk state (one directory: `wal-<seq>` segments and
// `ckpt-<base>-<epoch>` checkpoint links, a base-0 link being a full
// snapshot; storage/wal.h + storage/snapshot.h).
//
// Write-ahead contract: the update pipeline (core/update_pipeline.h)
// validates the op against the owner, stages the WAL record — stamped with
// the POST-update epoch — and the record is synced durable (CommitStaged:
// one fsync covers every concurrently staged record) before the in-memory
// authentication state mutates. An update whose record reached the disk is
// recoverable; one whose record did not never happened.
//
// Checkpoints run every `snapshot_interval` updates so the WAL (and
// recovery replay) stays short. The manager alone decides what each one
// writes. The steady-state checkpoint persists only the records
// inserted/deleted since the previous checkpoint — O(changes), not
// O(state) — as a link from the previous checkpoint's epoch; every
// `full_snapshot_every`-th checkpoint compacts the chain into a link from
// the empty state (a full snapshot), which also garbage-collects chains
// beyond the newest two (storage::SnapshotStore::kKeepChains).
//
// Both are built from the manager's own state, never from a copy of the
// live dataset:
//  * The PENDING LOG is an exact log of the updates staged since the last
//    capture: StageUpdate appends, a failed apply pops its entry, a
//    retraction cuts the log at its first epoch, and recovery's WAL replay
//    joins it (so the next checkpoint carries the replayed records, and
//    sealing the WAL for it drops nothing that is not in a checkpoint).
//  * The CHECKPOINT IMAGE is the state of the newest capture, in index
//    order: SAE by (key, id), TOM by (key, rank), the MB-tree's leaf
//    order. It is seeded once — by the Load baseline, the one capture that
//    copies the dataset, or by Open's composed chain — and every capture's
//    net change set moves it forward on the checkpoint thread, through the
//    same removes-then-ranked-upserts step that composes a chain. It
//    costs about 140 B per record on top of the payload bytes, which SAE's
//    image shares with the owner's master copy (TOM's owner keeps none).
// A capture under the writer lock is therefore O(changes) for either kind
// (plus TOM's root signature and tree shape): it seals the WAL and moves
// the pending log into a job. The one checkpoint thread nets the log,
// advances the image, and writes either the net changes or a full
// snapshot streamed straight out of the image into the checkpoint file in
// chunks of at most 1 MB — no whole-payload buffer exists. The sealed
// segments are dropped only after the checkpoint they feed is durable — a
// crash mid-checkpoint recovers from the previous chain plus the retained
// segments, losing nothing. A FAILED checkpoint write gates segment GC
// entirely: later delta captures are skipped (their base never reached the
// disk; the image still advances) and the next checkpoint is forced FULL;
// only once that full snapshot is durable — re-covering every retained
// window — does GC resume. Segments are thus only ever dropped under a
// durable checkpoint that covers them.
//
// Recovery (UpdatePipeline::RecoverSystem) inverts this: load the newest
// intact chain (a base-0 link followed by every validly linked successor
// — never past a corrupt link), apply every link in turn to an empty
// image, replay the WAL records that chain epoch-contiguously out of the
// composed state through the live apply path, truncate whatever does not
// (garbage, or records orphaned by a chain fallback), and republish. The
// recovered epoch is provable — TOM re-signs and cross-checks the
// persisted root signature — and clients verify it as live traffic; a
// rollback to an older durable state yields an older epoch that the
// unmodified client freshness gate rejects as kStaleEpoch. A directory in
// the older snap-/delta- format is refused with kUnimplemented.

#ifndef SAE_CORE_DURABILITY_H_
#define SAE_CORE_DURABILITY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "btree/bplus_tree.h"
#include "crypto/digest.h"
#include "storage/record.h"
#include "storage/snapshot.h"
#include "storage/vfs.h"
#include "storage/wal.h"
#include "util/macros.h"
#include "util/status.h"

namespace sae::core {

using storage::Key;
using storage::Record;
using storage::RecordId;

/// Durability knobs of one system. Disabled by default — the simulation
/// harness and the figure benches run purely in memory.
struct DurabilityOptions {
  bool enabled = false;
  /// Directory holding this system's WAL segments and snapshot chain.
  std::string dir;
  /// File-system seam; nullptr = the real POSIX Vfs. Tests inject a
  /// storage::FaultFs here to crash at exact sync points.
  storage::Vfs* vfs = nullptr;
  /// Updates between checkpoints (0 = checkpoint only at load). Small
  /// values bound replay length at the price of checkpoint I/O — the
  /// cadence sweep in bench_durability quantifies the trade.
  uint64_t snapshot_interval = 64;
  /// Every Nth checkpoint is a full snapshot compacting the chain (and
  /// bounding recovery to at most N-1 delta loads). 0 or 1 = always full.
  uint64_t full_snapshot_every = 8;
};

/// One logged update, WAL payload <-> in-memory form. `epoch` is the epoch
/// the update published (owner epoch after applying). A kAbort record is a
/// durable RETRACTION (op + epoch only): every record logged before it
/// with epoch >= its epoch was acknowledged to its caller as FAILED and
/// must never replay — recovery drops that suffix from the replay tail.
struct WalUpdate {
  enum Op : uint8_t { kInsert = 1, kDelete = 2, kAbort = 3 };
  uint8_t op = kInsert;
  uint64_t epoch = 0;
  Record record;   // kInsert: the inserted record
  RecordId id = 0; // kDelete: the deleted id

  /// An unstamped update; the pipeline assigns the epoch at stage time.
  static WalUpdate Insert(const Record& record) {
    WalUpdate update;
    update.record = record;
    return update;
  }
  static WalUpdate Delete(RecordId id) {
    WalUpdate update;
    update.op = kDelete;
    update.id = id;
    return update;
  }
};

std::vector<uint8_t> EncodeWalUpdate(const WalUpdate& update);
Result<WalUpdate> DecodeWalUpdate(const std::vector<uint8_t>& payload);

/// What one checkpoint link carries: the net changes between its base
/// checkpoint and its own epoch. Applying `removes` then upserting
/// `records` into the base state yields the state at this epoch — a
/// delete+reinsert of the same id collapses into the upsert. A full
/// snapshot is the link from the empty state: the whole dataset in index
/// order and no removes (and so is a recovered or captured state). TOM also
/// persists the epoch-stamped root signature, which recovery cross-checks
/// against a fresh re-signing, and the MB-tree's shape at this epoch: the
/// signed root is only reproducible from the same records in the same
/// nodes. An MB-tree keeps a run of equal keys in insertion order, so a
/// TOM link's records follow update order (SAE's ascend by id; a full's
/// follow the index): recovery composes each key's run as the base's
/// order followed by each link's records in turn.
struct SnapshotState {
  enum Model : uint8_t { kSae = 1, kTom = 2 };
  uint8_t model = kSae;
  uint32_t record_size = 0;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  std::vector<Record> records;     // present after this link
  std::vector<RecordId> removes;   // absent after this link, ascending
  std::vector<uint8_t> signature;  // TOM root signature; empty for SAE
  btree::TreeShape shape;          // TOM MB-tree shape; empty for SAE
};

std::vector<uint8_t> EncodeSnapshotState(const SnapshotState& state);
/// Any payload the encoder could not have written is kCorruption; no
/// count in it is trusted before the bytes left can hold it.
Result<SnapshotState> DecodeSnapshotState(const std::vector<uint8_t>& payload);

/// Point-in-time durability counters (systems expose this as
/// `durability_stats()`; bench_durability and restartable_sp print it).
struct DurabilityStats {
  uint64_t wal_bytes = 0;          ///< live WAL bytes across segments
  uint64_t wal_records = 0;        ///< records staged since open
  uint64_t wal_syncs = 0;          ///< fsyncs the commit path issued
  double avg_group_records = 0.0;  ///< records per fsync (group size)
  uint64_t checkpoints_full = 0;
  uint64_t checkpoints_delta = 0;
  uint64_t checkpoints_skipped = 0;    ///< delta captures dropped while the
                                       ///< chain was broken (GC stayed gated)
  uint64_t delta_chain_length = 0;     ///< links since the last full
  uint64_t updates_since_checkpoint = 0;
  uint64_t pending_checkpoints = 0;    ///< captured, not yet durable
  uint64_t checkpoint_bytes_total = 0; ///< payload bytes written, lifetime
  uint64_t last_checkpoint_bytes = 0;
  double last_checkpoint_ms = 0.0;     ///< serialize+write wall time
  double checkpoint_ms_total = 0.0;    ///< serialize+write time, lifetime
};

/// The state of the newest checkpoint capture, in index order: SAE by
/// (key, id); TOM by (key, rank), where a record's rank grows with the
/// time it entered the image, so each run of equal keys keeps the
/// MB-tree's insertion order. Apply is the one step that both composes a
/// recovered chain and moves the image forward by a capture's changes.
class CheckpointImage {
 public:
  /// Empties the image and fixes its record order to `model`'s.
  void Reset(uint8_t model);

  /// Removes every id in `removes` (absent ids are skipped), then places
  /// each upsert — replacing any record with its id — ranked after every
  /// record already in the image, in list order.
  void Apply(const std::vector<RecordId>& removes, std::vector<Record> upserts);

  size_t size() const { return ordered_.size(); }
  /// Bytes the records take in a snapshot payload (id, key, length,
  /// payload per record).
  uint64_t encoded_bytes() const { return encoded_bytes_; }
  std::vector<Record> Records() const;

  /// Calls `fn(record)` for every record in index order; stops at and
  /// returns the first failure.
  template <typename Fn>
  Status ForEach(Fn fn) const {
    for (const auto& [slot, record] : ordered_) SAE_RETURN_NOT_OK(fn(record));
    return Status::OK();
  }

 private:
  using Slot = std::pair<Key, uint64_t>;  // (key, id) SAE, (key, rank) TOM
  using Ordered = std::map<Slot, Record>;

  void Erase(RecordId id);

  bool ranked_ = false;  // TOM
  uint64_t next_rank_ = 0;
  uint64_t encoded_bytes_ = 0;
  Ordered ordered_;
  std::unordered_map<RecordId, Ordered::iterator> slot_of_;
};

/// Owns a system's durable state: the segmented WAL, the checkpoint chain,
/// the pending log and checkpoint image feeding checkpoints, the
/// checkpoint thread and the cadence counter. Opened at Load (fresh
/// directory) or at Recover (existing directory — `recovered()` then
/// exposes what the disk held). Stage/undo/checkpoint-capture calls are
/// made under the owning system's writer lock; CommitStaged and
/// WaitForCheckpoints are called outside it.
class DurabilityManager {
 public:
  /// What recovery found on disk: the newest intact chain composed into
  /// one state, and the decoded WAL tail that chains onto it. Opening
  /// truncates the WAL to its usable prefix — torn or corrupt records
  /// (checksum, length lie, a crc-valid record that fails to decode, or an
  /// epoch that does not follow the composed chain) end the prefix and are
  /// cut off, never replayed. A kAbort record drops the retracted suffix
  /// (epoch >= the abort's) from the replay tail — acknowledged failures
  /// never resurrect. The tail records past the chain also start the
  /// pending log: the caller replays them, and the next checkpoint must
  /// carry them.
  struct Recovered {
    bool has_snapshot = false;
    uint64_t snapshot_epoch = 0;  ///< epoch of the composed chain tail
    bool snapshot_fell_back = false;
    uint64_t chain_deltas = 0;    ///< links composed after the base-0 one
    SnapshotState snapshot;
    std::vector<WalUpdate> wal_tail;
    bool wal_truncated = false;   ///< garbage or orphans were cut
  };

  static Result<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityOptions& options);

  /// Drains and joins the checkpoint thread (pending captures are written
  /// out, best effort — a failure there is what WaitForCheckpoints would
  /// have reported).
  ~DurabilityManager();

  const Recovered& recovered() const { return recovered_; }

  /// Stages one update record into the WAL buffer (volatile) and appends
  /// it to the pending log. Returns the commit sequence to pass to
  /// CommitStaged. Caller holds the writer lock.
  Result<uint64_t> StageUpdate(const WalUpdate& update);

  /// Makes every record staged up to `seq` durable — the durability commit
  /// point: returns OK iff the update is recoverable. One leader's fsync
  /// covers the whole concurrent group; call WITHOUT the writer lock so
  /// groups can form.
  Status CommitStaged(uint64_t seq);

  /// Durably retracts every logged-but-unpublished record with epoch >=
  /// `first_epoch` by appending and syncing a kAbort marker, and cuts the
  /// pending log there. Once this returns OK, recovery will never replay
  /// the retracted suffix — even if its records were already synced — and
  /// the caller may keep using the pipeline. On failure the suffix's
  /// post-crash outcome is unknown; the caller must fail stop. Caller holds
  /// the writer lock.
  Status RetractStagedFrom(uint64_t first_epoch);

  /// Counts one APPLIED update; true when the checkpoint cadence is due.
  /// Callers must not count an update they are about to retract — the
  /// cadence only ever reflects updates that really happened.
  bool ShouldSnapshot();

  /// The Load baseline: seeds the checkpoint image with `state` (the whole
  /// dataset at `epoch`, in index order) and writes it as a full snapshot
  /// before returning, so the baseline is durable when Load returns.
  /// Resets the pending log, the chain and the cadence counter. Caller
  /// holds the writer lock at a quiescent point (nothing
  /// staged-but-unapplied).
  Status CheckpointBaseline(uint64_t epoch, SnapshotState state);

  /// Captures a cadence checkpoint at `epoch`: rotates the WAL (sealing
  /// the segments this checkpoint makes redundant) and hands the pending
  /// log to the checkpoint thread — O(changes) under the lock. There the
  /// log moves the image forward, and the checkpoint writes either the
  /// image as a full snapshot or the log's net changes as a link from the
  /// previous capture's epoch, as NextCheckpointIsFull decides. `header`
  /// supplies the payload header and TOM's root signature and tree shape
  /// at `epoch`; its records are unused. Same quiescence requirement.
  Status Checkpoint(uint64_t epoch, SnapshotState header);

  /// Blocks until every captured checkpoint is durable (or failed);
  /// returns the first failure since the last wait. Call without the
  /// writer lock.
  Status WaitForCheckpoints();

  uint64_t wal_bytes() const { return wal_->size_bytes(); }
  DurabilityStats stats() const;
  const DurabilityOptions& options() const { return options_; }

 private:
  DurabilityManager(const DurabilityOptions& options, storage::Vfs* vfs);

  /// True when the next checkpoint must persist full state: no chain yet,
  /// the compaction cadence (`full_snapshot_every`) is reached, or a
  /// checkpoint write failed (the on-disk chain is broken; a full re-covers
  /// it and resumes WAL GC).
  bool NextCheckpointIsFull() const;

  /// One captured checkpoint awaiting serialization + write.
  struct CheckpointJob {
    bool full = false;
    bool seed = false;             // the Load baseline: state.records seed
                                   // the image
    uint64_t epoch = 0;
    uint64_t base_epoch = 0;       // delta: the checkpoint it links from
    SnapshotState state;           // header, TOM signature and shape
    std::vector<WalUpdate> changes;  // the pending log this capture closed
    uint64_t sealed_wal_seq = 0;   // segments <= this die once durable
  };

  /// Rotation + bookkeeping shared by every capture; moves the pending
  /// log into `job`. `wait` writes inline instead of queueing (the Load
  /// baseline).
  Status CaptureLocked(CheckpointJob job, bool wait);
  /// Advances the image by one captured checkpoint and writes it; drops
  /// the WAL segments it made redundant once it is durable. While the
  /// chain is broken (an earlier checkpoint write failed) delta jobs are
  /// SKIPPED — no write, no segment drop — until a durable full repairs
  /// it. Runs on the checkpoint thread (the inline baseline runs before
  /// that thread exists), which alone touches the image.
  Status RunCheckpointJob(CheckpointJob& job);
  void CheckpointThreadMain();

  DurabilityOptions options_;
  storage::Vfs* vfs_;
  storage::SnapshotStore snapshots_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  Recovered recovered_;

  // Stage-side state. Calls mutating it run under the owning system's
  // writer lock; state_mu_ additionally guards it against concurrent
  // stats() readers.
  mutable std::mutex state_mu_;
  std::vector<WalUpdate> pending_;  // staged since the last capture
  uint64_t updates_since_checkpoint_ = 0;
  uint64_t chain_tail_epoch_ = 0;  // base of the next delta
  uint64_t chain_length_ = 0;      // deltas since the last full
  bool have_chain_ = false;        // a full snapshot exists to chain onto

  // The state of the newest capture; see CheckpointImage.
  CheckpointImage image_;

  // Checkpoint pipeline.
  mutable std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  std::deque<CheckpointJob> ckpt_queue_;
  bool ckpt_running_ = false;   // a job is being written right now
  bool ckpt_stop_ = false;
  Status ckpt_status_;          // first failure since the last wait
  std::thread ckpt_thread_;
  bool ckpt_thread_started_ = false;
  // Set when a checkpoint write fails: the on-disk chain is missing that
  // link, so sealed WAL segments are the only durable copy of the failed
  // window — GC stops and deltas are skipped until a durable full snapshot
  // (forced by NextCheckpointIsFull) re-covers everything. Atomic: written
  // on the checkpoint thread, read by the capture/cadence path.
  std::atomic<bool> chain_broken_{false};
  // Stats written by the checkpoint path (under ckpt_mu_).
  uint64_t checkpoints_full_ = 0;
  uint64_t checkpoints_delta_ = 0;
  uint64_t checkpoints_skipped_ = 0;
  uint64_t checkpoint_bytes_total_ = 0;
  uint64_t last_checkpoint_bytes_ = 0;
  double last_checkpoint_ms_ = 0.0;
  double checkpoint_ms_total_ = 0.0;
};

}  // namespace sae::core

#endif  // SAE_CORE_DURABILITY_H_
