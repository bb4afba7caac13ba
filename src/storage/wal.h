// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Write-ahead log: the durability commit point of the update pipeline.
// Every Insert/Delete stages one checksummed, length-prefixed record —
// carrying the post-update epoch — and the record is synced durable BEFORE
// the in-memory auth state mutates; an update whose record is durable is
// recoverable, one whose record is torn never happened.
//
// The log is a sequence of segment files `wal-<seq020>` in one directory.
// Records append to the ACTIVE (highest-seq) segment; `Rotate()` seals it
// at a checkpoint capture, so segments the checkpoint made redundant can be
// dropped as whole files (`DropSegmentsThrough`) once the checkpoint is
// durable — never while a crash could still need them.
//
// Group commit splits append-and-sync into two halves:
//   Stage(payload)  -> seq   buffered write, volatile; callers serialize
//                            (the owning system's writer lock)
//   Commit(seq)               returns once every record up to `seq` is
//                            durable; concurrent committers elect ONE
//                            leader whose single fsync covers the whole
//                            group, the rest just wait
//
// On-disk record layout (little-endian), unchanged from PR 9:
//   [payload_len u32][crc32 u32 over payload][payload bytes]
//
// Recovery scans segments in sequence order from offset 0 and stops at the
// first record that is torn (file ends mid-record), has a lying length
// prefix (> kMaxWalPayload or past EOF) or fails its checksum — everything
// before that point replays; the torn tail is truncated and any LATER
// segment is dropped (a valid record can never legitimately follow a torn
// one). A corrupted record therefore never crashes recovery and never
// causes over-replay: the log's valid prefix is exactly what re-applies.

#ifndef SAE_STORAGE_WAL_H_
#define SAE_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/vfs.h"
#include "util/status.h"

namespace sae::storage {

/// Per-record header: length prefix + checksum.
inline constexpr size_t kWalRecordHeader = 8;

/// Upper bound on one record's payload. A lying length prefix above this is
/// rejected before any allocation.
inline constexpr uint32_t kMaxWalPayload = 1u << 20;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the WAL and snapshot
/// integrity checksum. Not cryptographic: it detects torn writes and media
/// corruption; authenticity comes from the verification layer above.
/// `crc` carries a running checksum across pieces: Crc32(b, nb, Crc32(a,
/// na)) equals the one-shot CRC of a || b, and 0 starts a fresh one.
/// Slice-by-8: eight table lookups per 8 input bytes.
uint32_t Crc32(const uint8_t* data, size_t len, uint32_t crc = 0);

/// The scanned content of a log file: the records of the valid prefix, the
/// byte offset where validity ends, and whether garbage followed it.
struct WalContents {
  std::vector<std::vector<uint8_t>> records;
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

/// Scans one segment file at `path` (missing file = empty log). Never fails
/// on corrupt bytes — corruption just ends the valid prefix; only genuine
/// I/O errors surface.
Result<WalContents> ReadLog(Vfs* vfs, const std::string& path);

/// Parses "wal-<20 digits>" into the segment sequence number; false for
/// any other name.
bool ParseWalSegmentName(const std::string& name, uint64_t* seq);

/// Segment file name for `seq` (zero-padded, sorts by sequence).
std::string WalSegmentName(uint64_t seq);

/// Handle over one directory's segmented log. Open() scans the existing
/// segments in order, truncates any torn tail (so later appends land on a
/// valid prefix), and positions at the end of the highest segment. One
/// instance per log; stagers serialize (the owning system stages under its
/// writer lock) while any number of threads may Commit concurrently.
class WriteAheadLog {
 public:
  /// Opens or creates the log under `dir`. `contents`, when non-null,
  /// receives the valid record prefix found across all segments (the
  /// recovery tail to replay).
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      Vfs* vfs, const std::string& dir, WalContents* contents = nullptr);

  /// Buffers one record into the active segment (volatile until a Commit
  /// or Rotate covers it) and returns its commit sequence number. On any
  /// failure the in-memory end offset is NOT advanced, so a later stage
  /// overwrites the torn bytes. Callers serialize.
  Result<uint64_t> Stage(const uint8_t* payload, size_t len);
  Result<uint64_t> Stage(const std::vector<uint8_t>& payload) {
    return Stage(payload.data(), payload.size());
  }

  /// Returns once every record with sequence <= `seq` is durable. The group
  /// sequencer: the first committer to find undurable records becomes the
  /// leader and issues one fsync for everything staged so far; everyone
  /// covered by that fsync just waits. A failed fsync wakes all waiters, each of whom
  /// retries as its own leader and surfaces its own error — after a real
  /// crash every retry fails, so no committer ever reports durable falsely.
  Status Commit(uint64_t seq);


  /// Seals the active segment at a checkpoint capture and returns its
  /// sequence number; the next Stage opens segment seq+1. Syncs the sealed
  /// segment first if it holds staged-but-undurable records (callers
  /// normally rotate at a quiescent point, making this a no-op — no
  /// barrier). Excludes concurrent Stage (both run under the owning
  /// system's writer lock).
  Result<uint64_t> Rotate();

  /// Removes every sealed segment with sequence <= `seq` — called once the
  /// checkpoint that made them redundant is durable, never before.
  Status DropSegmentsThrough(uint64_t seq);

  /// Cuts the log after record number `keep` (0-based count) of the prefix
  /// Open() scanned: truncates the segment holding that record and removes
  /// every later segment. Recovery uses this to drop crc-valid records
  /// that fail to decode or do not chain. Only valid before any new Stage.
  Status TruncateAfterRecord(size_t keep);

  /// Bytes of valid log across all live segments — the replay cost a
  /// crash right now would incur (staged-but-unsynced bytes included).
  uint64_t size_bytes() const;

  /// Write-path counters since Open (for DurabilityStats).
  struct Stats {
    uint64_t staged_records = 0;  ///< records staged (or appended)
    uint64_t staged_bytes = 0;    ///< payload+header bytes staged
    uint64_t syncs = 0;           ///< fsyncs issued by Commit/Rotate
    uint64_t synced_records = 0;  ///< records covered by those fsyncs —
                                  ///< synced_records / syncs = group size
  };
  Stats stats() const;

 private:
  WriteAheadLog(Vfs* vfs, std::string dir) : vfs_(vfs), dir_(std::move(dir)) {}

  std::string SegmentPath(uint64_t seq) const;
  /// Opens/creates the active segment file if not already open.
  Status EnsureActiveOpenLocked();

  Vfs* vfs_;
  std::string dir_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t active_seq_ = 1;
  std::shared_ptr<VfsFile> active_file_;  // shared: a leader's in-flight
                                          // sync survives a Rotate swap
  uint64_t end_ = 0;            // valid end offset in the active segment
  std::map<uint64_t, uint64_t> sealed_bytes_;  // seq -> size of sealed segs
  uint64_t staged_count_ = 0;   // records staged, cumulative
  uint64_t durable_count_ = 0;  // records known durable
  bool sync_in_flight_ = false;
  Stats stats_;

  // Per-record cut points of the prefix Open() scanned (segment seq, end
  // offset after the record) — consumed by TruncateAfterRecord.
  struct RecordPos {
    uint64_t segment = 0;
    uint64_t end_offset = 0;
  };
  std::vector<RecordPos> open_record_pos_;
  uint64_t open_first_segment_ = 1;
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_WAL_H_
