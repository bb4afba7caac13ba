// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the segmented write-ahead log (storage/wal.h): CRC-32, the
// per-segment prefix scan that defines recoverability, segment rotation and
// drop, and the stage/commit group sequencer.

#include "storage/wal.h"

#include <algorithm>
#include <cstdio>

#include "util/codec.h"

namespace sae::storage {

namespace {

// tables[0] is the bytewise table; tables[k][i] is the CRC of byte i
// followed by k zero bytes, so eight lookups fold in eight bytes at once.
struct Crc32Tables {
  uint32_t tables[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
      }
      tables[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t prev = tables[k - 1][i];
        tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
      }
    }
  }
};

constexpr const char* kWalPrefix = "wal-";
constexpr size_t kWalSeqDigits = 20;  // zero-padded u64 — names sort by seq

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len, uint32_t crc) {
  static const Crc32Tables crc_tables;
  const auto& t = crc_tables.tables;
  crc = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo = DecodeU32(data) ^ crc;
    uint32_t hi = DecodeU32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  }
  return ~crc;
}

Result<WalContents> ReadLog(Vfs* vfs, const std::string& path) {
  WalContents out;
  if (!vfs->Exists(path)) return out;
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs->Open(path, false));
  SAE_ASSIGN_OR_RETURN(uint64_t size, file->Size());

  uint64_t offset = 0;
  uint8_t header[kWalRecordHeader];
  while (offset + kWalRecordHeader <= size) {
    SAE_ASSIGN_OR_RETURN(size_t got,
                         file->ReadAt(offset, header, kWalRecordHeader));
    if (got < kWalRecordHeader) break;  // torn header
    uint32_t len = DecodeU32(header);
    uint32_t crc = DecodeU32(header + 4);
    // A lying length prefix (absurd size or past EOF) ends the valid
    // prefix before any allocation happens.
    if (len > kMaxWalPayload || offset + kWalRecordHeader + len > size) break;
    std::vector<uint8_t> payload(len);
    SAE_ASSIGN_OR_RETURN(
        got, file->ReadAt(offset + kWalRecordHeader, payload.data(), len));
    if (got < len || Crc32(payload.data(), len) != crc) break;
    out.records.push_back(std::move(payload));
    offset += kWalRecordHeader + len;
  }
  out.valid_bytes = offset;
  out.torn_tail = offset < size;
  return out;
}

bool ParseWalSegmentName(const std::string& name, uint64_t* seq) {
  if (name.size() != std::string(kWalPrefix).size() + kWalSeqDigits) {
    return false;
  }
  if (name.compare(0, 4, kWalPrefix) != 0) return false;
  uint64_t value = 0;
  for (size_t i = 4; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + uint64_t(name[i] - '0');
  }
  *seq = value;
  return true;
}

std::string WalSegmentName(uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%020llu", kWalPrefix,
                static_cast<unsigned long long>(seq));
  return name;
}

std::string WriteAheadLog::SegmentPath(uint64_t seq) const {
  return dir_ + "/" + WalSegmentName(seq);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    Vfs* vfs, const std::string& dir, WalContents* contents) {
  SAE_RETURN_NOT_OK(vfs->MkDir(dir));
  auto log = std::unique_ptr<WriteAheadLog>(new WriteAheadLog(vfs, dir));

  std::vector<uint64_t> seqs;
  SAE_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs->List(dir));
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseWalSegmentName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());

  WalContents all;
  bool cut = false;  // a torn tail ended the global prefix
  uint64_t last_live = 0;
  for (uint64_t seq : seqs) {
    if (cut) {
      // A valid record can never legitimately follow a torn one: every
      // later segment is post-crash garbage.
      SAE_RETURN_NOT_OK(vfs->Remove(log->SegmentPath(seq)));
      continue;
    }
    SAE_ASSIGN_OR_RETURN(WalContents scanned,
                         ReadLog(vfs, log->SegmentPath(seq)));
    uint64_t running = 0;
    for (std::vector<uint8_t>& record : scanned.records) {
      running += kWalRecordHeader + record.size();
      log->open_record_pos_.push_back({seq, running});
      all.records.push_back(std::move(record));
    }
    all.valid_bytes += scanned.valid_bytes;
    log->sealed_bytes_[seq] = scanned.valid_bytes;
    last_live = seq;
    if (scanned.torn_tail) {
      all.torn_tail = true;
      cut = true;
      // Drop the torn/corrupt tail so future stages extend a valid prefix.
      // Volatile until the next sync — harmless, since the scan would cut
      // the same tail again after a crash.
      SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                           vfs->Open(log->SegmentPath(seq), false));
      SAE_RETURN_NOT_OK(file->Truncate(scanned.valid_bytes));
    }
  }

  if (last_live != 0) {
    // The highest surviving segment becomes the active one.
    log->active_seq_ = last_live;
    log->end_ = log->sealed_bytes_[last_live];
    log->sealed_bytes_.erase(last_live);
    log->open_first_segment_ = seqs.front();
  }
  log->staged_count_ = log->durable_count_ = all.records.size();
  if (contents != nullptr) *contents = std::move(all);
  return log;
}

Status WriteAheadLog::EnsureActiveOpenLocked() {
  if (active_file_ != nullptr) return Status::OK();
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                       vfs_->Open(SegmentPath(active_seq_), true));
  active_file_ = std::shared_ptr<VfsFile>(std::move(file));
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::Stage(const uint8_t* payload, size_t len) {
  if (len > kMaxWalPayload) {
    return Status::InvalidArgument("wal record exceeds payload cap");
  }
  std::unique_lock<std::mutex> lock(mu_);
  SAE_RETURN_NOT_OK(EnsureActiveOpenLocked());
  uint8_t header[kWalRecordHeader];
  EncodeU32(header, uint32_t(len));
  EncodeU32(header + 4, Crc32(payload, len));
  SAE_RETURN_NOT_OK(active_file_->WriteAt(end_, header, kWalRecordHeader));
  SAE_RETURN_NOT_OK(
      active_file_->WriteAt(end_ + kWalRecordHeader, payload, len));
  end_ += kWalRecordHeader + len;
  ++staged_count_;
  ++stats_.staged_records;
  stats_.staged_bytes += kWalRecordHeader + len;
  cv_.notify_all();  // parked committers re-check; the next leader covers it
  return staged_count_;
}

Status WriteAheadLog::Commit(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  while (durable_count_ < seq) {
    if (sync_in_flight_) {
      // Someone else's fsync is running; it may cover us. Re-check after.
      cv_.wait(lock);
      continue;
    }
    // Become the group leader: one fsync for everything staged so far.
    sync_in_flight_ = true;
    uint64_t target = staged_count_;
    std::shared_ptr<VfsFile> file = active_file_;
    lock.unlock();
    Status st = file != nullptr ? file->Sync() : Status::OK();
    lock.lock();
    sync_in_flight_ = false;
    if (!st.ok()) {
      // Wake everyone; each waiter retries as its own leader and surfaces
      // its own failure — nobody reports durable on the strength of a
      // failed fsync.
      cv_.notify_all();
      return st;
    }
    ++stats_.syncs;
    if (target > durable_count_) {
      stats_.synced_records += target - durable_count_;
      durable_count_ = target;
    }
    cv_.notify_all();
  }
  return Status::OK();
}

Status WriteAheadLog::Append(const uint8_t* payload, size_t len) {
  SAE_ASSIGN_OR_RETURN(uint64_t seq, Stage(payload, len));
  return Commit(seq);
}

Result<uint64_t> WriteAheadLog::Rotate() {
  std::unique_lock<std::mutex> lock(mu_);
  if (end_ == 0) {
    // Nothing staged into the active segment since the last seal: no new
    // segment needed; everything strictly older is what the checkpoint
    // covers.
    return active_seq_ - 1;
  }
  // All staged records must be durable before the seal — normally they
  // already are (checkpoints capture at a quiescent point, after every
  // staged update committed and applied), making this loop barrier-free.
  while (durable_count_ < staged_count_) {
    if (sync_in_flight_) {
      cv_.wait(lock);
      continue;
    }
    sync_in_flight_ = true;
    uint64_t target = staged_count_;
    std::shared_ptr<VfsFile> file = active_file_;
    lock.unlock();
    Status st = file != nullptr ? file->Sync() : Status::OK();
    lock.lock();
    sync_in_flight_ = false;
    cv_.notify_all();
    if (!st.ok()) return st;
    ++stats_.syncs;
    if (target > durable_count_) {
      stats_.synced_records += target - durable_count_;
      durable_count_ = target;
    }
  }
  uint64_t sealed = active_seq_;
  sealed_bytes_[sealed] = end_;
  active_seq_ = sealed + 1;
  active_file_.reset();
  end_ = 0;
  return sealed;
}

Status WriteAheadLog::DropSegmentsThrough(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = sealed_bytes_.begin(); it != sealed_bytes_.end();) {
    if (it->first > seq) break;
    const std::string path = SegmentPath(it->first);
    if (vfs_->Exists(path)) SAE_RETURN_NOT_OK(vfs_->Remove(path));
    it = sealed_bytes_.erase(it);
  }
  return Status::OK();
}

Status WriteAheadLog::TruncateAfterRecord(size_t keep) {
  std::unique_lock<std::mutex> lock(mu_);
  if (keep >= open_record_pos_.size()) return Status::OK();
  RecordPos pos = keep > 0 ? open_record_pos_[keep - 1]
                           : RecordPos{open_first_segment_, 0};
  // Remove every segment past the cut point; the cut segment becomes the
  // active one, truncated to the last kept record.
  for (auto it = sealed_bytes_.upper_bound(pos.segment);
       it != sealed_bytes_.end();) {
    const std::string path = SegmentPath(it->first);
    if (vfs_->Exists(path)) SAE_RETURN_NOT_OK(vfs_->Remove(path));
    it = sealed_bytes_.erase(it);
  }
  if (active_seq_ != pos.segment) {
    const std::string path = SegmentPath(active_seq_);
    if (vfs_->Exists(path)) SAE_RETURN_NOT_OK(vfs_->Remove(path));
    active_file_.reset();
    active_seq_ = pos.segment;
    sealed_bytes_.erase(pos.segment);
  }
  end_ = pos.end_offset;
  SAE_RETURN_NOT_OK(EnsureActiveOpenLocked());
  // Volatile until the next sync — the scan would cut the same tail again.
  SAE_RETURN_NOT_OK(active_file_->Truncate(end_));
  staged_count_ = durable_count_ = keep;
  open_record_pos_.resize(keep);
  return Status::OK();
}

uint64_t WriteAheadLog::size_bytes() const {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t total = end_;
  for (const auto& [seq, bytes] : sealed_bytes_) total += bytes;
  return total;
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sae::storage
