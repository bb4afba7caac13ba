// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the snapshot store (storage/snapshot.h): the temp-then-rename
// write protocol for full and delta files, the CRC-validated chain walk
// with fallback, and chain-aware GC keeping the newest kKeepChains.
//
// On-disk full-snapshot layout (little-endian):
//   [magic u32][version u32][epoch u64][payload_len u64]
//   [payload bytes][crc32 u32 over everything preceding]
// Delta layout adds the base epoch:
//   [magic u32][version u32][base u64][epoch u64][payload_len u64]
//   [payload bytes][crc32 u32 over everything preceding]

#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "storage/wal.h"  // Crc32
#include "util/codec.h"

namespace sae::storage {

namespace {

constexpr uint32_t kSnapshotMagic = 0x53414553;  // "SAES"
constexpr uint32_t kDeltaMagic = 0x53414544;     // "SAED"
constexpr uint32_t kSnapshotVersion = 1;
constexpr size_t kSnapshotHeader = 4 + 4 + 8 + 8;
constexpr size_t kDeltaHeader = 4 + 4 + 8 + 8 + 8;
constexpr const char* kTmpName = "snap.tmp";
constexpr const char* kSnapPrefix = "snap-";
constexpr const char* kDeltaPrefix = "delta-";
constexpr size_t kEpochDigits = 20;  // zero-padded u64 — names sort by epoch

bool ParseDigits(const std::string& name, size_t pos, size_t count,
                 uint64_t* value) {
  uint64_t out = 0;
  for (size_t i = pos; i < pos + count; ++i) {
    if (i >= name.size() || name[i] < '0' || name[i] > '9') return false;
    out = out * 10 + uint64_t(name[i] - '0');
  }
  *value = out;
  return true;
}

/// Parses "snap-<20 digits>" into the epoch; false for any other name
/// (including the temp file and truncated/garbage names).
bool ParseSnapshotName(const std::string& name, uint64_t* epoch) {
  const size_t prefix = std::string(kSnapPrefix).size();
  if (name.size() != prefix + kEpochDigits) return false;
  if (name.compare(0, prefix, kSnapPrefix) != 0) return false;
  return ParseDigits(name, prefix, kEpochDigits, epoch);
}

/// Parses "delta-<20 digits>-<20 digits>" into (base, epoch).
bool ParseDeltaName(const std::string& name, uint64_t* base,
                    uint64_t* epoch) {
  const size_t prefix = std::string(kDeltaPrefix).size();
  if (name.size() != prefix + kEpochDigits + 1 + kEpochDigits) return false;
  if (name.compare(0, prefix, kDeltaPrefix) != 0) return false;
  if (name[prefix + kEpochDigits] != '-') return false;
  return ParseDigits(name, prefix, kEpochDigits, base) &&
         ParseDigits(name, prefix + kEpochDigits + 1, kEpochDigits, epoch);
}

}  // namespace

SnapshotStore::SnapshotStore(Vfs* vfs, std::string dir)
    : vfs_(vfs), dir_(std::move(dir)) {}

std::string SnapshotStore::PathFor(uint64_t epoch) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%020llu", kSnapPrefix,
                static_cast<unsigned long long>(epoch));
  return dir_ + "/" + name;
}

std::string SnapshotStore::DeltaPathFor(uint64_t base_epoch,
                                        uint64_t epoch) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020llu-%020llu", kDeltaPrefix,
                static_cast<unsigned long long>(base_epoch),
                static_cast<unsigned long long>(epoch));
  return dir_ + "/" + name;
}

namespace {

/// Streams payload bytes into the temp file right behind its header,
/// carrying the CRC along.
class FileSink final : public SnapshotStore::PayloadSink {
 public:
  FileSink(VfsFile* file, uint64_t offset, uint32_t crc)
      : file_(file), offset_(offset), crc_(crc) {}

  Status Put(const uint8_t* data, size_t n) override {
    if (n == 0) return Status::OK();  // an empty vector's data() may be null
    SAE_RETURN_NOT_OK(file_->WriteAt(offset_, data, n));
    crc_ = Crc32(data, n, crc_);
    offset_ += n;
    return Status::OK();
  }

  uint64_t offset() const { return offset_; }
  uint32_t crc() const { return crc_; }

 private:
  VfsFile* file_;
  uint64_t offset_;
  uint32_t crc_;
};

SnapshotStore::PayloadSource WholePayload(
    const std::vector<uint8_t>& payload) {
  return [&payload](SnapshotStore::PayloadSink* sink) {
    return sink->Put(payload.data(), payload.size());
  };
}

}  // namespace

Status SnapshotStore::WriteFile(const std::vector<uint8_t>& header,
                                uint64_t payload_len,
                                const PayloadSource& source,
                                const std::string& final_path) {
  // Temp-then-rename: content becomes durable at the Sync, the name at the
  // Rename. A crash before the rename leaves only snap.tmp (ignored by the
  // name parsers); a crash after it leaves a complete file.
  SAE_RETURN_NOT_OK(vfs_->MkDir(dir_));
  const std::string tmp = dir_ + "/" + kTmpName;
  {
    SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs_->Open(tmp, true));
    // Sized once: the streamed writes below fill it without regrowing it.
    const uint64_t end = header.size() + payload_len;
    SAE_RETURN_NOT_OK(file->Truncate(end + 4));
    SAE_RETURN_NOT_OK(file->WriteAt(0, header.data(), header.size()));
    FileSink sink(file.get(), header.size(),
                  Crc32(header.data(), header.size()));
    SAE_RETURN_NOT_OK(source(&sink));
    if (sink.offset() != end) {
      return Status::InvalidArgument(
          "snapshot payload does not match its declared length");
    }
    uint8_t trailer[4];
    EncodeU32(trailer, sink.crc());
    SAE_RETURN_NOT_OK(file->WriteAt(end, trailer, sizeof(trailer)));
    SAE_RETURN_NOT_OK(file->Sync());
  }
  return vfs_->Rename(tmp, final_path);
}

Status SnapshotStore::Write(uint64_t epoch, uint64_t payload_len,
                            const PayloadSource& source) {
  std::vector<uint8_t> header(kSnapshotHeader);
  EncodeU32(header.data(), kSnapshotMagic);
  EncodeU32(header.data() + 4, kSnapshotVersion);
  EncodeU64(header.data() + 8, epoch);
  EncodeU64(header.data() + 16, payload_len);
  SAE_RETURN_NOT_OK(WriteFile(header, payload_len, source, PathFor(epoch)));

  // Chain GC: a new full snapshot completes the previous chain. Keep the
  // newest kKeepChains fulls and every delta at or above the oldest kept full
  // (those are the kept chains' links); everything below belongs to a
  // retired chain. Runs after the rename so a crash during GC can only
  // lose already-redundant files.
  SAE_ASSIGN_OR_RETURN(std::vector<uint64_t> epochs, ListEpochs());
  if (epochs.size() > kKeepChains) {
    uint64_t cutoff = epochs[epochs.size() - kKeepChains];
    for (size_t i = 0; i + kKeepChains < epochs.size(); ++i) {
      SAE_RETURN_NOT_OK(vfs_->Remove(PathFor(epochs[i])));
    }
    SAE_ASSIGN_OR_RETURN(auto links, ListDeltaLinks());
    for (const auto& [base, delta_epoch] : links) {
      if (delta_epoch < cutoff) {
        SAE_RETURN_NOT_OK(vfs_->Remove(DeltaPathFor(base, delta_epoch)));
      }
    }
  }
  return Status::OK();
}

Status SnapshotStore::Write(uint64_t epoch,
                            const std::vector<uint8_t>& payload) {
  return Write(epoch, payload.size(), WholePayload(payload));
}

Status SnapshotStore::WriteDelta(uint64_t base_epoch, uint64_t epoch,
                                 uint64_t payload_len,
                                 const PayloadSource& source) {
  std::vector<uint8_t> header(kDeltaHeader);
  EncodeU32(header.data(), kDeltaMagic);
  EncodeU32(header.data() + 4, kSnapshotVersion);
  EncodeU64(header.data() + 8, base_epoch);
  EncodeU64(header.data() + 16, epoch);
  EncodeU64(header.data() + 24, payload_len);
  return WriteFile(header, payload_len, source,
                   DeltaPathFor(base_epoch, epoch));
}

Status SnapshotStore::WriteDelta(uint64_t base_epoch, uint64_t epoch,
                                 const std::vector<uint8_t>& payload) {
  return WriteDelta(base_epoch, epoch, payload.size(), WholePayload(payload));
}

Result<std::vector<uint64_t>> SnapshotStore::ListEpochs() const {
  std::vector<uint64_t> epochs;
  SAE_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs_->List(dir_));
  for (const std::string& name : names) {
    uint64_t epoch = 0;
    if (ParseSnapshotName(name, &epoch)) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Result<std::vector<std::pair<uint64_t, uint64_t>>>
SnapshotStore::ListDeltaLinks() const {
  std::vector<std::pair<uint64_t, uint64_t>> links;
  SAE_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs_->List(dir_));
  for (const std::string& name : names) {
    uint64_t base = 0, epoch = 0;
    if (ParseDeltaName(name, &base, &epoch)) links.emplace_back(base, epoch);
  }
  std::sort(links.begin(), links.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return links;
}

Result<SnapshotStore::Loaded> SnapshotStore::LoadLatest() const {
  SAE_ASSIGN_OR_RETURN(std::vector<uint64_t> epochs, ListEpochs());
  // Newest first; any file that fails validation is skipped in favor of
  // the next-newest (the kKeepChains = 2 fallback).
  for (size_t attempt = 0; attempt < epochs.size(); ++attempt) {
    uint64_t epoch = epochs[epochs.size() - 1 - attempt];
    auto file_or = vfs_->Open(PathFor(epoch), false);
    if (!file_or.ok()) {
      if (file_or.status().code() == StatusCode::kNotFound) continue;
      return file_or.status();
    }
    std::unique_ptr<VfsFile> file = std::move(file_or.value());
    SAE_ASSIGN_OR_RETURN(uint64_t size, file->Size());
    if (size < kSnapshotHeader + 4) continue;  // torn
    std::vector<uint8_t> image(size);
    SAE_ASSIGN_OR_RETURN(size_t got, file->ReadAt(0, image.data(), size));
    if (got < size) continue;
    if (DecodeU32(image.data()) != kSnapshotMagic) continue;
    if (DecodeU32(image.data() + 4) != kSnapshotVersion) continue;
    uint64_t header_epoch = DecodeU64(image.data() + 8);
    uint64_t payload_len = DecodeU64(image.data() + 16);
    if (header_epoch != epoch) continue;  // file renamed by hand
    if (kSnapshotHeader + payload_len + 4 != size) continue;
    uint32_t stored_crc = DecodeU32(image.data() + size - 4);
    if (Crc32(image.data(), size - 4) != stored_crc) continue;

    Loaded loaded;
    loaded.epoch = epoch;
    loaded.payload.assign(image.begin() + kSnapshotHeader, image.end() - 4);
    loaded.fell_back = attempt > 0;
    return loaded;
  }
  return Status::NotFound("no valid snapshot in " + dir_);
}

Result<std::vector<uint8_t>> SnapshotStore::ReadDelta(uint64_t base_epoch,
                                                      uint64_t epoch) const {
  if (base_epoch >= epoch) {
    // A delta must advance the epoch. The writer never produces base >=
    // epoch; a file claiming it (self-link or backward link) is an on-disk
    // adversary or a corrupt name, and accepting it could stall the chain
    // walk on a link that never moves the cursor forward.
    return Status::Corruption("delta does not advance its base epoch");
  }
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                       vfs_->Open(DeltaPathFor(base_epoch, epoch), false));
  SAE_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < kDeltaHeader + 4) {
    return Status::Corruption("delta file is torn");
  }
  std::vector<uint8_t> image(size);
  SAE_ASSIGN_OR_RETURN(size_t got, file->ReadAt(0, image.data(), size));
  if (got < size) return Status::Corruption("delta file is torn");
  if (DecodeU32(image.data()) != kDeltaMagic ||
      DecodeU32(image.data() + 4) != kSnapshotVersion ||
      DecodeU64(image.data() + 8) != base_epoch ||
      DecodeU64(image.data() + 16) != epoch) {
    return Status::Corruption("delta header does not match its name");
  }
  uint64_t payload_len = DecodeU64(image.data() + 24);
  if (kDeltaHeader + payload_len + 4 != size) {
    return Status::Corruption("delta length lies");
  }
  uint32_t stored_crc = DecodeU32(image.data() + size - 4);
  if (Crc32(image.data(), size - 4) != stored_crc) {
    return Status::Corruption("delta checksum mismatch");
  }
  return std::vector<uint8_t>(image.begin() + kDeltaHeader, image.end() - 4);
}

Result<SnapshotStore::LoadedChain> SnapshotStore::LoadChain() const {
  SAE_ASSIGN_OR_RETURN(Loaded base, LoadLatest());
  LoadedChain chain;
  chain.base_epoch = base.epoch;
  chain.base_payload = std::move(base.payload);
  chain.fell_back = base.fell_back;

  SAE_ASSIGN_OR_RETURN(auto links, ListDeltaLinks());
  uint64_t cursor = chain.base_epoch;
  for (;;) {
    // Candidates linking onto the current tail, oldest epoch first — the
    // original chain wrote exactly one; a second can only appear after a
    // fallback re-chained from an older tail, and then only because the
    // first was invalid.
    bool advanced = false;
    bool saw_candidate = false;
    for (const auto& [link_base, link_epoch] : links) {
      // Only links that strictly advance the cursor can extend the chain:
      // a self-link (base == epoch) or backward link would otherwise be
      // re-visited forever. With every accepted step strictly increasing
      // `cursor`, the walk terminates even against adversarial file names.
      if (link_base != cursor || link_epoch <= link_base) continue;
      saw_candidate = true;
      auto payload = ReadDelta(link_base, link_epoch);
      if (!payload.ok()) {
        if (payload.status().code() == StatusCode::kCorruption ||
            payload.status().code() == StatusCode::kNotFound) {
          continue;  // never compose past a bad link; try a sibling
        }
        return payload.status();
      }
      chain.deltas.push_back(
          ChainLink{link_base, link_epoch, std::move(payload.value())});
      cursor = link_epoch;
      advanced = true;
      break;
    }
    if (!advanced) {
      // A candidate existed but none validated: the chain is cut short of
      // what was once written — recovery comes back older, and the client
      // freshness gate surfaces the difference as kStaleEpoch.
      if (saw_candidate) chain.fell_back = true;
      break;
    }
  }
  return chain;
}

}  // namespace sae::storage
