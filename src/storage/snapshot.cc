// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the checkpoint store (storage/snapshot.h): the
// temp-then-rename write protocol for link files, the CRC-validated chain
// walk with fallback, and chain-aware GC keeping the newest kKeepChains.
//
// On-disk link layout (little-endian):
//   [magic u32][version u32][base u64][epoch u64][payload_len u64]
//   [payload bytes][crc32 u32 over everything preceding]

#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "storage/wal.h"  // Crc32
#include "util/codec.h"

namespace sae::storage {

namespace {

constexpr uint32_t kLinkMagic = 0x53414543;  // "SAEC"
constexpr uint32_t kLinkVersion = 1;
constexpr size_t kHeader = 4 + 4 + 8 + 8 + 8;
constexpr const char* kTmpName = "ckpt.tmp";
constexpr const char* kPrefix = "ckpt-";
constexpr size_t kEpochDigits = 20;  // zero-padded u64 — names sort by epoch

bool ParseDigits(const std::string& name, size_t pos, uint64_t* value) {
  uint64_t out = 0;
  for (size_t i = pos; i < pos + kEpochDigits; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    out = out * 10 + uint64_t(name[i] - '0');
  }
  *value = out;
  return true;
}

/// Parses "ckpt-<20 digits>-<20 digits>" into (base, epoch); false for any
/// other name (including the temp file and truncated/garbage names).
bool ParseLinkName(const std::string& name, uint64_t* base, uint64_t* epoch) {
  const size_t prefix = std::string(kPrefix).size();
  if (name.size() != prefix + kEpochDigits + 1 + kEpochDigits) return false;
  if (name.compare(0, prefix, kPrefix) != 0) return false;
  if (name[prefix + kEpochDigits] != '-') return false;
  return ParseDigits(name, prefix, base) &&
         ParseDigits(name, prefix + kEpochDigits + 1, epoch);
}

/// A file of the older two-kind format: a full `snap-<epoch>` or a
/// `delta-<base>-<epoch>` link.
bool IsOlderFormat(const std::string& name) {
  return name.rfind("snap-", 0) == 0 || name.rfind("delta-", 0) == 0;
}

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

/// A link the walk may step past: damaged or gone, not an I/O failure.
bool Skippable(const Status& status) {
  return status.code() == StatusCode::kCorruption ||
         status.code() == StatusCode::kNotFound;
}

}  // namespace

SnapshotStore::SnapshotStore(Vfs* vfs, std::string dir)
    : vfs_(vfs), dir_(std::move(dir)) {}

std::string SnapshotStore::PathFor(uint64_t base, uint64_t epoch) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020llu-%020llu", kPrefix,
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(epoch));
  return dir_ + "/" + name;
}

Status SnapshotStore::Write(uint64_t base, uint64_t epoch,
                            uint64_t payload_len,
                            const PayloadSource& source) {
  uint8_t header[kHeader];
  EncodeU32(header, kLinkMagic);
  EncodeU32(header + 4, kLinkVersion);
  EncodeU64(header + 8, base);
  EncodeU64(header + 16, epoch);
  EncodeU64(header + 24, payload_len);

  // Temp-then-rename: content becomes durable at the Sync, the name at the
  // Rename. A crash before the rename leaves only the temp file (ignored
  // by the name parser); a crash after it leaves a complete file.
  SAE_RETURN_NOT_OK(vfs_->MkDir(dir_));
  const std::string tmp = dir_ + "/" + kTmpName;
  {
    SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs_->Open(tmp, true));
    // Sized once: the streamed writes below fill it without regrowing it.
    const uint64_t end = kHeader + payload_len;
    SAE_RETURN_NOT_OK(file->Truncate(end + 4));
    SAE_RETURN_NOT_OK(file->WriteAt(0, header, kHeader));
    FileSink sink(file.get(), kHeader, Crc32(header, kHeader));
    SAE_RETURN_NOT_OK(source(&sink));
    if (sink.offset() != end) {
      return Status::InvalidArgument(
          "checkpoint payload does not match its declared length");
    }
    uint8_t trailer[4];
    EncodeU32(trailer, sink.crc());
    SAE_RETURN_NOT_OK(file->WriteAt(end, trailer, sizeof(trailer)));
    SAE_RETURN_NOT_OK(file->Sync());
  }
  SAE_RETURN_NOT_OK(vfs_->Rename(tmp, PathFor(base, epoch)));
  if (base != 0) return Status::OK();

  // Chain GC: a new base-0 link completes the previous chain. Keep the
  // newest kKeepChains base-0 links and every link at or above the oldest
  // kept one (those are the kept chains' links); everything below belongs
  // to a retired chain. Runs after the rename so a crash during GC can only
  // lose already-redundant files.
  SAE_ASSIGN_OR_RETURN(auto links, ListLinks());
  std::vector<uint64_t> fulls;
  for (const auto& [link_base, link_epoch] : links) {
    if (link_base == 0) fulls.push_back(link_epoch);
  }
  if (fulls.size() <= kKeepChains) return Status::OK();
  const uint64_t cutoff = fulls[fulls.size() - kKeepChains];
  for (const auto& [link_base, link_epoch] : links) {
    if (link_epoch < cutoff) {
      SAE_RETURN_NOT_OK(vfs_->Remove(PathFor(link_base, link_epoch)));
    }
  }
  return Status::OK();
}

Result<std::vector<std::pair<uint64_t, uint64_t>>> SnapshotStore::ListLinks()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> links;
  SAE_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs_->List(dir_));
  for (const std::string& name : names) {
    if (IsOlderFormat(name)) {
      return Status::Unimplemented(
          dir_ + " holds " + name +
          " of the older snap-/delta- checkpoint format; re-outsource from "
          "the data owner");
    }
    uint64_t base = 0, epoch = 0;
    if (ParseLinkName(name, &base, &epoch)) links.emplace_back(base, epoch);
  }
  std::sort(links.begin(), links.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second, a.first) < std::tie(b.second, b.first);
  });
  return links;
}

Result<std::vector<uint8_t>> SnapshotStore::ReadLink(uint64_t base,
                                                     uint64_t epoch) const {
  if (base >= epoch) {
    // A link must advance the epoch. The writer never produces base >=
    // epoch; a file claiming it (self-link or backward link) is an on-disk
    // adversary or a corrupt name, and accepting it could stall the chain
    // walk on a link that never moves the cursor forward.
    return Status::Corruption("checkpoint link does not advance its base");
  }
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                       vfs_->Open(PathFor(base, epoch), false));
  SAE_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  uint8_t header[kHeader];
  if (size < kHeader + 4) return Status::Corruption("checkpoint is torn");
  SAE_ASSIGN_OR_RETURN(size_t got, file->ReadAt(0, header, kHeader));
  if (got < kHeader) return Status::Corruption("checkpoint is torn");
  if (DecodeU32(header) != kLinkMagic ||
      DecodeU32(header + 4) != kLinkVersion ||
      DecodeU64(header + 8) != base || DecodeU64(header + 16) != epoch) {
    return Status::Corruption("checkpoint header does not match its name");
  }
  const uint64_t payload_len = DecodeU64(header + 24);
  if (payload_len != size - kHeader - 4) {
    return Status::Corruption("checkpoint length lies");
  }
  // The payload and trailer are read straight into the buffer returned:
  // the file is never held twice.
  std::vector<uint8_t> payload(payload_len + 4);
  SAE_ASSIGN_OR_RETURN(got,
                       file->ReadAt(kHeader, payload.data(), payload.size()));
  if (got < payload.size()) return Status::Corruption("checkpoint is torn");
  const uint32_t stored_crc = DecodeU32(payload.data() + payload_len);
  payload.resize(payload_len);
  if (Crc32(payload.data(), payload_len, Crc32(header, kHeader)) !=
      stored_crc) {
    return Status::Corruption("checkpoint checksum mismatch");
  }
  return payload;
}

Result<SnapshotStore::LoadedChain> SnapshotStore::LoadChain() const {
  SAE_ASSIGN_OR_RETURN(auto links, ListLinks());
  LoadedChain chain;
  // Appends the link if it validates; false for a link to step past.
  auto take = [&](uint64_t base, uint64_t epoch) -> Result<bool> {
    auto payload = ReadLink(base, epoch);
    if (!payload.ok()) {
      if (Skippable(payload.status())) return false;
      return payload.status();
    }
    chain.links.push_back(Link{base, epoch, std::move(payload.value())});
    return true;
  };

  // The newest valid base-0 link starts the chain; a bad one falls back to
  // the next-newest (the kKeepChains = 2 fallback).
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    if (it->first != 0) continue;
    SAE_ASSIGN_OR_RETURN(bool taken, take(0, it->second));
    if (taken) break;
    chain.fell_back = true;
  }
  if (chain.links.empty()) {
    return Status::NotFound("no valid checkpoint in " + dir_);
  }

  for (;;) {
    // Candidates following the current tail, oldest epoch first — the
    // original chain wrote exactly one; a second can only appear after a
    // fallback re-chained from an older tail, and then only because the
    // first was invalid.
    const uint64_t cursor = chain.links.back().epoch;
    bool advanced = false;
    bool saw_candidate = false;
    for (const auto& [link_base, link_epoch] : links) {
      // Only links that strictly advance the cursor can extend the chain:
      // a self-link (base == epoch) or backward link would otherwise be
      // re-visited forever. With every accepted step strictly increasing
      // the cursor, the walk terminates even against adversarial names.
      if (link_base != cursor || link_epoch <= link_base) continue;
      saw_candidate = true;
      // Never compose past a bad link; try a sibling.
      SAE_ASSIGN_OR_RETURN(advanced, take(link_base, link_epoch));
      if (advanced) break;
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
