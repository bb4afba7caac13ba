// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Epoch-versioned snapshots: the durable baseline recovery starts from.
// Two file kinds live in one directory:
//
//   snap-<epoch020>            a FULL snapshot — one serialized system
//                              state (the payload is opaque here;
//                              core/durability.h defines it)
//   delta-<base020>-<epoch020> a DELTA — only the changes between the
//                              checkpoint at `base` and this one; each
//                              delta names its immediate predecessor, so
//                              full + deltas form an epoch-linked CHAIN
//                              whose tail is the newest durable state
//
// Atomicity protocol (write-temp-then-rename), identical for both kinds:
//   1. write  <dir>/snap.tmp  = header + payload + CRC-32 trailer, sized
//                               once to its final length and streamed in
//                               (the CRC runs along with the bytes; no
//                               whole-file buffer is ever built)
//   2. sync it                           (sync point: content durable)
//   3. rename to its final name          (sync point: name durable)
//   4. (full writes only) GC whole chains older than the newest
//      kKeepChains
// A crash anywhere leaves either the previous chain set intact or the new
// file fully in place — a torn file is never visible under a final name,
// and a bit-flipped one fails its CRC: LoadChain never composes past a bad
// link, it stops at the longest intact prefix (or falls back to an older
// full snapshot entirely).

#ifndef SAE_STORAGE_SNAPSHOT_H_
#define SAE_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "storage/vfs.h"
#include "util/status.h"

namespace sae::storage {

class SnapshotStore {
 public:
  /// Full-snapshot chains that survive GC: two keep a whole fallback
  /// chain behind a corrupt newest.
  static constexpr size_t kKeepChains = 2;

  /// `dir` must exist (or be creatable).
  SnapshotStore(Vfs* vfs, std::string dir);

  /// Where a streamed payload goes: each Put appends the next `n` bytes.
  class PayloadSink {
   public:
    virtual ~PayloadSink() = default;
    virtual Status Put(const uint8_t* data, size_t n) = 0;
  };
  /// Puts exactly the promised payload length into the sink, in order, in
  /// pieces of any size.
  using PayloadSource = std::function<Status(PayloadSink*)>;

  /// Persists the `payload_len` bytes `source` streams as the FULL
  /// snapshot for `epoch` (see protocol above). Two sync points. GCs
  /// chains beyond the newest kKeepChains. A source that puts any other
  /// length fails the write before the rename.
  Status Write(uint64_t epoch, uint64_t payload_len,
               const PayloadSource& source);
  Status Write(uint64_t epoch, const std::vector<uint8_t>& payload);

  /// Persists a DELTA from the checkpoint at `base_epoch` to `epoch`, as
  /// Write does. Two sync points. No GC — a chain is collected as a whole
  /// when a later full snapshot retires it.
  Status WriteDelta(uint64_t base_epoch, uint64_t epoch, uint64_t payload_len,
                    const PayloadSource& source);
  Status WriteDelta(uint64_t base_epoch, uint64_t epoch,
                    const std::vector<uint8_t>& payload);

  struct Loaded {
    uint64_t epoch = 0;
    std::vector<uint8_t> payload;
    /// True when the newest snap-* file was invalid and an older one was
    /// used — recovery will come back at an older epoch, which the client
    /// freshness gate surfaces as kStaleEpoch rather than trusting it.
    bool fell_back = false;
  };

  /// Newest valid FULL snapshot; kNotFound when none exists. (Chain-blind;
  /// LoadChain is the recovery entry point.)
  Result<Loaded> LoadLatest() const;

  /// One link of a loaded chain.
  struct ChainLink {
    uint64_t base_epoch = 0;
    uint64_t epoch = 0;
    std::vector<uint8_t> payload;
  };

  /// The newest intact chain: a valid full snapshot plus every delta that
  /// validly links onto it, in order. The walk stops at the first missing
  /// or corrupt link — it never composes past one — and a corrupt full
  /// snapshot falls back to the next-newest chain entirely.
  struct LoadedChain {
    uint64_t base_epoch = 0;
    std::vector<uint8_t> base_payload;
    std::vector<ChainLink> deltas;
    /// An invalid file was skipped somewhere: either an older full was
    /// used, or the delta walk stopped at a bad link that existed.
    bool fell_back = false;
  };

  /// kNotFound when no valid full snapshot exists at all.
  Result<LoadedChain> LoadChain() const;

  /// Epochs of the snap-* full files present, ascending (validity not
  /// checked).
  Result<std::vector<uint64_t>> ListEpochs() const;

  /// (base, epoch) of the delta-* files present, ascending by epoch
  /// (validity not checked).
  Result<std::vector<std::pair<uint64_t, uint64_t>>> ListDeltaLinks() const;

  /// Validates and returns one delta file's payload; any mismatch
  /// (magic, version, header/name disagreement, CRC) is kCorruption,
  /// as is a link that does not advance its base epoch.
  Result<std::vector<uint8_t>> ReadDelta(uint64_t base_epoch,
                                         uint64_t epoch) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string PathFor(uint64_t epoch) const;
  std::string DeltaPathFor(uint64_t base_epoch, uint64_t epoch) const;
  /// The one writer behind both file kinds: `header`, then the streamed
  /// payload, then the CRC trailer into the temp file; sync; rename.
  Status WriteFile(const std::vector<uint8_t>& header, uint64_t payload_len,
                   const PayloadSource& source,
                   const std::string& final_path);

  Vfs* vfs_;
  std::string dir_;
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_SNAPSHOT_H_
