// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Epoch-versioned checkpoints: the durable baseline recovery starts from.
// One file kind lives in the directory:
//
//   ckpt-<base020>-<epoch020>  a LINK from the checkpoint at `base` to the
//                              one at `epoch`: the changes between the two
//                              (the payload is opaque here;
//                              core/durability.h defines it). A full
//                              snapshot is the link from the empty state,
//                              base 0. Links name their predecessor, so a
//                              base-0 link and the links that follow it
//                              form an epoch-linked CHAIN whose tail is the
//                              newest durable state.
//
// Atomicity protocol (write-temp-then-rename):
//   1. write  <dir>/ckpt.tmp  = header + payload + CRC-32 trailer, sized
//                               once to its final length and streamed in
//                               (the CRC runs along with the bytes; no
//                               whole-file buffer is ever built)
//   2. sync it                           (sync point: content durable)
//   3. rename to its final name          (sync point: name durable)
//   4. (base-0 links only) GC whole chains older than the newest
//      kKeepChains
// A crash anywhere leaves either the previous chain set intact or the new
// file fully in place — a torn file is never visible under a final name,
// and a bit-flipped one fails its CRC: LoadChain never composes past a bad
// link, it stops at the longest intact prefix (or falls back to an older
// base-0 link entirely).
//
// A directory holding `snap-`/`delta-` files was written by the older
// two-kind format; it is refused with kUnimplemented, never read as empty.

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
  /// Chains (base-0 links and their successors) that survive GC: two keep
  /// a whole fallback chain behind a corrupt newest.
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

  /// Persists the `payload_len` bytes `source` streams as the link from
  /// `base` to `epoch` (see protocol above). Two sync points. A base-0 link
  /// GCs chains beyond the newest kKeepChains. A source that puts any other
  /// length fails the write before the rename.
  Status Write(uint64_t base, uint64_t epoch, uint64_t payload_len,
               const PayloadSource& source);

  /// One link of a loaded chain.
  struct Link {
    uint64_t base = 0;
    uint64_t epoch = 0;
    std::vector<uint8_t> payload;
  };

  /// The newest intact chain: a valid base-0 link plus every link that
  /// validly follows it, in order. The walk stops at the first missing or
  /// corrupt link — it never composes past one — and a corrupt base-0 link
  /// falls back to the next-newest chain entirely.
  struct LoadedChain {
    std::vector<Link> links;  ///< never empty; links[0].base == 0
    /// An invalid file was skipped somewhere: either an older base-0 link
    /// was used, or the walk stopped at a bad link that existed. Recovery
    /// then comes back at an older epoch, which the client freshness gate
    /// surfaces as kStaleEpoch rather than trusting it.
    bool fell_back = false;
  };

  /// kNotFound when no valid base-0 link exists at all.
  Result<LoadedChain> LoadChain() const;

  /// (base, epoch) of the link files present, ascending by epoch (validity
  /// not checked). kUnimplemented when the directory holds files of the
  /// older snap-/delta- format.
  Result<std::vector<std::pair<uint64_t, uint64_t>>> ListLinks() const;

  /// Validates and returns one link file's payload; any mismatch (magic,
  /// version, header/name disagreement, CRC) is kCorruption, as is a link
  /// that does not advance its base epoch.
  Result<std::vector<uint8_t>> ReadLink(uint64_t base, uint64_t epoch) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string PathFor(uint64_t base, uint64_t epoch) const;

  Vfs* vfs_;
  std::string dir_;
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_SNAPSHOT_H_
