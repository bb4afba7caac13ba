// Copyright (c) saedb authors. Licensed under the MIT license.
//
// MB-Tree: the state-of-the-art ADS for disk-based range authentication
// (Li et al., SIGMOD'06), as the paper summarizes it in §I: a B+-tree whose
// entries also carry digests. It is btree::BPlusTree in digest mode — every
// leaf entry carries H(record), every internal entry the digest of its child
// page's concatenated digests, and the DO signs the root digest. The page
// format, fanouts (127 / 144+1 versus the plain tree's 340 / 509+1, the root
// cause of TOM's higher SP cost in Fig. 6 and larger index in Fig. 8) and
// all structural maintenance live in btree/bplus_tree.h. This class adds
// only what is MB-specific: the root digest and the covering-subtree VO with
// its boundary records.

#ifndef SAE_MBTREE_MB_TREE_H_
#define SAE_MBTREE_MB_TREE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "btree/bplus_tree.h"
#include "crypto/digest.h"
#include "mbtree/vo.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::mbtree {

using storage::BufferPool;
using storage::Key;
using storage::PageId;
using storage::Rid;

/// A leaf posting: key, record location, record digest.
using MbEntry = btree::DigestEntry;

/// Fanout overrides for tests (0 = derive from page size) and the digest
/// cache depth. The hash scheme is MbTree::Create's argument.
struct MbTreeOptions {
  size_t max_leaf_entries = 0;
  size_t max_internal_keys = 0;
  /// Hot-level digest cache: parsed nodes at depth < hot_cache_levels are
  /// memoized and invalidated precisely along every update path, so
  /// steady-state traversals only parse (and hash over) the leaf frontier.
  /// 0 disables the cache entirely.
  size_t hot_cache_levels = 2;
};

/// Merkle B+-tree: the B+-tree with its digest column, whose whole public
/// interface it keeps (insert, delete, range search, bulk load, walk).
/// Const methods (RangeSearch, BuildVo, Validate) are safe to call from
/// many threads over a thread-safe BufferPool; mutations require exclusive
/// access to the tree.
class MbTree : public btree::BPlusTree {
 public:
  /// An empty tree whose digests hash under `scheme`.
  static Result<std::unique_ptr<MbTree>> Create(
      BufferPool* pool, const MbTreeOptions& options = {},
      crypto::HashScheme scheme = crypto::HashScheme::kSha1);

  /// Fetches a record's canonical bytes given its rid — supplied by the SP
  /// so boundary records are pulled from the (access-counted) dataset file.
  using RecordFetcher =
      std::function<Result<std::vector<uint8_t>>(Rid)>;

  /// Builds the covering-subtree VO for [lo, hi] (paper §I). The signature
  /// field is left empty; the SP attaches the DO's current root signature.
  Result<VerificationObject> BuildVo(Key lo, Key hi,
                                     const RecordFetcher& fetch) const;

  /// Current root digest (the value the DO signs).
  using BPlusTree::root_digest;

  /// Hot-level node cache counters (hits/misses/invalidations/evictions);
  /// snapshot by value, diff to measure a span.
  storage::NodeCacheStats digest_cache_stats() const {
    return node_cache_stats();
  }

 private:
  MbTree(BufferPool* pool, const MbTreeOptions& options,
         crypto::HashScheme scheme);

  Result<std::optional<MbEntry>> Predecessor(Key lo) const;
  Result<std::optional<MbEntry>> Successor(Key hi) const;
  Result<std::optional<MbEntry>> PredecessorRec(PageId page, size_t depth,
                                                Key lo) const;
  Result<std::optional<MbEntry>> SuccessorRec(PageId page, size_t depth,
                                              Key hi) const;

  Status BuildVoRec(PageId page, size_t depth, Key lo, Key hi,
                    const std::optional<MbEntry>& left_boundary,
                    const std::optional<MbEntry>& right_boundary,
                    const RecordFetcher& fetch, VoNode* out) const;
};

}  // namespace sae::mbtree

#endif  // SAE_MBTREE_MB_TREE_H_
