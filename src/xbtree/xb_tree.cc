// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the XB-tree (xbtree/xb_tree.h): keyed nodes with running XOR
// summaries, duplicate lists chunked into shared slab pages, O(log n)
// GenerateVT, and insert/delete with X-value maintenance.

#include "xbtree/xb_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::xbtree {

namespace {

constexpr uint32_t kNodeMagic = 0x5842544Eu;  // "XBTN"
constexpr uint32_t kSlabMagic = 0x58425342u;  // "XBSB"
constexpr size_t kNodeHeaderSize = 16;
constexpr size_t kAnchorSize = crypto::Digest::kSize + 4;        // 24
constexpr size_t kEntrySize = 4 + 4 + crypto::Digest::kSize + 4; // 32
constexpr size_t kSlabHeaderSize = 16;
constexpr size_t kChunkHeaderSize = 8;  // count u16, pad u16, next u32
constexpr size_t kDupTupleSize = 8 + crypto::Digest::kSize;      // 28
// One tuple per chunk: the TE pays 36 bytes per tuple (28-byte tuple +
// 8-byte chunk header), matching the paper's "the TE maintains only two
// attributes and a digest for each record" accounting. Keys with many
// duplicates simply chain chunks.
constexpr size_t kChunkBytes = kChunkHeaderSize + kDupTupleSize;  // 36
constexpr size_t kChunksPerPage =
    (storage::kPageSize - kSlabHeaderSize) / kChunkBytes;          // 113
static_assert(kChunksPerPage <= 256, "slot must fit in 8 bits");

size_t DefaultMaxEntries() {
  return (storage::kPageSize - kNodeHeaderSize - kAnchorSize) / kEntrySize;
}

// Splits `total` items into exactly `chunks` near-equal sizes.
std::vector<size_t> EvenChunks(size_t total, size_t chunks) {
  SAE_CHECK(chunks >= 1 && total >= chunks);
  std::vector<size_t> sizes(chunks, total / chunks);
  for (size_t i = 0; i < total % chunks; ++i) ++sizes[i];
  return sizes;
}

}  // namespace

Result<std::unique_ptr<XbTree>> XbTree::Create(BufferPool* pool,
                                               const XbTreeOptions& options) {
  size_t max_entries =
      options.max_entries ? options.max_entries : DefaultMaxEntries();
  SAE_CHECK(max_entries >= 2 && max_entries <= DefaultMaxEntries());

  storage::NodeCacheOptions cache;  // the default entry cap
  cache.hot_levels = options.hot_cache_levels;
  auto tree = std::unique_ptr<XbTree>(new XbTree(pool, max_entries, cache));
  Node root;
  root.is_leaf = true;
  SAE_ASSIGN_OR_RETURN(tree->root_, tree->NewNode(root));
  return tree;
}

// --- node (de)serialization --------------------------------------------------

Result<XbTree::Node> XbTree::LoadNode(PageId id) const {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  const uint8_t* p = ref.Get().bytes();
  if (DecodeU32(p) != kNodeMagic) {
    return Status::Corruption("bad xbtree node magic");
  }
  Node node;
  node.is_leaf = p[4] != 0;
  uint16_t count = DecodeU16(p + 6);
  const uint8_t* anchor = p + kNodeHeaderSize;
  std::memcpy(node.x0.bytes.data(), anchor, crypto::Digest::kSize);
  node.child0 = DecodeU32(anchor + crypto::Digest::kSize);
  const uint8_t* entries = anchor + kAnchorSize;
  node.entries.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    const uint8_t* e = entries + i * kEntrySize;
    Entry entry;
    entry.sk = DecodeU32(e);
    entry.dup_head = DecodeU32(e + 4);
    std::memcpy(entry.x.bytes.data(), e + 8, crypto::Digest::kSize);
    entry.child = DecodeU32(e + 8 + crypto::Digest::kSize);
    node.entries.push_back(entry);
  }
  return node;
}

Result<std::shared_ptr<const XbTree::Node>> XbTree::LoadNodeCached(
    PageId id, size_t depth) const {
  if (auto hit = node_cache_.Lookup(id, depth)) return hit;
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(id));
  return node_cache_.Insert(id, depth, std::move(node));
}

Status XbTree::StoreNode(PageId id, const Node& node) {
  node_cache_.Invalidate(id);
  SAE_CHECK(node.entries.size() <= DefaultMaxEntries());
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  storage::Page& page = ref.Mutable();
  page.Zero();
  uint8_t* p = page.bytes();
  EncodeU32(p, kNodeMagic);
  p[4] = node.is_leaf ? 1 : 0;
  EncodeU16(p + 6, uint16_t(node.entries.size()));
  uint8_t* anchor = p + kNodeHeaderSize;
  std::memcpy(anchor, node.x0.bytes.data(), crypto::Digest::kSize);
  EncodeU32(anchor + crypto::Digest::kSize, node.child0);
  uint8_t* entries = anchor + kAnchorSize;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    uint8_t* e = entries + i * kEntrySize;
    const Entry& entry = node.entries[i];
    EncodeU32(e, entry.sk);
    EncodeU32(e + 4, entry.dup_head);
    std::memcpy(e + 8, entry.x.bytes.data(), crypto::Digest::kSize);
    EncodeU32(e + 8 + crypto::Digest::kSize, entry.child);
  }
  return Status::OK();
}

Result<PageId> XbTree::NewNode(const Node& node) {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->New());
  PageId id = ref.id();
  ref.Release();
  SAE_RETURN_NOT_OK(StoreNode(id, node));
  ++node_count_;
  return id;
}

crypto::Digest XbTree::SubtreeXor(const Node& node) {
  crypto::Digest x = node.x0;
  for (const Entry& e : node.entries) x ^= e.x;
  return x;
}

Result<crypto::Digest> XbTree::EntryDupXor(const Entry& entry,
                                           size_t child_depth) const {
  if (entry.child == storage::kInvalidPageId) {
    return entry.x;  // leaf entry: X is exactly the duplicate-chain XOR
  }
  SAE_ASSIGN_OR_RETURN(auto child, LoadNodeCached(entry.child, child_depth));
  return entry.x ^ SubtreeXor(*child);
}

// --- duplicate chunks (slab allocator) ----------------------------------------

namespace {
inline storage::PageId ChunkPage(uint32_t ref) { return ref >> 8; }
inline uint32_t ChunkSlot(uint32_t ref) { return ref & 0xFFu; }
inline uint32_t MakeChunkRef(storage::PageId page, uint32_t slot) {
  return (page << 8) | slot;
}
inline size_t ChunkOffset(uint32_t ref) {
  return kSlabHeaderSize + ChunkSlot(ref) * kChunkBytes;
}
}  // namespace

Result<XbTree::ChunkRef> XbTree::AllocChunk() {
  if (free_chunks_.empty()) {
    SAE_ASSIGN_OR_RETURN(auto ref, pool_->New());
    PageId page_id = ref.id();
    SAE_CHECK(page_id < (1u << 24));  // must fit the 24-bit page field
    uint8_t* p = ref.Mutable().bytes();
    EncodeU32(p, kSlabMagic);
    slab_pages_.push_back(page_id);
    for (size_t slot = kChunksPerPage; slot-- > 0;) {
      free_chunks_.push_back(MakeChunkRef(page_id, uint32_t(slot)));
    }
  }
  ChunkRef ref = free_chunks_.back();
  free_chunks_.pop_back();
  ++dup_chunk_count_;
  return ref;
}

Status XbTree::FreeChunk(ChunkRef ref) {
  free_chunks_.push_back(ref);
  SAE_CHECK(dup_chunk_count_ > 0);
  --dup_chunk_count_;
  return Status::OK();
}

Result<XbTree::ChunkRef> XbTree::PushDupChunk(RecordId id,
                                              const crypto::Digest& digest,
                                              ChunkRef head) {
  SAE_ASSIGN_OR_RETURN(ChunkRef ref, AllocChunk());
  SAE_ASSIGN_OR_RETURN(auto page, pool_->Fetch(ChunkPage(ref)));
  uint8_t* c = page.Mutable().bytes() + ChunkOffset(ref);
  EncodeU16(c, 1);
  EncodeU32(c + 4, head);
  EncodeU64(c + kChunkHeaderSize, id);
  std::memcpy(c + kChunkHeaderSize + 8, digest.bytes.data(),
              crypto::Digest::kSize);
  return ref;
}

Result<crypto::Digest> XbTree::DupChainRemove(Entry* entry, RecordId id,
                                              bool* now_empty) {
  *now_empty = false;
  ChunkRef prev = kInvalidChunk;
  ChunkRef cur = entry->dup_head;
  while (cur != kInvalidChunk) {
    ChunkRef next;
    {
      SAE_ASSIGN_OR_RETURN(auto page, pool_->Fetch(ChunkPage(cur)));
      uint8_t* c = page.Mutable().bytes() + ChunkOffset(cur);
      next = DecodeU32(c + 4);
      const uint8_t* t = c + kChunkHeaderSize;
      if (DecodeU64(t) == id) {
        crypto::Digest digest;
        std::memcpy(digest.bytes.data(), t + 8, crypto::Digest::kSize);
        EncodeU16(c, 0);
        // Unlink and recycle the emptied chunk.
        if (prev == kInvalidChunk) {
          entry->dup_head = next;
        } else {
          SAE_ASSIGN_OR_RETURN(auto ppage, pool_->Fetch(ChunkPage(prev)));
          EncodeU32(ppage.Mutable().bytes() + ChunkOffset(prev) + 4, next);
        }
        SAE_RETURN_NOT_OK(FreeChunk(cur));
        *now_empty = entry->dup_head == kInvalidChunk;
        return digest;
      }
    }
    prev = cur;
    cur = next;
  }
  return Status::NotFound("tuple id not in duplicate chain");
}

Status XbTree::FreeDupChain(ChunkRef head) {
  while (head != kInvalidChunk) {
    ChunkRef next;
    {
      SAE_ASSIGN_OR_RETURN(auto page, pool_->Fetch(ChunkPage(head)));
      next = DecodeU32(page.Get().bytes() + ChunkOffset(head) + 4);
    }
    SAE_RETURN_NOT_OK(FreeChunk(head));
    head = next;
  }
  return Status::OK();
}

Result<std::vector<std::pair<RecordId, crypto::Digest>>> XbTree::ReadDupChain(
    ChunkRef head) const {
  std::vector<std::pair<RecordId, crypto::Digest>> out;
  while (head != kInvalidChunk) {
    SAE_ASSIGN_OR_RETURN(auto page, pool_->Fetch(ChunkPage(head)));
    const uint8_t* p = page.Get().bytes();
    if (DecodeU32(p) != kSlabMagic) {
      return Status::Corruption("bad slab page magic");
    }
    const uint8_t* c = p + ChunkOffset(head);
    if (DecodeU16(c) != 1) {
      return Status::Corruption("duplicate chunk must hold one tuple");
    }
    const uint8_t* t = c + kChunkHeaderSize;
    crypto::Digest d;
    std::memcpy(d.bytes.data(), t + 8, crypto::Digest::kSize);
    out.emplace_back(DecodeU64(t), d);
    head = DecodeU32(c + 4);
  }
  return out;
}

// --- insert ------------------------------------------------------------------

Status XbTree::Insert(Key key, RecordId id, const crypto::Digest& digest) {
  std::optional<Split> split;
  SAE_RETURN_NOT_OK(InsertRec(root_, key, id, digest, &split));
  if (split.has_value()) {
    SAE_ASSIGN_OR_RETURN(Node old_root, LoadNode(root_));
    Node new_root;
    new_root.is_leaf = false;
    new_root.child0 = root_;
    new_root.x0 = SubtreeXor(old_root);
    new_root.entries.push_back(split->promoted);
    SAE_ASSIGN_OR_RETURN(root_, NewNode(new_root));
    ++height_;
  }
  ++tuple_count_;
  return Status::OK();
}

Status XbTree::InsertRec(PageId page, Key key, RecordId id,
                         const crypto::Digest& digest,
                         std::optional<Split>* split) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  split->reset();

  auto it = std::lower_bound(
      node.entries.begin(), node.entries.end(), key,
      [](const Entry& e, Key k) { return e.sk < k; });
  size_t pos = it - node.entries.begin();

  if (pos < node.entries.size() && node.entries[pos].sk == key) {
    // Existing key: prepend a chunk to its duplicate chain.
    SAE_ASSIGN_OR_RETURN(node.entries[pos].dup_head,
                         PushDupChunk(id, digest, node.entries[pos].dup_head));
    node.entries[pos].x ^= digest;
    return StoreNode(page, node);
  }

  if (!node.is_leaf) {
    PageId child = pos == 0 ? node.child0 : node.entries[pos - 1].child;
    std::optional<Split> child_split;
    SAE_RETURN_NOT_OK(InsertRec(child, key, id, digest, &child_split));
    crypto::Digest* cover = pos == 0 ? &node.x0 : &node.entries[pos - 1].x;
    *cover ^= digest;
    if (child_split.has_value()) {
      *cover ^= child_split->removed_mass;
      node.entries.insert(node.entries.begin() + pos, child_split->promoted);
    }
  } else {
    // New key: create its duplicate chain and leaf entry.
    Entry entry;
    entry.sk = key;
    SAE_ASSIGN_OR_RETURN(entry.dup_head,
                         PushDupChunk(id, digest, kInvalidChunk));
    entry.x = digest;
    node.entries.insert(node.entries.begin() + pos, entry);
    ++key_count_;
  }

  if (node.entries.size() > max_entries_) {
    // Split around the median keyed entry, which is promoted to the parent.
    size_t mid = node.entries.size() / 2;
    Entry median = node.entries[mid];

    Node right;
    right.is_leaf = node.is_leaf;
    right.child0 = median.child;
    if (median.child == storage::kInvalidPageId) {
      right.x0 = crypto::Digest::Zero();
    } else {
      SAE_ASSIGN_OR_RETURN(Node mc, LoadNode(median.child));
      right.x0 = SubtreeXor(mc);
    }
    right.entries.assign(node.entries.begin() + mid + 1, node.entries.end());
    node.entries.resize(mid);
    SAE_ASSIGN_OR_RETURN(PageId right_page, NewNode(right));

    // L-xor of the median: its X minus its (old) child subtree, which is
    // exactly right.x0.
    crypto::Digest median_lxor = median.x ^ right.x0;

    Entry promoted;
    promoted.sk = median.sk;
    promoted.dup_head = median.dup_head;
    promoted.child = right_page;
    promoted.x = median_lxor ^ SubtreeXor(right);
    *split = Split{promoted, promoted.x};
  }
  return StoreNode(page, node);
}

// --- delete ------------------------------------------------------------------

Status XbTree::Delete(Key key, RecordId id) {
  crypto::Digest removed;
  bool underflow = false;
  SAE_RETURN_NOT_OK(DeleteRec(root_, key, id, &removed, &underflow));
  if (underflow) {
    SAE_ASSIGN_OR_RETURN(Node root, LoadNode(root_));
    if (!root.is_leaf && root.entries.empty()) {
      PageId old = root_;
      root_ = root.child0;
      node_cache_.Invalidate(old);
      SAE_RETURN_NOT_OK(pool_->Free(old));
      --node_count_;
      --height_;
    }
  }
  --tuple_count_;
  return Status::OK();
}

Status XbTree::DeleteRec(PageId page, Key key, RecordId id,
                         crypto::Digest* removed, bool* underflow) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  *underflow = false;

  auto it = std::lower_bound(
      node.entries.begin(), node.entries.end(), key,
      [](const Entry& e, Key k) { return e.sk < k; });
  size_t pos = it - node.entries.begin();

  if (pos < node.entries.size() && node.entries[pos].sk == key) {
    Entry& entry = node.entries[pos];
    bool now_empty = false;
    SAE_ASSIGN_OR_RETURN(*removed, DupChainRemove(&entry, id, &now_empty));
    entry.x ^= *removed;
    if (!now_empty) {
      return StoreNode(page, node);
    }
    --key_count_;
    if (node.is_leaf) {
      node.entries.erase(node.entries.begin() + pos);
      *underflow = node.entries.size() < max_entries_ / 2;
      return StoreNode(page, node);
    }
    // Internal key with an emptied chain: replace it by the smallest key of
    // its child subtree (the in-order successor), then rebalance if needed.
    Entry successor;
    bool child_underflow = false;
    SAE_RETURN_NOT_OK(
        RemoveMinRec(node.entries[pos].child, &successor, &child_underflow));
    node.entries[pos].sk = successor.sk;
    node.entries[pos].dup_head = successor.dup_head;
    // entries[pos].x is unchanged: the successor's mass moved from the child
    // subtree into the entry's own duplicate chain.
    if (child_underflow) {
      SAE_RETURN_NOT_OK(FixUnderflow(&node, pos + 1));
    }
    *underflow = node.entries.size() < max_entries_ / 2;
    return StoreNode(page, node);
  }

  if (node.is_leaf) {
    return Status::NotFound("key not in tree");
  }

  PageId child = pos == 0 ? node.child0 : node.entries[pos - 1].child;
  bool child_underflow = false;
  SAE_RETURN_NOT_OK(DeleteRec(child, key, id, removed, &child_underflow));
  crypto::Digest* cover = pos == 0 ? &node.x0 : &node.entries[pos - 1].x;
  *cover ^= *removed;
  if (child_underflow) {
    SAE_RETURN_NOT_OK(FixUnderflow(&node, pos));
  }
  *underflow = node.entries.size() < max_entries_ / 2;
  return StoreNode(page, node);
}

Status XbTree::RemoveMinRec(PageId page, Entry* out, bool* underflow) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  *underflow = false;

  if (node.is_leaf) {
    if (node.entries.empty()) {
      return Status::Corruption("empty leaf in RemoveMin");
    }
    *out = node.entries.front();
    node.entries.erase(node.entries.begin());
    *underflow = node.entries.size() < max_entries_ / 2;
    return StoreNode(page, node);
  }

  bool child_underflow = false;
  SAE_RETURN_NOT_OK(RemoveMinRec(node.child0, out, &child_underflow));
  node.x0 ^= out->x;  // the minimum's mass left the anchor subtree
  if (child_underflow) {
    SAE_RETURN_NOT_OK(FixUnderflow(&node, 0));
  }
  *underflow = node.entries.size() < max_entries_ / 2;
  return StoreNode(page, node);
}

Status XbTree::FixUnderflow(Node* parent, size_t child_slot) {
  auto slot_page = [&](size_t slot) {
    return slot == 0 ? parent->child0 : parent->entries[slot - 1].child;
  };
  auto slot_cover = [&](size_t slot) -> crypto::Digest* {
    return slot == 0 ? &parent->x0 : &parent->entries[slot - 1].x;
  };

  PageId child_page = slot_page(child_slot);
  SAE_ASSIGN_OR_RETURN(Node child, LoadNode(child_page));
  size_t min_entries = max_entries_ / 2;

  // Borrow from the left sibling (rotate right through the separator).
  if (child_slot > 0) {
    PageId left_page = slot_page(child_slot - 1);
    SAE_ASSIGN_OR_RETURN(Node left, LoadNode(left_page));
    if (left.entries.size() > min_entries) {
      Entry& sep = parent->entries[child_slot - 1];
      Entry donor = left.entries.back();
      left.entries.pop_back();

      crypto::Digest sep_lxor = sep.x ^ SubtreeXor(child);

      // Separator key+chain move down as the child's new first entry; its
      // child pointer is the child's old anchor subtree.
      Entry moved;
      moved.sk = sep.sk;
      moved.dup_head = sep.dup_head;
      moved.child = child.child0;
      moved.x = sep_lxor ^ child.x0;
      child.entries.insert(child.entries.begin(), moved);

      // The donor's child becomes the child's new anchor subtree.
      child.child0 = donor.child;
      if (donor.child == storage::kInvalidPageId) {
        child.x0 = crypto::Digest::Zero();
      } else {
        SAE_ASSIGN_OR_RETURN(Node dc, LoadNode(donor.child));
        child.x0 = SubtreeXor(dc);
      }
      crypto::Digest donor_lxor = donor.x ^ child.x0;

      // The donor's key+chain move up into the separator.
      sep.sk = donor.sk;
      sep.dup_head = donor.dup_head;
      sep.x = donor_lxor ^ SubtreeXor(child);

      // The left sibling's subtree lost the donor's entire mass.
      *slot_cover(child_slot - 1) ^= donor.x;

      SAE_RETURN_NOT_OK(StoreNode(left_page, left));
      return StoreNode(child_page, child);
    }
  }

  // Borrow from the right sibling (rotate left through the separator).
  if (child_slot < parent->entries.size()) {
    PageId right_page = slot_page(child_slot + 1);
    SAE_ASSIGN_OR_RETURN(Node right, LoadNode(right_page));
    if (right.entries.size() > min_entries) {
      Entry& sep = parent->entries[child_slot];
      // L-xor of the separator, derived from the sibling's subtree *before*
      // the donor is removed.
      crypto::Digest sep_lxor = sep.x ^ SubtreeXor(right);
      Entry donor = right.entries.front();
      right.entries.erase(right.entries.begin());

      Entry moved;
      moved.sk = sep.sk;
      moved.dup_head = sep.dup_head;
      moved.child = right.child0;
      moved.x = sep_lxor ^ right.x0;
      child.entries.push_back(moved);

      right.child0 = donor.child;
      if (donor.child == storage::kInvalidPageId) {
        right.x0 = crypto::Digest::Zero();
      } else {
        SAE_ASSIGN_OR_RETURN(Node dc, LoadNode(donor.child));
        right.x0 = SubtreeXor(dc);
      }
      crypto::Digest donor_lxor = donor.x ^ right.x0;

      sep.sk = donor.sk;
      sep.dup_head = donor.dup_head;
      sep.x = donor_lxor ^ SubtreeXor(right);

      // The child's subtree gained the moved entry's mass.
      *slot_cover(child_slot) ^= moved.x;

      SAE_RETURN_NOT_OK(StoreNode(right_page, right));
      return StoreNode(child_page, child);
    }
  }

  // Merge. Prefer absorbing the child into its left sibling.
  if (child_slot > 0) {
    PageId left_page = slot_page(child_slot - 1);
    SAE_ASSIGN_OR_RETURN(Node left, LoadNode(left_page));
    Entry sep = parent->entries[child_slot - 1];

    crypto::Digest sep_lxor = sep.x ^ SubtreeXor(child);
    Entry moved;
    moved.sk = sep.sk;
    moved.dup_head = sep.dup_head;
    moved.child = child.child0;
    moved.x = sep_lxor ^ child.x0;
    left.entries.push_back(moved);
    left.entries.insert(left.entries.end(), child.entries.begin(),
                        child.entries.end());

    // Everything under the separator (chain + child subtree) joins the left
    // sibling's covering entry.
    *slot_cover(child_slot - 1) ^= sep.x;

    parent->entries.erase(parent->entries.begin() + child_slot - 1);
    SAE_RETURN_NOT_OK(StoreNode(left_page, left));
    node_cache_.Invalidate(child_page);
    SAE_RETURN_NOT_OK(pool_->Free(child_page));
    --node_count_;
    return Status::OK();
  }

  SAE_CHECK(child_slot < parent->entries.size());
  PageId right_page = slot_page(child_slot + 1);
  SAE_ASSIGN_OR_RETURN(Node right, LoadNode(right_page));
  Entry sep = parent->entries[child_slot];

  crypto::Digest sep_lxor = sep.x ^ SubtreeXor(right);
  Entry moved;
  moved.sk = sep.sk;
  moved.dup_head = sep.dup_head;
  moved.child = right.child0;
  moved.x = sep_lxor ^ right.x0;
  child.entries.push_back(moved);
  child.entries.insert(child.entries.end(), right.entries.begin(),
                       right.entries.end());

  *slot_cover(child_slot) ^= sep.x;

  parent->entries.erase(parent->entries.begin() + child_slot);
  SAE_RETURN_NOT_OK(StoreNode(child_page, child));
  node_cache_.Invalidate(right_page);
  SAE_RETURN_NOT_OK(pool_->Free(right_page));
  --node_count_;
  return Status::OK();
}

// --- GenerateVT (paper Fig. 4) ----------------------------------------------

Status XbTree::GenerateVTRec(PageId page, size_t depth, Key ql, Key qu,
                             crypto::Digest* vt) const {
  SAE_ASSIGN_OR_RETURN(auto node_ptr, LoadNodeCached(page, depth));
  const Node& node = *node_ptr;
  size_t f = node.entries.size() + 1;  // conceptual entries incl. the anchor

  for (size_t i = 0; i < f; ++i) {
    // Conceptual e_i: i == 0 is the anchor (sk = -inf); e_f has sk = +inf.
    bool sk_is_neg_inf = (i == 0);
    Key sk = sk_is_neg_inf ? 0 : node.entries[i - 1].sk;
    bool next_is_pos_inf = (i + 1 == f);
    Key next_sk = next_is_pos_inf ? std::numeric_limits<Key>::max()
                                  : node.entries[i].sk;
    const crypto::Digest& x = (i == 0) ? node.x0 : node.entries[i - 1].x;
    PageId child = (i == 0) ? node.child0 : node.entries[i - 1].child;

    bool ql_le_sk = !sk_is_neg_inf && ql <= sk;
    bool qu_ge_next = !next_is_pos_inf && qu >= next_sk;

    if (ql_le_sk && qu_ge_next) {
      // Lines 2-3: the whole [sk_i, sk_{i+1}) span is inside the query.
      *vt ^= x;
    } else if (ql_le_sk && qu >= sk) {
      // Lines 4-5: only the key itself qualifies; add its chain XOR.
      SAE_ASSIGN_OR_RETURN(crypto::Digest lxor,
                           EntryDupXor(node.entries[i - 1], depth + 1));
      *vt ^= lxor;
    }

    // Lines 6-8: recurse where a query endpoint falls strictly inside the
    // (sk_i, sk_{i+1}) gap.
    bool ql_inside = (sk_is_neg_inf || ql > sk) &&
                     (next_is_pos_inf || ql < next_sk);
    bool qu_inside = (sk_is_neg_inf || qu > sk) &&
                     (next_is_pos_inf || qu < next_sk);
    // The unbounded sentinel gaps are genuine: (-inf, e1.sk) and
    // (e_{f-1}.sk, +inf) extend to the domain edges.
    if (sk_is_neg_inf && next_is_pos_inf) {
      // Single conceptual gap (node with no keyed entries): recurse iff any
      // endpoint exists — only possible at an empty root.
      ql_inside = qu_inside = true;
    }
    if ((ql_inside || qu_inside) && child != storage::kInvalidPageId) {
      SAE_RETURN_NOT_OK(GenerateVTRec(child, depth + 1, ql, qu, vt));
    }
  }
  return Status::OK();
}

Result<crypto::Digest> XbTree::GenerateVT(Key ql, Key qu) const {
  if (ql > qu) return Status::InvalidArgument("ql > qu");
  crypto::Digest vt;
  SAE_RETURN_NOT_OK(GenerateVTRec(root_, 0, ql, qu, &vt));
  return vt;
}

// --- bulk load ---------------------------------------------------------------

Status XbTree::BulkLoad(const std::vector<XbTuple>& sorted) {
  if (tuple_count_ != 0 || node_count_ != 1) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].key > sorted[i].key) {
      return Status::InvalidArgument("tuples not sorted by key");
    }
  }
  if (sorted.empty()) return Status::OK();
  node_cache_.Clear();

  // Group tuples by distinct key, writing the duplicate chains.
  struct KeyedItem {
    Key sk;
    PageId dup_head;
    crypto::Digest lxor;
  };
  std::vector<KeyedItem> items;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i;
    KeyedItem item{sorted[i].key, kInvalidChunk, crypto::Digest::Zero()};
    for (; j < sorted.size() && sorted[j].key == item.sk; ++j) {
      SAE_ASSIGN_OR_RETURN(
          item.dup_head,
          PushDupChunk(sorted[j].id, sorted[j].digest, item.dup_head));
      item.lxor ^= sorted[j].digest;
    }
    items.push_back(item);
    i = j;
  }
  key_count_ = items.size();
  tuple_count_ = sorted.size();

  // Build the leaf level. With L leaves, L-1 keys are promoted upward as
  // separators between adjacent leaves.
  struct LevelNode {
    PageId page;
    crypto::Digest subtree;
  };
  std::vector<LevelNode> level;
  std::vector<KeyedItem> separators;

  size_t total = items.size();
  // Smallest leaf count L such that the L-1 promoted separators leave at
  // most max_entries_ keys per leaf; keys are then spread evenly, which
  // keeps every leaf within [min, max] occupancy.
  size_t leaves = 1;
  while (total - (leaves - 1) > leaves * max_entries_) ++leaves;
  std::vector<size_t> leaf_sizes = EvenChunks(total - (leaves - 1), leaves);

  size_t pos = 0;
  for (size_t li = 0; li < leaf_sizes.size(); ++li) {
    Node leaf;
    leaf.is_leaf = true;
    for (size_t k = 0; k < leaf_sizes[li]; ++k) {
      const KeyedItem& item = items[pos++];
      Entry e;
      e.sk = item.sk;
      e.dup_head = item.dup_head;
      e.x = item.lxor;
      leaf.entries.push_back(e);
    }
    PageId page;
    if (li == 0) {
      page = root_;
      SAE_RETURN_NOT_OK(StoreNode(page, leaf));
    } else {
      SAE_ASSIGN_OR_RETURN(page, NewNode(leaf));
    }
    level.push_back(LevelNode{page, SubtreeXor(leaf)});
    if (li + 1 < leaf_sizes.size()) {
      separators.push_back(items[pos++]);  // promoted between leaves
    }
  }
  SAE_CHECK(pos == items.size());

  height_ = 1;
  size_t cap_children = max_entries_ + 1;
  while (level.size() > 1) {
    // Smallest node count N such that, after promoting N-1 separators
    // upward, every node holds at most cap_children children.
    size_t nodes = 1;
    while (level.size() > nodes * cap_children) ++nodes;
    std::vector<size_t> group_sizes = EvenChunks(level.size(), nodes);
    std::vector<LevelNode> next_level;
    std::vector<KeyedItem> next_separators;
    size_t child_pos = 0;
    size_t sep_pos = 0;
    for (size_t gi = 0; gi < group_sizes.size(); ++gi) {
      Node internal;
      internal.is_leaf = false;
      internal.child0 = level[child_pos].page;
      internal.x0 = level[child_pos].subtree;
      ++child_pos;
      for (size_t k = 1; k < group_sizes[gi]; ++k) {
        const KeyedItem& sep = separators[sep_pos++];
        Entry e;
        e.sk = sep.sk;
        e.dup_head = sep.dup_head;
        e.child = level[child_pos].page;
        e.x = sep.lxor ^ level[child_pos].subtree;
        internal.entries.push_back(e);
        ++child_pos;
      }
      SAE_ASSIGN_OR_RETURN(PageId page, NewNode(internal));
      next_level.push_back(LevelNode{page, SubtreeXor(internal)});
      if (gi + 1 < group_sizes.size()) {
        next_separators.push_back(separators[sep_pos++]);
      }
    }
    SAE_CHECK(child_pos == level.size());
    SAE_CHECK(sep_pos == separators.size());
    level = std::move(next_level);
    separators = std::move(next_separators);
    ++height_;
  }
  SAE_CHECK(separators.empty());
  root_ = level.front().page;
  return Status::OK();
}

// --- validation ----------------------------------------------------------------

Status XbTree::ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                           std::optional<Key> hi, size_t* leaf_depth,
                           size_t* tuples, size_t* keys, size_t* nodes,
                           size_t* dup_pages,
                           crypto::Digest* subtree_xor) const {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  ++*nodes;
  if (node.entries.size() > max_entries_) {
    return Status::Corruption("node overflow");
  }
  for (size_t i = 1; i < node.entries.size(); ++i) {
    if (node.entries[i - 1].sk >= node.entries[i].sk) {
      return Status::Corruption("keys not strictly increasing");
    }
  }
  for (const Entry& e : node.entries) {
    if ((lo && e.sk <= *lo) || (hi && e.sk >= *hi)) {
      return Status::Corruption("key outside separator bounds");
    }
  }

  crypto::Digest total = crypto::Digest::Zero();

  if (node.is_leaf) {
    if (!node.x0.IsZero() || node.child0 != storage::kInvalidPageId) {
      return Status::Corruption("leaf anchor must be <0, null>");
    }
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
  } else {
    if (node.child0 == storage::kInvalidPageId) {
      return Status::Corruption("internal anchor without child");
    }
    crypto::Digest child_xor;
    size_t page_count_before = *dup_pages;
    (void)page_count_before;
    SAE_RETURN_NOT_OK(ValidateRec(
        node.child0, depth + 1, lo,
        node.entries.empty() ? hi : std::optional<Key>(node.entries[0].sk),
        leaf_depth, tuples, keys, nodes, dup_pages, &child_xor));
    if (child_xor != node.x0) {
      return Status::Corruption("anchor X inconsistent with child subtree");
    }
  }
  total ^= node.x0;

  for (size_t i = 0; i < node.entries.size(); ++i) {
    const Entry& e = node.entries[i];
    if (e.dup_head == kInvalidChunk) {
      return Status::Corruption("keyed entry without duplicate chain");
    }
    SAE_ASSIGN_OR_RETURN(auto chain, ReadDupChain(e.dup_head));
    if (chain.empty()) {
      return Status::Corruption("empty duplicate chain");
    }
    crypto::Digest lxor;
    for (const auto& [id, d] : chain) lxor ^= d;
    *tuples += chain.size();
    *dup_pages += chain.size();  // counter reused for live chunks
    ++*keys;

    crypto::Digest expect = lxor;
    if (node.is_leaf) {
      if (e.child != storage::kInvalidPageId) {
        return Status::Corruption("leaf entry with child");
      }
    } else {
      if (e.child == storage::kInvalidPageId) {
        return Status::Corruption("internal entry without child");
      }
      std::optional<Key> child_hi =
          (i + 1 < node.entries.size())
              ? std::optional<Key>(node.entries[i + 1].sk)
              : hi;
      crypto::Digest child_xor;
      SAE_RETURN_NOT_OK(ValidateRec(e.child, depth + 1,
                                    std::optional<Key>(e.sk), child_hi,
                                    leaf_depth, tuples, keys, nodes, dup_pages,
                                    &child_xor));
      expect ^= child_xor;
    }
    if (expect != e.x) {
      return Status::Corruption("entry X inconsistent at key " +
                                std::to_string(e.sk) + " depth " +
                                std::to_string(depth) +
                                (node.is_leaf ? " (leaf)" : " (internal)"));
    }
    total ^= e.x;
  }

  *subtree_xor = total;
  return Status::OK();
}

Status XbTree::Validate() const {
  size_t leaf_depth = 0, tuples = 0, keys = 0, nodes = 0, chunks = 0;
  crypto::Digest total;
  SAE_RETURN_NOT_OK(ValidateRec(root_, 1, std::nullopt, std::nullopt,
                                &leaf_depth, &tuples, &keys, &nodes, &chunks,
                                &total));
  if (tuples != tuple_count_) return Status::Corruption("tuple count mismatch");
  if (keys != key_count_) return Status::Corruption("key count mismatch");
  if (nodes != node_count_) return Status::Corruption("node count mismatch");
  if (chunks != dup_chunk_count_) {
    return Status::Corruption("dup chunk count mismatch");
  }
  if (chunks + free_chunks_.size() !=
      slab_pages_.size() * kChunksPerPage) {
    return Status::Corruption("slab accounting mismatch");
  }
  if (tuple_count_ > 0 && leaf_depth != height_) {
    return Status::Corruption("height mismatch");
  }
  return Status::OK();
}

}  // namespace sae::xbtree
