// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the disk B+-tree (btree/bplus_tree.h): search, insert with
// splits, delete with borrow/merge, bulk load, and range scans over
// (key, rid) pairs with duplicate support. In digest mode every path that
// rewrites a node also refreshes its digest in the parent, up to the root.

#include "btree/bplus_tree.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::btree {

namespace {

constexpr uint32_t kPlainMagic = 0x4254524Eu;   // "BTRN"
constexpr uint32_t kDigestMagic = 0x4D42544Eu;  // "MBTN"
constexpr size_t kHeaderSize = 16;
constexpr size_t kDigestSize = crypto::Digest::kSize;  // 20

// Entry widths for a digest column `w` bytes wide (0 or kDigestSize).
constexpr size_t LeafEntrySize(size_t w) { return 4 + 8 + w; }      // 12 / 32
constexpr size_t InternalEntrySize(size_t w) { return 4 + 4 + w; }  //  8 / 28
constexpr size_t Child0Size(size_t w) { return 4 + w; }

size_t PageMaxLeaf(size_t w) {
  return (storage::kPageSize - kHeaderSize) / LeafEntrySize(w);  // 340 / 127
}
size_t PageMaxInternal(size_t w) {
  return (storage::kPageSize - kHeaderSize - Child0Size(w)) /
         InternalEntrySize(w);  // 509 / 144
}

// Splits `total` items into the fewest near-equal chunks of at most `cap`
// items, none below `min_size`. A single (possibly slim) chunk is returned
// when total <= min_size — that chunk becomes the root. PlanShape uses it
// so no node of a fresh bulk load over- or underflows.
std::vector<size_t> PlanChunks(size_t total, size_t cap, size_t min_size) {
  SAE_CHECK(min_size >= 1 && min_size <= cap);
  if (total <= min_size) return {total};
  size_t n = (total + cap - 1) / cap;
  while (n > 1 && total / n < min_size) --n;
  while ((total + n - 1) / n > cap) ++n;
  SAE_CHECK(n >= 1 && total / n >= std::min(min_size, total));
  std::vector<size_t> sizes(n, total / n);
  for (size_t i = 0; i < total % n; ++i) ++sizes[i];
  return sizes;
}

// Moves v[from, end) out of `v` and returns it.
template <typename T>
std::vector<T> TakeTail(std::vector<T>* v, size_t from) {
  std::vector<T> tail(v->begin() + from, v->end());
  v->resize(from);
  return tail;
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

void GetDigest(const uint8_t* p, crypto::Digest* digest) {
  std::memcpy(digest->bytes.data(), p, kDigestSize);
}
void PutDigest(const crypto::Digest& digest, uint8_t* p) {
  std::memcpy(p, digest.bytes.data(), kDigestSize);
}

size_t LowerBound(const std::vector<Key>& keys, Key key) {
  return std::lower_bound(keys.begin(), keys.end(), key) - keys.begin();
}
size_t UpperBound(const std::vector<Key>& keys, Key key) {
  return std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
}

storage::NodeCacheOptions HotLevels(size_t levels) {
  storage::NodeCacheOptions options;  // the default entry cap
  options.hot_levels = levels;
  return options;
}

}  // namespace

BPlusTree::BPlusTree(BufferPool* pool, const BPlusTreeOptions& options,
                     std::optional<DigestColumn> digests)
    : pool_(pool),
      with_digests_(digests.has_value()),
      scheme_(digests ? digests->scheme : crypto::HashScheme::kSha1),
      node_cache_(HotLevels(digests ? digests->hot_cache_levels : 0)) {
  size_t w = with_digests_ ? kDigestSize : 0;
  max_leaf_ = options.max_leaf_entries ? options.max_leaf_entries
                                       : PageMaxLeaf(w);
  max_internal_ = options.max_internal_keys ? options.max_internal_keys
                                            : PageMaxInternal(w);
  SAE_CHECK(max_leaf_ >= 2 && max_leaf_ <= PageMaxLeaf(w));
  SAE_CHECK(max_internal_ >= 2 && max_internal_ <= PageMaxInternal(w));
}

Status BPlusTree::Init() {
  Node root;
  root.is_leaf = true;
  SAE_ASSIGN_OR_RETURN(root_, NewNode(root));
  root_digest_ = NodeDigest(root);
  return Status::OK();
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(
    BufferPool* pool, const BPlusTreeOptions& options) {
  auto tree =
      std::unique_ptr<BPlusTree>(new BPlusTree(pool, options, std::nullopt));
  SAE_RETURN_NOT_OK(tree->Init());
  return tree;
}

crypto::Digest BPlusTree::NodeDigest(const Node& node) const {
  if (!with_digests_) return crypto::Digest{};
  // An empty leaf (empty tree) hashes zero digests: H("").
  return crypto::CombineDigests(node.digests.data(), node.digests.size(),
                                scheme_);
}

Result<BPlusTree::Node> BPlusTree::LoadNode(PageId id) const {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  const uint8_t* p = ref.Get().bytes();
  if (DecodeU32(p) != (with_digests_ ? kDigestMagic : kPlainMagic)) {
    return Status::Corruption("bad btree node magic");
  }
  const size_t w = with_digests_ ? kDigestSize : 0;
  Node node;
  node.is_leaf = p[4] != 0;
  uint16_t count = DecodeU16(p + 6);
  node.next = DecodeU32(p + 8);
  const uint8_t* body = p + kHeaderSize;
  node.keys.reserve(count);
  node.digests.resize(w == 0 ? 0 : node.is_leaf ? count : count + 1);
  if (node.is_leaf) {
    node.rids.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      const uint8_t* e = body + i * LeafEntrySize(w);
      node.keys.push_back(DecodeU32(e));
      node.rids.push_back(DecodeU64(e + 4));
      if (w != 0) GetDigest(e + 12, &node.digests[i]);
    }
  } else {
    node.children.reserve(count + 1);
    node.children.push_back(DecodeU32(body));
    if (w != 0) GetDigest(body + 4, &node.digests[0]);
    const uint8_t* pairs = body + Child0Size(w);
    for (uint16_t i = 0; i < count; ++i) {
      const uint8_t* e = pairs + i * InternalEntrySize(w);
      node.keys.push_back(DecodeU32(e));
      node.children.push_back(DecodeU32(e + 4));
      if (w != 0) GetDigest(e + 8, &node.digests[i + 1]);
    }
  }
  return node;
}

Result<BPlusTree::NodeView> BPlusTree::ReadNode(PageId id,
                                                size_t depth) const {
  NodeView view;
  if (node_cache_.Caches(depth)) {
    view.cached_ = node_cache_.Lookup(id, depth);
    if (view.cached_ == nullptr) {
      SAE_ASSIGN_OR_RETURN(Node node, LoadNode(id));
      view.cached_ = node_cache_.Insert(id, depth, std::move(node));
    }
  } else {
    SAE_ASSIGN_OR_RETURN(view.owned_, LoadNode(id));
  }
  return view;
}

Status BPlusTree::StoreNode(PageId id, const Node& node) {
  node_cache_.Invalidate(id);
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  storage::Page& page = ref.Mutable();
  page.Zero();
  uint8_t* p = page.bytes();
  const size_t w = with_digests_ ? kDigestSize : 0;
  EncodeU32(p, with_digests_ ? kDigestMagic : kPlainMagic);
  p[4] = node.is_leaf ? 1 : 0;
  EncodeU16(p + 6, uint16_t(node.keys.size()));
  EncodeU32(p + 8, node.next);
  uint8_t* body = p + kHeaderSize;
  if (node.is_leaf) {
    SAE_CHECK(node.keys.size() == node.rids.size());
    SAE_CHECK(node.digests.size() == (w == 0 ? 0 : node.keys.size()));
    SAE_CHECK(node.keys.size() <= PageMaxLeaf(w));
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint8_t* e = body + i * LeafEntrySize(w);
      EncodeU32(e, node.keys[i]);
      EncodeU64(e + 4, node.rids[i]);
      if (w != 0) PutDigest(node.digests[i], e + 12);
    }
  } else {
    SAE_CHECK(node.children.size() == node.keys.size() + 1);
    SAE_CHECK(node.digests.size() == (w == 0 ? 0 : node.children.size()));
    SAE_CHECK(node.keys.size() <= PageMaxInternal(w));
    EncodeU32(body, node.children[0]);
    if (w != 0) PutDigest(node.digests[0], body + 4);
    uint8_t* pairs = body + Child0Size(w);
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint8_t* e = pairs + i * InternalEntrySize(w);
      EncodeU32(e, node.keys[i]);
      EncodeU32(e + 4, node.children[i + 1]);
      if (w != 0) PutDigest(node.digests[i + 1], e + 8);
    }
  }
  return Status::OK();
}

Result<PageId> BPlusTree::AllocNode() {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->New());
  PageId id = ref.id();
  ref.Release();
  ++node_count_;
  return id;
}

Result<PageId> BPlusTree::NewNode(const Node& node) {
  SAE_ASSIGN_OR_RETURN(PageId id, AllocNode());
  SAE_RETURN_NOT_OK(StoreNode(id, node));
  return id;
}

Status BPlusTree::FreeNode(PageId id) {
  node_cache_.Invalidate(id);
  SAE_RETURN_NOT_OK(pool_->Free(id));
  --node_count_;
  return Status::OK();
}

size_t BPlusTree::MinOccupancy(const Node& node) const {
  return node.is_leaf ? max_leaf_ / 2 : max_internal_ / 2;
}

Status BPlusTree::Insert(Key key, Rid rid) {
  if (with_digests_) {
    return Status::InvalidArgument("a digest-mode posting needs its digest");
  }
  return Insert(DigestEntry{key, rid, crypto::Digest{}});
}

Status BPlusTree::Insert(const DigestEntry& entry) {
  std::optional<SplitResult> split;
  crypto::Digest root_digest;
  SAE_RETURN_NOT_OK(InsertRec(root_, entry, &split, &root_digest));
  if (split.has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split->separator);
    new_root.children = {root_, split->right_page};
    if (with_digests_) new_root.digests = {root_digest, split->right_digest};
    SAE_ASSIGN_OR_RETURN(root_, NewNode(new_root));
    ++height_;
    root_digest = NodeDigest(new_root);
  }
  root_digest_ = root_digest;
  ++entry_count_;
  return Status::OK();
}

Status BPlusTree::InsertRec(PageId page, const DigestEntry& entry,
                            std::optional<SplitResult>* split,
                            crypto::Digest* self_digest) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  split->reset();

  if (node.is_leaf) {
    // Keys ascend along the leaf chain, so an identical posting sits left
    // of `pos`: in this leaf, or in an earlier one when the key's run
    // reaches this leaf's first slot. Nothing is written before this check.
    size_t pos = UpperBound(node.keys, entry.key);
    size_t run = pos;
    while (run > 0 && node.keys[run - 1] == entry.key) {
      if (node.rids[--run] == entry.rid) {
        return Status::AlreadyExists("posting already present");
      }
    }
    if (run == 0) {
      SAE_ASSIGN_OR_RETURN(bool exists, Contains(entry.key, entry.rid));
      if (exists) return Status::AlreadyExists("posting already present");
    }
    node.keys.insert(node.keys.begin() + pos, entry.key);
    node.rids.insert(node.rids.begin() + pos, entry.rid);
    if (with_digests_) {
      node.digests.insert(node.digests.begin() + pos, entry.digest);
    }

    if (node.keys.size() > max_leaf_) {
      size_t mid = node.keys.size() / 2;
      Node right;
      right.is_leaf = true;
      right.keys = TakeTail(&node.keys, mid);
      right.rids = TakeTail(&node.rids, mid);
      if (with_digests_) right.digests = TakeTail(&node.digests, mid);
      right.next = node.next;
      SAE_ASSIGN_OR_RETURN(PageId right_page, NewNode(right));
      node.next = right_page;
      *split = SplitResult{right.keys.front(), right_page, NodeDigest(right)};
    }
    *self_digest = NodeDigest(node);
    return StoreNode(page, node);
  }

  size_t idx = UpperBound(node.keys, entry.key);
  std::optional<SplitResult> child_split;
  crypto::Digest child_digest;
  SAE_RETURN_NOT_OK(
      InsertRec(node.children[idx], entry, &child_split, &child_digest));
  // A plain node changes only when its child split.
  if (!with_digests_ && !child_split.has_value()) return Status::OK();
  if (with_digests_) node.digests[idx] = child_digest;

  if (child_split.has_value()) {
    node.keys.insert(node.keys.begin() + idx, child_split->separator);
    node.children.insert(node.children.begin() + idx + 1,
                         child_split->right_page);
    if (with_digests_) {
      node.digests.insert(node.digests.begin() + idx + 1,
                          child_split->right_digest);
    }

    if (node.keys.size() > max_internal_) {
      size_t mid = node.keys.size() / 2;
      Key separator = node.keys[mid];
      Node right;
      right.is_leaf = false;
      right.keys = TakeTail(&node.keys, mid + 1);
      right.children = TakeTail(&node.children, mid + 1);
      if (with_digests_) right.digests = TakeTail(&node.digests, mid + 1);
      node.keys.resize(mid);
      SAE_ASSIGN_OR_RETURN(PageId right_page, NewNode(right));
      *split = SplitResult{separator, right_page, NodeDigest(right)};
    }
  }
  *self_digest = NodeDigest(node);
  return StoreNode(page, node);
}

Result<BPlusTree::NodeView> BPlusTree::DescendToLeaf(Key key,
                                                      size_t* depth) const {
  // Duplicate keys can straddle a split boundary, so follow lower_bound on
  // the separators to the leftmost candidate leaf.
  PageId page = root_;
  for (*depth = 0;; ++*depth) {
    SAE_ASSIGN_OR_RETURN(NodeView node, ReadNode(page, *depth));
    if (node->is_leaf) return node;
    page = node->children[LowerBound(node->keys, key)];
  }
}

template <typename Entry>
Status BPlusTree::RangeSearchImpl(Key lo, Key hi,
                                  std::vector<Entry>* out) const {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  size_t depth = 0;
  SAE_ASSIGN_OR_RETURN(NodeView leaf, DescendToLeaf(lo, &depth));
  for (;;) {
    for (size_t pos = LowerBound(leaf->keys, lo); pos < leaf->keys.size();
         ++pos) {
      if (leaf->keys[pos] > hi) return Status::OK();
      if constexpr (std::is_same_v<Entry, DigestEntry>) {
        out->push_back(
            DigestEntry{leaf->keys[pos], leaf->rids[pos], leaf->digests[pos]});
      } else {
        out->push_back(BTreeEntry{leaf->keys[pos], leaf->rids[pos]});
      }
    }
    PageId next = leaf->next;
    if (next == storage::kInvalidPageId) return Status::OK();
    SAE_ASSIGN_OR_RETURN(leaf, ReadNode(next, depth));
  }
}

Status BPlusTree::RangeSearch(Key lo, Key hi,
                              std::vector<BTreeEntry>* out) const {
  return RangeSearchImpl(lo, hi, out);
}

Status BPlusTree::RangeSearch(Key lo, Key hi,
                              std::vector<DigestEntry>* out) const {
  SAE_CHECK(with_digests_);
  return RangeSearchImpl(lo, hi, out);
}

Result<bool> BPlusTree::Contains(Key key, Rid rid) const {
  size_t depth = 0;
  SAE_ASSIGN_OR_RETURN(NodeView leaf, DescendToLeaf(key, &depth));
  // A run of duplicates may continue into the following leaves.
  for (;;) {
    for (size_t pos = LowerBound(leaf->keys, key); pos < leaf->keys.size();
         ++pos) {
      if (leaf->keys[pos] != key) return false;
      if (leaf->rids[pos] == rid) return true;
    }
    PageId next = leaf->next;
    if (next == storage::kInvalidPageId) return false;
    SAE_ASSIGN_OR_RETURN(leaf, ReadNode(next, depth));
  }
}

Status BPlusTree::Delete(Key key, Rid rid) {
  bool underflow = false;
  crypto::Digest root_digest;
  SAE_RETURN_NOT_OK(DeleteRec(root_, key, rid, &underflow, &root_digest));
  root_digest_ = root_digest;
  if (underflow) {
    SAE_ASSIGN_OR_RETURN(Node root, LoadNode(root_));
    if (!root.is_leaf && root.keys.empty()) {
      PageId old = root_;
      root_ = root.children[0];
      if (with_digests_) root_digest_ = root.digests[0];
      SAE_RETURN_NOT_OK(FreeNode(old));
      --height_;
    }
  }
  --entry_count_;
  return Status::OK();
}

Status BPlusTree::DeleteRec(PageId page, Key key, Rid rid, bool* underflow,
                            crypto::Digest* self_digest) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  *underflow = false;

  if (node.is_leaf) {
    for (size_t pos = LowerBound(node.keys, key);
         pos < node.keys.size() && node.keys[pos] == key; ++pos) {
      if (node.rids[pos] == rid) {
        node.keys.erase(node.keys.begin() + pos);
        node.rids.erase(node.rids.begin() + pos);
        if (with_digests_) node.digests.erase(node.digests.begin() + pos);
        *underflow = node.keys.size() < MinOccupancy(node);
        *self_digest = NodeDigest(node);
        return StoreNode(page, node);
      }
    }
    return Status::NotFound("posting not found");
  }

  // Duplicate keys may live in any child whose separator range touches
  // `key`; probe candidates left to right.
  size_t last = UpperBound(node.keys, key);
  for (size_t idx = LowerBound(node.keys, key); idx <= last; ++idx) {
    bool child_underflow = false;
    crypto::Digest child_digest;
    Status st = DeleteRec(node.children[idx], key, rid, &child_underflow,
                          &child_digest);
    if (st.code() == StatusCode::kNotFound) continue;
    SAE_RETURN_NOT_OK(st);
    // A plain node changes only when its child underflowed.
    if (!with_digests_ && !child_underflow) return Status::OK();
    if (with_digests_) node.digests[idx] = child_digest;
    if (child_underflow) {
      SAE_RETURN_NOT_OK(FixUnderflow(&node, idx));
      *underflow = node.keys.size() < MinOccupancy(node);
    }
    *self_digest = NodeDigest(node);
    return StoreNode(page, node);
  }
  return Status::NotFound("posting not found");
}

Status BPlusTree::FixUnderflow(Node* parent, size_t child_idx) {
  PageId child_page = parent->children[child_idx];
  SAE_ASSIGN_OR_RETURN(Node child, LoadNode(child_page));

  // Try borrowing from the left sibling.
  PageId left_page = storage::kInvalidPageId;
  Node left;
  if (child_idx > 0) {
    left_page = parent->children[child_idx - 1];
    SAE_ASSIGN_OR_RETURN(left, LoadNode(left_page));
    if (left.keys.size() > MinOccupancy(left)) {
      if (child.is_leaf) {
        child.keys.insert(child.keys.begin(), left.keys.back());
        child.rids.insert(child.rids.begin(), left.rids.back());
        left.keys.pop_back();
        left.rids.pop_back();
        parent->keys[child_idx - 1] = child.keys.front();
      } else {
        child.keys.insert(child.keys.begin(), parent->keys[child_idx - 1]);
        child.children.insert(child.children.begin(), left.children.back());
        parent->keys[child_idx - 1] = left.keys.back();
        left.keys.pop_back();
        left.children.pop_back();
      }
      if (with_digests_) {
        child.digests.insert(child.digests.begin(), left.digests.back());
        left.digests.pop_back();
      }
      return StoreSiblings(parent, child_idx - 1, left_page, left, child_page,
                           child);
    }
  }

  // Try borrowing from the right sibling.
  PageId right_page = storage::kInvalidPageId;
  Node right;
  if (child_idx + 1 < parent->children.size()) {
    right_page = parent->children[child_idx + 1];
    SAE_ASSIGN_OR_RETURN(right, LoadNode(right_page));
    if (right.keys.size() > MinOccupancy(right)) {
      if (child.is_leaf) {
        child.keys.push_back(right.keys.front());
        child.rids.push_back(right.rids.front());
        right.keys.erase(right.keys.begin());
        right.rids.erase(right.rids.begin());
        parent->keys[child_idx] = right.keys.front();
      } else {
        child.keys.push_back(parent->keys[child_idx]);
        child.children.push_back(right.children.front());
        parent->keys[child_idx] = right.keys.front();
        right.keys.erase(right.keys.begin());
        right.children.erase(right.children.begin());
      }
      if (with_digests_) {
        child.digests.push_back(right.digests.front());
        right.digests.erase(right.digests.begin());
      }
      return StoreSiblings(parent, child_idx, child_page, child, right_page,
                           right);
    }
  }

  // Merge with a sibling. Prefer absorbing `child` into the left sibling.
  if (child_idx > 0) {
    return MergeSiblings(parent, child_idx - 1, left_page, &left, child_page,
                         child);
  }
  SAE_CHECK(right_page != storage::kInvalidPageId);
  return MergeSiblings(parent, child_idx, child_page, &child, right_page,
                       right);
}

Status BPlusTree::StoreSiblings(Node* parent, size_t idx, PageId left_page,
                                const Node& left, PageId right_page,
                                const Node& right) {
  SAE_RETURN_NOT_OK(StoreNode(left_page, left));
  SAE_RETURN_NOT_OK(StoreNode(right_page, right));
  if (with_digests_) {
    parent->digests[idx] = NodeDigest(left);
    parent->digests[idx + 1] = NodeDigest(right);
  }
  return Status::OK();
}

Status BPlusTree::MergeSiblings(Node* parent, size_t idx, PageId left_page,
                                Node* left, PageId right_page,
                                const Node& right) {
  if (left->is_leaf) {
    Append(&left->rids, right.rids);
    left->next = right.next;
  } else {
    left->keys.push_back(parent->keys[idx]);
    Append(&left->children, right.children);
  }
  Append(&left->keys, right.keys);
  Append(&left->digests, right.digests);
  SAE_RETURN_NOT_OK(StoreNode(left_page, *left));
  SAE_RETURN_NOT_OK(FreeNode(right_page));
  parent->keys.erase(parent->keys.begin() + idx);
  parent->children.erase(parent->children.begin() + idx + 1);
  if (with_digests_) {
    parent->digests.erase(parent->digests.begin() + idx + 1);
    parent->digests[idx] = NodeDigest(*left);
  }
  return Status::OK();
}

TreeShape BPlusTree::PlanShape(size_t entries) const {
  TreeShape shape;
  std::vector<size_t> sizes =
      PlanChunks(entries, max_leaf_, std::max<size_t>(1, max_leaf_ / 2));
  for (;;) {
    shape.emplace_back(sizes.begin(), sizes.end());
    if (sizes.size() <= 1) return shape;
    sizes =
        PlanChunks(sizes.size(), max_internal_ + 1, max_internal_ / 2 + 1);
  }
}

Status BPlusTree::CheckShape(const TreeShape& shape, size_t entries) const {
  if (shape.empty() || shape.back().size() != 1) {
    return Status::InvalidArgument("tree shape must end in a single root");
  }
  if (entries == 0) {
    return shape.size() == 1 && shape[0][0] == 0
               ? Status::OK()
               : Status::InvalidArgument("an empty tree is one empty leaf");
  }
  size_t below = entries;  // what the level's nodes must hold between them
  for (size_t level = 0; level < shape.size(); ++level) {
    // A leaf holds 1..max_leaf_ entries, an internal node 2..max_internal_+1
    // children.
    const size_t lo = level == 0 ? 1 : 2;
    const size_t hi = level == 0 ? max_leaf_ : max_internal_ + 1;
    size_t total = 0;
    for (uint32_t fanout : shape[level]) {
      if (fanout < lo || fanout > hi) {
        return Status::InvalidArgument(
            "tree shape does not fit this tree's fanouts");
      }
      total += fanout;
    }
    if (total != below) {
      return Status::InvalidArgument("tree shape does not add up");
    }
    below = shape[level].size();
  }
  return Status::OK();
}

Status BPlusTree::BulkLoad(const std::vector<BTreeEntry>& sorted,
                           const std::vector<crypto::Digest>& digests,
                           const TreeShape& shape) {
  if (entry_count_ != 0 || node_count_ != 1) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  if (digests.size() != (with_digests_ ? sorted.size() : 0)) {
    return Status::InvalidArgument("digest column does not match the tree");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].key > sorted[i].key) {
      return Status::InvalidArgument("entries not sorted by key");
    }
  }
  SAE_RETURN_NOT_OK(CheckShape(shape, sorted.size()));
  if (sorted.empty()) return Status::OK();
  node_cache_.Clear();

  struct LevelEntry {
    Key first_key;
    PageId page;
  };
  std::vector<LevelEntry> level;
  level.reserve(shape[0].size());

  // Digest mode: one batched hash per tree level. A node's digest preimage
  // is its digest column, so the whole level rides the multi-buffer kernels
  // (NodeDigest would hash node-at-a-time). `columns` keeps the level's
  // columns alive until the batch call; `level_digests` parallels `level`.
  std::vector<std::vector<crypto::Digest>> columns;
  std::vector<crypto::Digest> level_digests;
  auto hash_level = [&] {
    std::vector<crypto::ByteSpan> spans(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      spans[i] = crypto::ByteSpan{columns[i].data(),
                                  columns[i].size() * kDigestSize};
    }
    level_digests.assign(columns.size(), crypto::Digest{});
    crypto::ComputeDigests(spans.data(), spans.size(), level_digests.data(),
                           scheme_);
    columns.clear();
  };

  // Each leaf takes its successor's page before it is written, so it is
  // stored once, already linked. The first recycles the empty root page.
  size_t offset = 0;
  PageId page = root_;
  for (size_t li = 0; li < shape[0].size(); ++li) {
    Node leaf;
    leaf.is_leaf = true;
    const size_t end = offset + shape[0][li];
    for (size_t i = offset; i < end; ++i) {
      leaf.keys.push_back(sorted[i].key);
      leaf.rids.push_back(sorted[i].rid);
    }
    if (with_digests_) {
      leaf.digests.assign(digests.begin() + offset, digests.begin() + end);
    }
    offset = end;
    if (li + 1 < shape[0].size()) {
      SAE_ASSIGN_OR_RETURN(leaf.next, AllocNode());
    }
    SAE_RETURN_NOT_OK(StoreNode(page, leaf));
    level.push_back(LevelEntry{leaf.keys.front(), page});
    if (with_digests_) columns.push_back(std::move(leaf.digests));
    page = leaf.next;
  }
  if (with_digests_) hash_level();

  for (size_t height = 1; height < shape.size(); ++height) {
    std::vector<LevelEntry> next_level;
    next_level.reserve(shape[height].size());
    size_t pos = 0;
    for (uint32_t fanout : shape[height]) {
      Node internal;
      internal.is_leaf = false;
      internal.children.push_back(level[pos].page);
      for (size_t i = 1; i < fanout; ++i) {
        internal.keys.push_back(level[pos + i].first_key);
        internal.children.push_back(level[pos + i].page);
      }
      if (with_digests_) {
        internal.digests.assign(level_digests.begin() + pos,
                                level_digests.begin() + pos + fanout);
      }
      SAE_ASSIGN_OR_RETURN(PageId internal_page, NewNode(internal));
      next_level.push_back(LevelEntry{level[pos].first_key, internal_page});
      if (with_digests_) columns.push_back(std::move(internal.digests));
      pos += fanout;
    }
    if (with_digests_) hash_level();
    level = std::move(next_level);
  }

  root_ = level.front().page;
  if (with_digests_) root_digest_ = level_digests.front();
  height_ = shape.size();
  entry_count_ = sorted.size();
  return Status::OK();
}

Status BPlusTree::BulkLoad(const std::vector<BTreeEntry>& sorted) {
  return BulkLoad(sorted, {}, PlanShape(sorted.size()));
}

Status BPlusTree::BulkLoad(const std::vector<DigestEntry>& sorted) {
  std::vector<BTreeEntry> postings;
  std::vector<crypto::Digest> digests;
  postings.reserve(sorted.size());
  digests.reserve(sorted.size());
  for (const DigestEntry& e : sorted) {
    postings.push_back(BTreeEntry{e.key, e.rid});
    digests.push_back(e.digest);
  }
  return BulkLoad(postings, digests, PlanShape(sorted.size()));
}

Status BPlusTree::Walk(TreeShape* shape, std::vector<Rid>* rids) const {
  shape->clear();
  if (rids != nullptr) rids->clear();
  std::vector<PageId> level{root_};
  for (size_t depth = 0;; ++depth) {
    std::vector<uint32_t> fanouts;
    fanouts.reserve(level.size());
    std::vector<PageId> below;
    bool leaves = false;
    for (PageId page : level) {
      SAE_ASSIGN_OR_RETURN(NodeView node, ReadNode(page, depth));
      leaves = node->is_leaf;
      if (leaves) {
        fanouts.push_back(uint32_t(node->keys.size()));
        if (rids != nullptr) Append(rids, node->rids);
      } else {
        fanouts.push_back(uint32_t(node->children.size()));
        Append(&below, node->children);
      }
    }
    shape->push_back(std::move(fanouts));
    if (leaves) break;  // every leaf sits at the same depth
    level = std::move(below);
  }
  std::reverse(shape->begin(), shape->end());
  return Status::OK();
}

Status BPlusTree::ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                              std::optional<Key> hi, ValidateWalk* walk,
                              crypto::Digest* digest) const {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  ++walk->nodes;

  for (size_t i = 1; i < node.keys.size(); ++i) {
    if (node.keys[i - 1] > node.keys[i]) {
      return Status::Corruption("keys out of order");
    }
  }
  for (Key k : node.keys) {
    if ((lo && k < *lo) || (hi && k > *hi)) {
      return Status::Corruption("key outside separator bounds");
    }
  }

  if (node.is_leaf) {
    if (node.keys.size() > max_leaf_) {
      return Status::Corruption("leaf overflow");
    }
    if (walk->leaf_depth == 0) {
      walk->leaf_depth = depth;
    } else if (walk->leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    walk->entries += node.keys.size();
    walk->leaves_in_order.push_back(page);
    *digest = NodeDigest(node);
    return Status::OK();
  }

  if (node.keys.size() > max_internal_) {
    return Status::Corruption("internal overflow");
  }
  if (node.children.size() != node.keys.size() + 1) {
    return Status::Corruption("child/key count mismatch");
  }
  if (page != root_ && node.keys.size() < max_internal_ / 2) {
    return Status::Corruption("internal underflow");
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    std::optional<Key> child_lo =
        (i == 0) ? lo : std::optional(node.keys[i - 1]);
    std::optional<Key> child_hi =
        (i == node.keys.size()) ? hi : std::optional(node.keys[i]);
    crypto::Digest child_digest;
    SAE_RETURN_NOT_OK(ValidateRec(node.children[i], depth + 1, child_lo,
                                  child_hi, walk, &child_digest));
    if (with_digests_ && child_digest != node.digests[i]) {
      return Status::Corruption("stale child digest");
    }
  }
  *digest = NodeDigest(node);
  return Status::OK();
}

Status BPlusTree::Validate() const {
  ValidateWalk walk;
  crypto::Digest digest;
  SAE_RETURN_NOT_OK(
      ValidateRec(root_, 1, std::nullopt, std::nullopt, &walk, &digest));
  if (walk.entries != entry_count_) {
    return Status::Corruption("entry count mismatch");
  }
  if (walk.nodes != node_count_) {
    return Status::Corruption("node count mismatch");
  }
  if (walk.leaf_depth != height_) {
    return Status::Corruption("height mismatch");
  }
  if (digest != root_digest_) {
    return Status::Corruption("root digest stale");
  }
  // The left-to-right leaf order must match the next-pointer chain.
  const std::vector<PageId>& leaves = walk.leaves_in_order;
  for (size_t i = 0; i < leaves.size(); ++i) {
    SAE_ASSIGN_OR_RETURN(Node leaf, LoadNode(leaves[i]));
    PageId expected =
        i + 1 < leaves.size() ? leaves[i + 1] : storage::kInvalidPageId;
    if (leaf.next != expected) {
      return Status::Corruption("broken leaf chain");
    }
  }
  return Status::OK();
}

}  // namespace sae::btree
