// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the Merkle B-tree (mbtree/mb_tree.h): B+-tree maintenance with
// per-entry digests recomputed along every root path, plus the range-search
// hooks VO construction traverses.

#include "mbtree/mb_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::mbtree {

namespace {

constexpr uint32_t kMagic = 0x4D42544Eu;  // "MBTN"
constexpr size_t kHeaderSize = 16;
constexpr size_t kDigestSize = crypto::Digest::kSize;  // 20
constexpr size_t kLeafEntrySize = 4 + 8 + kDigestSize;  // 32
constexpr size_t kInternalEntrySize = 4 + 4 + kDigestSize;  // 28
constexpr size_t kInternalChild0Size = 4 + kDigestSize;  // 24

size_t DefaultMaxLeaf() {
  return (storage::kPageSize - kHeaderSize) / kLeafEntrySize;  // 127
}
size_t DefaultMaxInternal() {
  return (storage::kPageSize - kHeaderSize - kInternalChild0Size) /
         kInternalEntrySize;  // 144
}

// Near-equal chunks aiming at `target` per chunk within [min_size,
// hard_cap]; see bplus_tree.cc for the rationale.
std::vector<size_t> PlanChunks(size_t total, size_t target, size_t hard_cap,
                               size_t min_size) {
  SAE_CHECK(min_size >= 1 && min_size <= hard_cap && target >= 1);
  if (total <= min_size) return {total};
  size_t n = (total + target - 1) / target;
  if (n == 0) n = 1;
  while (n > 1 && total / n < min_size) --n;
  while ((total + n - 1) / n > hard_cap) ++n;
  std::vector<size_t> sizes(n, total / n);
  for (size_t i = 0; i < total % n; ++i) ++sizes[i];
  return sizes;
}

}  // namespace

Result<std::unique_ptr<MbTree>> MbTree::Create(BufferPool* pool,
                                               const MbTreeOptions& options) {
  size_t max_leaf =
      options.max_leaf_entries ? options.max_leaf_entries : DefaultMaxLeaf();
  size_t max_internal = options.max_internal_keys ? options.max_internal_keys
                                                  : DefaultMaxInternal();
  SAE_CHECK(max_leaf >= 2 && max_leaf <= DefaultMaxLeaf());
  SAE_CHECK(max_internal >= 2 && max_internal <= DefaultMaxInternal());

  auto tree = std::unique_ptr<MbTree>(new MbTree(
      pool, max_leaf, max_internal, options.scheme,
      storage::NodeCacheOptions{options.hot_cache_levels,
                                options.hot_cache_entries}));
  Node root;
  root.is_leaf = true;
  SAE_ASSIGN_OR_RETURN(tree->root_, tree->NewNode(root));
  tree->root_digest_ = tree->NodeDigest(root);
  return tree;
}

crypto::Digest MbTree::NodeDigest(const Node& node) const {
  if (node.digests.empty()) {
    // Empty tree: digest of zero digests — hash of the empty string.
    return crypto::CombineDigests(nullptr, 0, scheme_);
  }
  return crypto::CombineDigests(node.digests.data(), node.digests.size(),
                                scheme_);
}

Result<MbTree::Node> MbTree::LoadNode(PageId id) const {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  const uint8_t* p = ref.Get().bytes();
  if (DecodeU32(p) != kMagic) {
    return Status::Corruption("bad mbtree node magic");
  }
  Node node;
  node.is_leaf = p[4] != 0;
  uint16_t count = DecodeU16(p + 6);
  node.next = DecodeU32(p + 8);
  const uint8_t* body = p + kHeaderSize;
  if (node.is_leaf) {
    for (uint16_t i = 0; i < count; ++i) {
      const uint8_t* e = body + i * kLeafEntrySize;
      node.keys.push_back(DecodeU32(e));
      node.rids.push_back(DecodeU64(e + 4));
      crypto::Digest d;
      std::memcpy(d.bytes.data(), e + 12, kDigestSize);
      node.digests.push_back(d);
    }
  } else {
    node.children.push_back(DecodeU32(body));
    crypto::Digest d0;
    std::memcpy(d0.bytes.data(), body + 4, kDigestSize);
    node.digests.push_back(d0);
    const uint8_t* pairs = body + kInternalChild0Size;
    for (uint16_t i = 0; i < count; ++i) {
      const uint8_t* e = pairs + i * kInternalEntrySize;
      node.keys.push_back(DecodeU32(e));
      node.children.push_back(DecodeU32(e + 4));
      crypto::Digest d;
      std::memcpy(d.bytes.data(), e + 8, kDigestSize);
      node.digests.push_back(d);
    }
  }
  return node;
}

Result<std::shared_ptr<const MbTree::Node>> MbTree::LoadNodeCached(
    PageId id, size_t depth) const {
  if (auto hit = node_cache_.Lookup(id, depth)) return hit;
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(id));
  return node_cache_.Insert(id, depth, std::move(node));
}

Status MbTree::StoreNode(PageId id, const Node& node) {
  node_cache_.Invalidate(id);
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  storage::Page& page = ref.Mutable();
  page.Zero();
  uint8_t* p = page.bytes();
  EncodeU32(p, kMagic);
  p[4] = node.is_leaf ? 1 : 0;
  EncodeU16(p + 6, uint16_t(node.keys.size()));
  EncodeU32(p + 8, node.next);
  uint8_t* body = p + kHeaderSize;
  if (node.is_leaf) {
    SAE_CHECK(node.keys.size() == node.rids.size());
    SAE_CHECK(node.keys.size() == node.digests.size());
    SAE_CHECK(node.keys.size() <= DefaultMaxLeaf());
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint8_t* e = body + i * kLeafEntrySize;
      EncodeU32(e, node.keys[i]);
      EncodeU64(e + 4, node.rids[i]);
      std::memcpy(e + 12, node.digests[i].bytes.data(), kDigestSize);
    }
  } else {
    SAE_CHECK(node.children.size() == node.keys.size() + 1);
    SAE_CHECK(node.digests.size() == node.children.size());
    SAE_CHECK(node.keys.size() <= DefaultMaxInternal());
    EncodeU32(body, node.children[0]);
    std::memcpy(body + 4, node.digests[0].bytes.data(), kDigestSize);
    uint8_t* pairs = body + kInternalChild0Size;
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint8_t* e = pairs + i * kInternalEntrySize;
      EncodeU32(e, node.keys[i]);
      EncodeU32(e + 4, node.children[i + 1]);
      std::memcpy(e + 8, node.digests[i + 1].bytes.data(), kDigestSize);
    }
  }
  return Status::OK();
}

Result<PageId> MbTree::NewNode(const Node& node) {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->New());
  PageId id = ref.id();
  ref.Release();
  SAE_RETURN_NOT_OK(StoreNode(id, node));
  ++node_count_;
  return id;
}

size_t MbTree::MinOccupancy(const Node& node) const {
  return node.is_leaf ? max_leaf_ / 2 : max_internal_ / 2;
}

Status MbTree::Insert(const MbEntry& entry) {
  std::optional<SplitResult> split;
  crypto::Digest root_child_digest;
  SAE_RETURN_NOT_OK(InsertRec(root_, entry, &split, &root_child_digest));
  if (split.has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split->separator);
    new_root.children.push_back(root_);
    new_root.children.push_back(split->right_page);
    new_root.digests.push_back(root_child_digest);
    new_root.digests.push_back(split->right_digest);
    SAE_ASSIGN_OR_RETURN(root_, NewNode(new_root));
    ++height_;
    root_digest_ = NodeDigest(new_root);
  } else {
    root_digest_ = root_child_digest;
  }
  ++entry_count_;
  return Status::OK();
}

Status MbTree::InsertRec(PageId page, const MbEntry& entry,
                         std::optional<SplitResult>* split,
                         crypto::Digest* self_digest) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  split->reset();

  if (node.is_leaf) {
    size_t pos =
        std::upper_bound(node.keys.begin(), node.keys.end(), entry.key) -
        node.keys.begin();
    node.keys.insert(node.keys.begin() + pos, entry.key);
    node.rids.insert(node.rids.begin() + pos, entry.rid);
    node.digests.insert(node.digests.begin() + pos, entry.digest);

    if (node.keys.size() > max_leaf_) {
      size_t mid = node.keys.size() / 2;
      Node right;
      right.is_leaf = true;
      right.keys.assign(node.keys.begin() + mid, node.keys.end());
      right.rids.assign(node.rids.begin() + mid, node.rids.end());
      right.digests.assign(node.digests.begin() + mid, node.digests.end());
      right.next = node.next;
      node.keys.resize(mid);
      node.rids.resize(mid);
      node.digests.resize(mid);
      SAE_ASSIGN_OR_RETURN(PageId right_page, NewNode(right));
      node.next = right_page;
      *split = SplitResult{right.keys.front(), right_page, NodeDigest(right)};
    }
    *self_digest = NodeDigest(node);
    return StoreNode(page, node);
  }

  size_t idx =
      std::upper_bound(node.keys.begin(), node.keys.end(), entry.key) -
      node.keys.begin();
  std::optional<SplitResult> child_split;
  crypto::Digest child_digest;
  SAE_RETURN_NOT_OK(
      InsertRec(node.children[idx], entry, &child_split, &child_digest));
  node.digests[idx] = child_digest;

  if (child_split.has_value()) {
    node.keys.insert(node.keys.begin() + idx, child_split->separator);
    node.children.insert(node.children.begin() + idx + 1,
                         child_split->right_page);
    node.digests.insert(node.digests.begin() + idx + 1,
                        child_split->right_digest);

    if (node.keys.size() > max_internal_) {
      size_t mid = node.keys.size() / 2;
      Key separator = node.keys[mid];
      Node right;
      right.is_leaf = false;
      right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
      right.children.assign(node.children.begin() + mid + 1,
                            node.children.end());
      right.digests.assign(node.digests.begin() + mid + 1,
                           node.digests.end());
      node.keys.resize(mid);
      node.children.resize(mid + 1);
      node.digests.resize(mid + 1);
      SAE_ASSIGN_OR_RETURN(PageId right_page, NewNode(right));
      *split = SplitResult{separator, right_page, NodeDigest(right)};
    }
  }
  *self_digest = NodeDigest(node);
  return StoreNode(page, node);
}

Status MbTree::Delete(Key key, Rid rid) {
  bool underflow = false;
  crypto::Digest new_digest;
  SAE_RETURN_NOT_OK(DeleteRec(root_, key, rid, &underflow, &new_digest));
  root_digest_ = new_digest;
  if (underflow) {
    SAE_ASSIGN_OR_RETURN(Node root, LoadNode(root_));
    if (!root.is_leaf && root.keys.empty()) {
      PageId old = root_;
      root_ = root.children[0];
      root_digest_ = root.digests[0];
      node_cache_.Invalidate(old);
      SAE_RETURN_NOT_OK(pool_->Free(old));
      --node_count_;
      --height_;
    }
  }
  --entry_count_;
  return Status::OK();
}

Status MbTree::DeleteRec(PageId page, Key key, Rid rid, bool* underflow,
                         crypto::Digest* self_digest) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  *underflow = false;

  if (node.is_leaf) {
    size_t pos = std::lower_bound(node.keys.begin(), node.keys.end(), key) -
                 node.keys.begin();
    for (; pos < node.keys.size() && node.keys[pos] == key; ++pos) {
      if (node.rids[pos] == rid) {
        node.keys.erase(node.keys.begin() + pos);
        node.rids.erase(node.rids.begin() + pos);
        node.digests.erase(node.digests.begin() + pos);
        *underflow = node.keys.size() < MinOccupancy(node);
        *self_digest = NodeDigest(node);
        return StoreNode(page, node);
      }
    }
    return Status::NotFound("posting not found");
  }

  size_t first = std::lower_bound(node.keys.begin(), node.keys.end(), key) -
                 node.keys.begin();
  size_t last = std::upper_bound(node.keys.begin(), node.keys.end(), key) -
                node.keys.begin();
  for (size_t idx = first; idx <= last; ++idx) {
    bool child_underflow = false;
    crypto::Digest child_digest;
    Status st =
        DeleteRec(node.children[idx], key, rid, &child_underflow,
                  &child_digest);
    if (st.code() == StatusCode::kNotFound) continue;
    SAE_RETURN_NOT_OK(st);
    node.digests[idx] = child_digest;
    if (child_underflow) {
      SAE_RETURN_NOT_OK(FixUnderflow(&node, idx));
      *underflow = node.keys.size() < MinOccupancy(node);
    }
    *self_digest = NodeDigest(node);
    return StoreNode(page, node);
  }
  return Status::NotFound("posting not found");
}

Status MbTree::FixUnderflow(Node* parent, size_t child_idx) {
  PageId child_page = parent->children[child_idx];
  SAE_ASSIGN_OR_RETURN(Node child, LoadNode(child_page));

  if (child_idx > 0) {
    PageId left_page = parent->children[child_idx - 1];
    SAE_ASSIGN_OR_RETURN(Node left, LoadNode(left_page));
    if (left.keys.size() > MinOccupancy(left)) {
      if (child.is_leaf) {
        child.keys.insert(child.keys.begin(), left.keys.back());
        child.rids.insert(child.rids.begin(), left.rids.back());
        child.digests.insert(child.digests.begin(), left.digests.back());
        left.keys.pop_back();
        left.rids.pop_back();
        left.digests.pop_back();
        parent->keys[child_idx - 1] = child.keys.front();
      } else {
        child.keys.insert(child.keys.begin(), parent->keys[child_idx - 1]);
        child.children.insert(child.children.begin(), left.children.back());
        child.digests.insert(child.digests.begin(), left.digests.back());
        parent->keys[child_idx - 1] = left.keys.back();
        left.keys.pop_back();
        left.children.pop_back();
        left.digests.pop_back();
      }
      SAE_RETURN_NOT_OK(StoreNode(left_page, left));
      SAE_RETURN_NOT_OK(StoreNode(child_page, child));
      parent->digests[child_idx - 1] = NodeDigest(left);
      parent->digests[child_idx] = NodeDigest(child);
      return Status::OK();
    }
  }

  if (child_idx + 1 < parent->children.size()) {
    PageId right_page = parent->children[child_idx + 1];
    SAE_ASSIGN_OR_RETURN(Node right, LoadNode(right_page));
    if (right.keys.size() > MinOccupancy(right)) {
      if (child.is_leaf) {
        child.keys.push_back(right.keys.front());
        child.rids.push_back(right.rids.front());
        child.digests.push_back(right.digests.front());
        right.keys.erase(right.keys.begin());
        right.rids.erase(right.rids.begin());
        right.digests.erase(right.digests.begin());
        parent->keys[child_idx] = right.keys.front();
      } else {
        child.keys.push_back(parent->keys[child_idx]);
        child.children.push_back(right.children.front());
        child.digests.push_back(right.digests.front());
        parent->keys[child_idx] = right.keys.front();
        right.keys.erase(right.keys.begin());
        right.children.erase(right.children.begin());
        right.digests.erase(right.digests.begin());
      }
      SAE_RETURN_NOT_OK(StoreNode(right_page, right));
      SAE_RETURN_NOT_OK(StoreNode(child_page, child));
      parent->digests[child_idx] = NodeDigest(child);
      parent->digests[child_idx + 1] = NodeDigest(right);
      return Status::OK();
    }
  }

  if (child_idx > 0) {
    PageId left_page = parent->children[child_idx - 1];
    SAE_ASSIGN_OR_RETURN(Node left, LoadNode(left_page));
    if (child.is_leaf) {
      left.keys.insert(left.keys.end(), child.keys.begin(), child.keys.end());
      left.rids.insert(left.rids.end(), child.rids.begin(), child.rids.end());
      left.digests.insert(left.digests.end(), child.digests.begin(),
                          child.digests.end());
      left.next = child.next;
    } else {
      left.keys.push_back(parent->keys[child_idx - 1]);
      left.keys.insert(left.keys.end(), child.keys.begin(), child.keys.end());
      left.children.insert(left.children.end(), child.children.begin(),
                           child.children.end());
      left.digests.insert(left.digests.end(), child.digests.begin(),
                          child.digests.end());
    }
    SAE_RETURN_NOT_OK(StoreNode(left_page, left));
    node_cache_.Invalidate(child_page);
    SAE_RETURN_NOT_OK(pool_->Free(child_page));
    --node_count_;
    parent->keys.erase(parent->keys.begin() + child_idx - 1);
    parent->children.erase(parent->children.begin() + child_idx);
    parent->digests.erase(parent->digests.begin() + child_idx);
    parent->digests[child_idx - 1] = NodeDigest(left);
    return Status::OK();
  }

  SAE_CHECK(child_idx + 1 < parent->children.size());
  PageId right_page = parent->children[child_idx + 1];
  SAE_ASSIGN_OR_RETURN(Node right, LoadNode(right_page));
  if (child.is_leaf) {
    child.keys.insert(child.keys.end(), right.keys.begin(), right.keys.end());
    child.rids.insert(child.rids.end(), right.rids.begin(), right.rids.end());
    child.digests.insert(child.digests.end(), right.digests.begin(),
                         right.digests.end());
    child.next = right.next;
  } else {
    child.keys.push_back(parent->keys[child_idx]);
    child.keys.insert(child.keys.end(), right.keys.begin(), right.keys.end());
    child.children.insert(child.children.end(), right.children.begin(),
                          right.children.end());
    child.digests.insert(child.digests.end(), right.digests.begin(),
                         right.digests.end());
  }
  SAE_RETURN_NOT_OK(StoreNode(child_page, child));
  node_cache_.Invalidate(right_page);
  SAE_RETURN_NOT_OK(pool_->Free(right_page));
  --node_count_;
  parent->keys.erase(parent->keys.begin() + child_idx);
  parent->children.erase(parent->children.begin() + child_idx + 1);
  parent->digests.erase(parent->digests.begin() + child_idx + 1);
  parent->digests[child_idx] = NodeDigest(child);
  return Status::OK();
}

Status MbTree::BulkLoad(const std::vector<MbEntry>& sorted, double fill) {
  if (entry_count_ != 0 || node_count_ != 1) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  if (fill <= 0.0 || fill > 1.0) {
    return Status::InvalidArgument("fill must be in (0, 1]");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].key > sorted[i].key) {
      return Status::InvalidArgument("entries not sorted by key");
    }
  }
  if (sorted.empty()) return Status::OK();
  node_cache_.Clear();

  size_t min_leaf = std::max<size_t>(1, max_leaf_ / 2);
  size_t leaf_target = std::max<size_t>(
      min_leaf, static_cast<size_t>(double(max_leaf_) * fill));
  std::vector<size_t> leaf_sizes =
      PlanChunks(sorted.size(), leaf_target, max_leaf_, min_leaf);

  struct LevelEntry {
    Key first_key;
    PageId page;
    crypto::Digest digest;
  };
  std::vector<LevelEntry> level;
  level.reserve(leaf_sizes.size());

  // One batched hash per tree level: a node's digest preimage is its
  // child-digest array, so the whole level rides the multi-buffer kernels
  // (NodeDigest would hash node-at-a-time). Payloads are the nodes' digest
  // vectors, kept alive until the batch call.
  std::vector<std::vector<crypto::Digest>> payloads;
  auto fill_level_digests = [&](std::vector<LevelEntry>* entries) {
    std::vector<crypto::ByteSpan> spans(payloads.size());
    for (size_t i = 0; i < payloads.size(); ++i) {
      spans[i] = crypto::ByteSpan{payloads[i].data(),
                                  payloads[i].size() * crypto::Digest::kSize};
    }
    std::vector<crypto::Digest> digests(payloads.size());
    crypto::ComputeDigests(spans.data(), spans.size(), digests.data(),
                           scheme_);
    for (size_t i = 0; i < digests.size(); ++i) {
      (*entries)[i].digest = digests[i];
    }
    payloads.clear();
  };

  size_t offset = 0;
  PageId prev_leaf = storage::kInvalidPageId;
  for (size_t li = 0; li < leaf_sizes.size(); ++li) {
    Node leaf;
    leaf.is_leaf = true;
    for (size_t i = 0; i < leaf_sizes[li]; ++i) {
      leaf.keys.push_back(sorted[offset + i].key);
      leaf.rids.push_back(sorted[offset + i].rid);
      leaf.digests.push_back(sorted[offset + i].digest);
    }
    offset += leaf_sizes[li];

    PageId page;
    if (li == 0) {
      page = root_;
      SAE_RETURN_NOT_OK(StoreNode(page, leaf));
    } else {
      SAE_ASSIGN_OR_RETURN(page, NewNode(leaf));
    }
    if (prev_leaf != storage::kInvalidPageId) {
      SAE_ASSIGN_OR_RETURN(Node prev, LoadNode(prev_leaf));
      prev.next = page;
      SAE_RETURN_NOT_OK(StoreNode(prev_leaf, prev));
    }
    prev_leaf = page;
    level.push_back(LevelEntry{leaf.keys.front(), page, crypto::Digest{}});
    payloads.push_back(std::move(leaf.digests));
  }
  fill_level_digests(&level);

  height_ = 1;
  size_t min_children = max_internal_ / 2 + 1;
  size_t target_children = std::max<size_t>(
      min_children, static_cast<size_t>(double(max_internal_ + 1) * fill));
  while (level.size() > 1) {
    std::vector<size_t> group_sizes = PlanChunks(
        level.size(), target_children, max_internal_ + 1, min_children);
    std::vector<LevelEntry> next_level;
    next_level.reserve(group_sizes.size());
    size_t pos = 0;
    for (size_t gs : group_sizes) {
      Node internal;
      internal.is_leaf = false;
      internal.children.push_back(level[pos].page);
      internal.digests.push_back(level[pos].digest);
      for (size_t i = 1; i < gs; ++i) {
        internal.keys.push_back(level[pos + i].first_key);
        internal.children.push_back(level[pos + i].page);
        internal.digests.push_back(level[pos + i].digest);
      }
      SAE_ASSIGN_OR_RETURN(PageId page, NewNode(internal));
      next_level.push_back(
          LevelEntry{level[pos].first_key, page, crypto::Digest{}});
      payloads.push_back(std::move(internal.digests));
      pos += gs;
    }
    fill_level_digests(&next_level);
    level = std::move(next_level);
    ++height_;
  }

  root_ = level.front().page;
  entry_count_ = sorted.size();
  root_digest_ = level.front().digest;
  return Status::OK();
}

Status MbTree::RangeSearch(Key lo, Key hi, std::vector<MbEntry>* out) const {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  PageId page = root_;
  size_t depth = 0;
  for (;;) {
    SAE_ASSIGN_OR_RETURN(auto node, LoadNodeCached(page, depth));
    if (node->is_leaf) break;
    size_t idx = std::lower_bound(node->keys.begin(), node->keys.end(), lo) -
                 node->keys.begin();
    page = node->children[idx];
    ++depth;
  }
  while (page != storage::kInvalidPageId) {
    SAE_ASSIGN_OR_RETURN(auto leaf, LoadNodeCached(page, depth));
    size_t pos = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo) -
                 leaf->keys.begin();
    for (; pos < leaf->keys.size(); ++pos) {
      if (leaf->keys[pos] > hi) return Status::OK();
      out->push_back(MbEntry{leaf->keys[pos], leaf->rids[pos],
                             leaf->digests[pos]});
    }
    page = leaf->next;
  }
  return Status::OK();
}

Result<std::optional<MbEntry>> MbTree::PredecessorRec(PageId page,
                                                      size_t depth,
                                                      Key lo) const {
  SAE_ASSIGN_OR_RETURN(auto node, LoadNodeCached(page, depth));
  if (node->is_leaf) {
    size_t pos = std::lower_bound(node->keys.begin(), node->keys.end(), lo) -
                 node->keys.begin();
    if (pos == 0) return std::optional<MbEntry>();
    return std::optional<MbEntry>(MbEntry{node->keys[pos - 1],
                                          node->rids[pos - 1],
                                          node->digests[pos - 1]});
  }
  size_t idx = std::lower_bound(node->keys.begin(), node->keys.end(), lo) -
               node->keys.begin();
  for (size_t i = idx + 1; i-- > 0;) {
    SAE_ASSIGN_OR_RETURN(auto r,
                         PredecessorRec(node->children[i], depth + 1, lo));
    if (r.has_value()) return r;
    if (i == 0) break;
  }
  return std::optional<MbEntry>();
}

Result<std::optional<MbEntry>> MbTree::SuccessorRec(PageId page, size_t depth,
                                                    Key hi) const {
  SAE_ASSIGN_OR_RETURN(auto node, LoadNodeCached(page, depth));
  if (node->is_leaf) {
    size_t pos = std::upper_bound(node->keys.begin(), node->keys.end(), hi) -
                 node->keys.begin();
    if (pos == node->keys.size()) return std::optional<MbEntry>();
    return std::optional<MbEntry>(
        MbEntry{node->keys[pos], node->rids[pos], node->digests[pos]});
  }
  size_t idx = std::upper_bound(node->keys.begin(), node->keys.end(), hi) -
               node->keys.begin();
  for (size_t i = idx; i < node->children.size(); ++i) {
    SAE_ASSIGN_OR_RETURN(auto r, SuccessorRec(node->children[i], depth + 1,
                                              hi));
    if (r.has_value()) return r;
  }
  return std::optional<MbEntry>();
}

Result<std::optional<MbEntry>> MbTree::Predecessor(Key lo) const {
  if (lo == 0) return std::optional<MbEntry>();
  return PredecessorRec(root_, 0, lo);
}

Result<std::optional<MbEntry>> MbTree::Successor(Key hi) const {
  return SuccessorRec(root_, 0, hi);
}

Status MbTree::BuildVoRec(PageId page, size_t depth, Key lo, Key hi,
                          const std::optional<MbEntry>& left_boundary,
                          const std::optional<MbEntry>& right_boundary,
                          const RecordFetcher& fetch, VoNode* out) const {
  SAE_ASSIGN_OR_RETURN(auto node_ptr, LoadNodeCached(page, depth));
  const Node& node = *node_ptr;
  out->is_leaf = node.is_leaf;

  // The span that must be expanded (not hidden behind digests): from the
  // left boundary's key (or lo) through the right boundary's key (or hi).
  Key span_lo = left_boundary ? left_boundary->key : lo;
  Key span_hi = right_boundary ? right_boundary->key : hi;

  if (node.is_leaf) {
    for (size_t i = 0; i < node.keys.size(); ++i) {
      VoItem item;
      bool is_left = left_boundary && node.keys[i] == left_boundary->key &&
                     node.rids[i] == left_boundary->rid;
      bool is_right = right_boundary && node.keys[i] == right_boundary->key &&
                      node.rids[i] == right_boundary->rid;
      if (is_left || is_right) {
        item.type = VoItem::Type::kBoundaryRecord;
        SAE_ASSIGN_OR_RETURN(item.record_bytes, fetch(node.rids[i]));
      } else if (node.keys[i] >= lo && node.keys[i] <= hi) {
        item.type = VoItem::Type::kResultEntry;
      } else {
        item.type = VoItem::Type::kDigest;
        item.digest = node.digests[i];
      }
      out->items.push_back(std::move(item));
    }
    return Status::OK();
  }

  for (size_t i = 0; i < node.children.size(); ++i) {
    // Child i covers [keys[i-1], keys[i]], inclusive at both ends because
    // duplicate keys may straddle node boundaries.
    Key child_lo = (i == 0) ? 0 : node.keys[i - 1];
    Key child_hi =
        (i == node.keys.size()) ? std::numeric_limits<Key>::max()
                                : node.keys[i];
    VoItem item;
    if (child_hi < span_lo || child_lo > span_hi) {
      item.type = VoItem::Type::kDigest;
      item.digest = node.digests[i];
    } else {
      item.type = VoItem::Type::kChild;
      item.child = std::make_unique<VoNode>();
      SAE_RETURN_NOT_OK(BuildVoRec(node.children[i], depth + 1, lo, hi,
                                   left_boundary, right_boundary, fetch,
                                   item.child.get()));
    }
    out->items.push_back(std::move(item));
  }
  return Status::OK();
}

Result<VerificationObject> MbTree::BuildVo(Key lo, Key hi,
                                           const RecordFetcher& fetch) const {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  SAE_ASSIGN_OR_RETURN(auto left_boundary, Predecessor(lo));
  SAE_ASSIGN_OR_RETURN(auto right_boundary, Successor(hi));
  VerificationObject vo;
  SAE_RETURN_NOT_OK(BuildVoRec(root_, 0, lo, hi, left_boundary,
                               right_boundary, fetch, &vo.root));
  return vo;
}

Status MbTree::ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                           std::optional<Key> hi, size_t* leaf_depth,
                           size_t* entries, size_t* nodes,
                           crypto::Digest* digest) const {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  ++*nodes;

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
    if (node.keys.size() > max_leaf_) return Status::Corruption("leaf overflow");
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    *entries += node.keys.size();
    *digest = NodeDigest(node);
    return Status::OK();
  }

  if (node.keys.size() > max_internal_) {
    return Status::Corruption("internal overflow");
  }
  if (node.children.size() != node.keys.size() + 1 ||
      node.digests.size() != node.children.size()) {
    return Status::Corruption("child/key/digest count mismatch");
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    std::optional<Key> child_lo =
        (i == 0) ? lo : std::optional(node.keys[i - 1]);
    std::optional<Key> child_hi =
        (i == node.keys.size()) ? hi : std::optional(node.keys[i]);
    crypto::Digest child_digest;
    SAE_RETURN_NOT_OK(ValidateRec(node.children[i], depth + 1, child_lo,
                                  child_hi, leaf_depth, entries, nodes,
                                  &child_digest));
    if (child_digest != node.digests[i]) {
      return Status::Corruption("stale child digest");
    }
  }
  *digest = NodeDigest(node);
  return Status::OK();
}

Status MbTree::Validate() const {
  size_t leaf_depth = 0, entries = 0, nodes = 0;
  crypto::Digest digest;
  SAE_RETURN_NOT_OK(ValidateRec(root_, 1, std::nullopt, std::nullopt,
                                &leaf_depth, &entries, &nodes, &digest));
  if (entries != entry_count_) return Status::Corruption("entry count mismatch");
  if (nodes != node_count_) return Status::Corruption("node count mismatch");
  if (leaf_depth != height_) return Status::Corruption("height mismatch");
  if (digest != root_digest_) return Status::Corruption("root digest stale");
  return Status::OK();
}

}  // namespace sae::mbtree
