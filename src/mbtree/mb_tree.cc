// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the MB-specific half of the Merkle B-tree (mbtree/mb_tree.h):
// boundary lookup and covering-subtree VO construction over the digest-mode
// B+-tree, which maintains the digests.

#include "mbtree/mb_tree.h"

#include <algorithm>
#include <limits>

#include "util/macros.h"

namespace sae::mbtree {

MbTree::MbTree(BufferPool* pool, const MbTreeOptions& options,
               crypto::HashScheme scheme)
    : BPlusTree(pool,
                btree::BPlusTreeOptions{options.max_leaf_entries,
                                        options.max_internal_keys},
                DigestColumn{scheme, options.hot_cache_levels}) {}

Result<std::unique_ptr<MbTree>> MbTree::Create(BufferPool* pool,
                                               const MbTreeOptions& options,
                                               crypto::HashScheme scheme) {
  auto tree = std::unique_ptr<MbTree>(new MbTree(pool, options, scheme));
  SAE_RETURN_NOT_OK(tree->Init());
  return tree;
}

Result<std::optional<MbEntry>> MbTree::PredecessorRec(PageId page,
                                                      size_t depth,
                                                      Key lo) const {
  SAE_ASSIGN_OR_RETURN(NodeView node, ReadNode(page, depth));
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
  SAE_ASSIGN_OR_RETURN(NodeView node, ReadNode(page, depth));
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
  return PredecessorRec(root(), 0, lo);
}

Result<std::optional<MbEntry>> MbTree::Successor(Key hi) const {
  return SuccessorRec(root(), 0, hi);
}

Status MbTree::BuildVoRec(PageId page, size_t depth, Key lo, Key hi,
                          const std::optional<MbEntry>& left_boundary,
                          const std::optional<MbEntry>& right_boundary,
                          const RecordFetcher& fetch, VoNode* out) const {
  SAE_ASSIGN_OR_RETURN(NodeView view, ReadNode(page, depth));
  const Node& node = *view;
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
  SAE_RETURN_NOT_OK(BuildVoRec(root(), 0, lo, hi, left_boundary,
                               right_boundary, fetch, &vo.root));
  return vo;
}

}  // namespace sae::mbtree
