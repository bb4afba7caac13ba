// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The relational table both SPs run (paper §II): a heap file of fixed-size
// records plus one B+-tree on the query attribute. SAE's SP is a
// *conventional* DBMS, so its index is the plain tree; TOM's SP is the same
// DBMS carrying an ADS, so its index is the tree in digest mode (the
// MB-tree), where each posting also carries H(record bytes). The table
// serves both the same way and branches only on its index's mode. Index and
// dataset pages live in *separate* buffer pools so experiments can account
// index node accesses and dataset-page fetches independently (see the
// Fig. 6 cost-accounting note in docs/ARCHITECTURE.md §5.1).

#ifndef SAE_DBMS_TABLE_H_
#define SAE_DBMS_TABLE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "btree/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::dbms {

using storage::BufferPool;
using storage::Key;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;
using storage::Rid;

/// A single-attribute-indexed relational table.
class Table {
 public:
  /// \param index     the empty index, a tree in either mode
  /// \param heap_pool buffer pool for dataset pages (not owned)
  static std::unique_ptr<Table> Create(std::unique_ptr<btree::BPlusTree> index,
                                       BufferPool* heap_pool,
                                       size_t record_size);

  /// Inserts a record; the record id must be unique.
  Status Insert(const Record& record);

  /// Deletes the record with the given id.
  Status Delete(RecordId id);

  /// All records with lo <= key <= hi, in key order. Dataset pages are
  /// fetched once per page run, as a real executor would.
  Status RangeQuery(Key lo, Key hi, std::vector<Record>* out) const;

  /// The index half of RangeQuery: the heap locations of those records, in
  /// the same order. Callers that want the canonical record bytes rather
  /// than decoded Records read them with heap().GetMany.
  Status RangeRids(Key lo, Key hi, std::vector<Rid>* rids) const;

  /// Loads a key-sorted dataset into an empty table (records are placed in
  /// key order, so range results are clustered).
  Status BulkLoad(const std::vector<Record>& sorted_by_key);

  /// Loads `records`, in index order, into an empty table whose index is
  /// laid out as `shape` — the inverse of Dump.
  Status BulkLoad(const std::vector<Record>& records,
                  const btree::TreeShape& shape);

  /// The index's shape and, when `records` is given, every record in index
  /// order, from one walk of the index.
  Status Dump(std::vector<Record>* records, btree::TreeShape* shape) const;

  size_t size() const { return heap_.size(); }
  const btree::BPlusTree& index() const { return *index_; }
  const storage::HeapFile& heap() const { return heap_; }
  const RecordCodec& codec() const { return codec_; }

  size_t IndexSizeBytes() const { return index_->SizeBytes(); }
  size_t HeapSizeBytes() const { return heap_.SizeBytes(); }

 private:
  Table(std::unique_ptr<btree::BPlusTree> index, BufferPool* heap_pool,
        size_t record_size)
      : codec_(record_size),
        heap_(heap_pool, record_size),
        index_(std::move(index)) {}

  RecordCodec codec_;
  storage::HeapFile heap_;
  std::unique_ptr<btree::BPlusTree> index_;
  // DBMS catalog: record id -> physical location. Held in memory, as a
  // system catalog would be.
  std::unordered_map<RecordId, Rid> rid_of_id_;
};

}  // namespace sae::dbms

#endif  // SAE_DBMS_TABLE_H_
