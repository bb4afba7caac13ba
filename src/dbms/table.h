// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The "conventional DBMS" the SP runs under SAE (paper §II): a heap file of
// fixed-size records plus a plain B+-tree on the query attribute. Index and
// dataset pages live in *separate* buffer pools so experiments can account
// index node accesses and dataset-page fetches independently (see the Fig. 6
// cost-accounting note in docs/ARCHITECTURE.md §5.1).

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
  /// \param index_pool buffer pool for B+-tree pages (not owned)
  /// \param heap_pool  buffer pool for dataset pages (not owned)
  static Result<std::unique_ptr<Table>> Create(BufferPool* index_pool,
                                               BufferPool* heap_pool,
                                               size_t record_size);

  /// Inserts a record; the record id must be unique.
  Status Insert(const Record& record);

  /// Deletes the record with the given id.
  Status Delete(RecordId id);

  /// Replaces the record with `record.id` (key changes are handled).
  Status Update(const Record& record);

  Result<Record> Get(RecordId id) const;

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

  size_t size() const { return heap_.size(); }
  const btree::BPlusTree& index() const { return *index_; }
  const storage::HeapFile& heap() const { return heap_; }
  const RecordCodec& codec() const { return codec_; }

  size_t IndexSizeBytes() const { return index_->SizeBytes(); }
  size_t HeapSizeBytes() const { return heap_.SizeBytes(); }

  /// Serializes the table's volatile metadata (heap directory, index meta,
  /// id catalog) so the table can reopen against the same page stores —
  /// e.g. after an SP restart, without the DO re-shipping the dataset.
  void WriteSnapshot(ByteWriter* out) const;

  /// Re-attaches a table persisted with WriteSnapshot.
  static Result<std::unique_ptr<Table>> OpenSnapshot(BufferPool* index_pool,
                                                     BufferPool* heap_pool,
                                                     ByteReader* in);

 private:
  Table(BufferPool* heap_pool, size_t record_size)
      : codec_(record_size), heap_(heap_pool, record_size) {}

  RecordCodec codec_;
  storage::HeapFile heap_;
  std::unique_ptr<btree::BPlusTree> index_;
  // DBMS catalog: record id -> physical location. Held in memory, as a
  // system catalog would be.
  std::unordered_map<RecordId, Rid> rid_of_id_;
};

}  // namespace sae::dbms

#endif  // SAE_DBMS_TABLE_H_
