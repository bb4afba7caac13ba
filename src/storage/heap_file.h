// Copyright (c) saedb authors. Licensed under the MIT license.
//
// HeapFile: the "dataset file" of the paper — fixed-size record slots on
// 4096-byte pages. The SP retrieves query results from here after the index
// identifies qualifying rids (the paper's "scan ... in the dataset file for
// retrieving the results").
//
// Page layout: [magic u32][num_slots u16][used u16][bitmap 24B][slots...]
// Slot region starts at byte 32; slots_per_page = (4096 - 32) / record_size.

#ifndef SAE_STORAGE_HEAP_FILE_H_
#define SAE_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace sae::storage {

/// Location of a record inside a heap file: (page id, slot).
using Rid = uint64_t;

inline constexpr Rid kInvalidRid = ~0ULL;

inline Rid MakeRid(PageId page, uint32_t slot) {
  return (uint64_t(page) << 32) | slot;
}
inline PageId RidPage(Rid rid) { return PageId(rid >> 32); }
inline uint32_t RidSlot(Rid rid) { return uint32_t(rid & 0xffffffffu); }

/// Fixed-size-record heap file over a buffer pool. File metadata (owned
/// pages, free-slot list) is kept in memory; page contents are the source of
/// truth and fully self-describing.
class HeapFile {
 public:
  /// \param pool         buffer pool (not owned)
  /// \param record_size  bytes per record; >= 22 so the slot bitmap fits
  HeapFile(BufferPool* pool, size_t record_size);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;
  ~HeapFile();

  size_t record_size() const { return record_size_; }
  size_t slots_per_page() const { return slots_per_page_; }
  size_t size() const { return record_count_; }
  size_t PageCount() const { return pages_.size(); }
  size_t SizeBytes() const { return PageCount() * kPageSize; }

  /// Inserts `record_size` bytes; returns the new record's location.
  Result<Rid> Insert(const uint8_t* data);

  /// Writes record `i`'s `record_size` bytes into `slot`, the place
  /// InsertMany chose for it at `rid`.
  using SlotWriter =
      std::function<void(size_t i, Rid rid, uint8_t* slot)>;

  /// Inserts `count` records exactly as `count` Insert calls in a row
  /// would — the same rids, page ids and page bytes, and the same pool
  /// frames and LRU order — but pins each page once for all the records
  /// it takes, not once per record. Insert is InsertMany of one record.
  Status InsertMany(size_t count, const SlotWriter& write);

  /// Copies the record at `rid` into `out` (record_size bytes).
  Status Get(Rid rid, uint8_t* out) const;

  /// Visits records for all `rids` in order, fetching each page once per
  /// contiguous run — what a real executor does for a clustered result.
  /// The callback receives the rid's index in `rids` and the record bytes
  /// (valid only during the call).
  Status GetMany(
      const std::vector<Rid>& rids,
      const std::function<void(size_t, const uint8_t*)>& callback) const;

  /// Removes the record at `rid`, making the slot reusable.
  Status Delete(Rid rid);

 private:
  static constexpr size_t kHeaderSize = 32;
  static constexpr size_t kBitmapOffset = 8;
  static constexpr size_t kBitmapBytes = 24;
  static constexpr uint32_t kMagic = 0x48454150;  // "HEAP"

  static bool TestBit(const uint8_t* bitmap, uint32_t i) {
    return (bitmap[i / 8] >> (i % 8)) & 1;
  }
  static void SetBit(uint8_t* bitmap, uint32_t i) {
    bitmap[i / 8] |= uint8_t(1) << (i % 8);
  }
  static void ClearBit(uint8_t* bitmap, uint32_t i) {
    bitmap[i / 8] &= ~(uint8_t(1) << (i % 8));
  }

  BufferPool* pool_;
  size_t record_size_;
  size_t slots_per_page_;
  std::vector<PageId> pages_;           // insertion order
  std::vector<PageId> pages_with_room_; // stack of pages with free slots
  size_t record_count_ = 0;
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_HEAP_FILE_H_
