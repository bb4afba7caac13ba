// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements HeapFile (storage/heap_file.h): fixed-size record slots on
// 4096-byte pages with free-slot reuse.

#include "storage/heap_file.h"

#include <cstring>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::storage {

HeapFile::HeapFile(BufferPool* pool, size_t record_size)
    : pool_(pool), record_size_(record_size) {
  SAE_CHECK(record_size_ >= 22 && record_size_ <= kPageSize - kHeaderSize);
  slots_per_page_ = (kPageSize - kHeaderSize) / record_size_;
  if (slots_per_page_ > kBitmapBytes * 8) slots_per_page_ = kBitmapBytes * 8;
  SAE_CHECK(slots_per_page_ >= 1);
}

HeapFile::~HeapFile() = default;

Result<Rid> HeapFile::Insert(const uint8_t* data) {
  Rid out = kInvalidRid;
  SAE_RETURN_NOT_OK(InsertMany(1, [&](size_t, Rid rid, uint8_t* slot) {
    std::memcpy(slot, data, record_size_);
    out = rid;
  }));
  return out;
}

Status HeapFile::InsertMany(size_t count, const SlotWriter& write) {
  size_t i = 0;
  while (i < count) {
    // The page an Insert would pick: the newest page with room, else a
    // fresh one.
    BufferPool::PageRef ref;
    if (!pages_with_room_.empty()) {
      SAE_ASSIGN_OR_RETURN(ref, pool_->Fetch(pages_with_room_.back()));
    } else {
      SAE_ASSIGN_OR_RETURN(ref, pool_->New());
      Page& page = ref.Mutable();
      EncodeU32(page.bytes(), kMagic);
      EncodeU16(page.bytes() + 4, uint16_t(slots_per_page_));
      EncodeU16(page.bytes() + 6, 0);
      pages_.push_back(ref.id());
      pages_with_room_.push_back(ref.id());
    }
    const PageId page_id = ref.id();
    Page& page = ref.Mutable();
    uint8_t* bitmap = page.bytes() + kBitmapOffset;
    size_t used = DecodeU16(page.bytes() + 6);
    SAE_CHECK(used < slots_per_page_);
    // Free slots in ascending order: the first free slot each Insert
    // would take in turn.
    for (uint32_t slot = 0; slot < slots_per_page_ && i < count; ++slot) {
      if (TestBit(bitmap, slot)) continue;
      SetBit(bitmap, slot);
      ++used;
      ++record_count_;
      write(i++, MakeRid(page_id, slot),
            page.bytes() + kHeaderSize + slot * record_size_);
    }
    EncodeU16(page.bytes() + 6, uint16_t(used));
    if (used == slots_per_page_) {
      // Page is now full; drop it from the free stack (it is on top).
      pages_with_room_.pop_back();
    }
  }
  return Status::OK();
}

Status HeapFile::Get(Rid rid, uint8_t* out) const {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(RidPage(rid)));
  const Page& page = ref.Get();
  uint32_t slot = RidSlot(rid);
  if (DecodeU32(page.bytes()) != kMagic || slot >= slots_per_page_ ||
      !TestBit(page.bytes() + kBitmapOffset, slot)) {
    return Status::NotFound("no record at rid");
  }
  std::memcpy(out, page.bytes() + kHeaderSize + slot * record_size_,
              record_size_);
  return Status::OK();
}

Status HeapFile::GetMany(
    const std::vector<Rid>& rids,
    const std::function<void(size_t, const uint8_t*)>& callback) const {
  BufferPool::PageRef ref;
  PageId current = kInvalidPageId;
  for (size_t i = 0; i < rids.size(); ++i) {
    PageId page_id = RidPage(rids[i]);
    if (page_id != current) {
      SAE_ASSIGN_OR_RETURN(ref, pool_->Fetch(page_id));
      current = page_id;
    }
    const Page& page = ref.Get();
    uint32_t slot = RidSlot(rids[i]);
    if (DecodeU32(page.bytes()) != kMagic || slot >= slots_per_page_ ||
        !TestBit(page.bytes() + kBitmapOffset, slot)) {
      return Status::NotFound("no record at rid");
    }
    callback(i, page.bytes() + kHeaderSize + slot * record_size_);
  }
  return Status::OK();
}

Status HeapFile::Delete(Rid rid) {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(RidPage(rid)));
  Page& page = ref.Mutable();
  uint32_t slot = RidSlot(rid);
  uint8_t* bitmap = page.bytes() + kBitmapOffset;
  if (DecodeU32(page.bytes()) != kMagic || slot >= slots_per_page_ ||
      !TestBit(bitmap, slot)) {
    return Status::NotFound("no record at rid");
  }
  uint16_t used = DecodeU16(page.bytes() + 6);
  ClearBit(bitmap, slot);
  EncodeU16(page.bytes() + 6, uint16_t(used - 1));
  if (used == slots_per_page_) {
    // Page was full and now has room again.
    pages_with_room_.push_back(RidPage(rid));
  }
  --record_count_;
  return Status::OK();
}

}  // namespace sae::storage
