// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the shared record payload and Record serialization
// (storage/record.h): the canonical binary layout that record digests are
// computed over.

#include "storage/record.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::storage {

// --- Payload -----------------------------------------------------------------

Payload::Block* Payload::NewBlock(size_t size, size_t refs) {
  // One allocation: the count, then the bytes.
  return new (::operator new(sizeof(Block) + size)) Block(refs);
}

void Payload::Release() {
  if (block_ != nullptr &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block_->~Block();
    ::operator delete(block_);
  }
  block_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

Payload::Payload(size_t size) {
  if (size == 0) return;
  block_ = NewBlock(size, 1);
  std::memset(block_->bytes(), 0, size);
  data_ = block_->bytes();
  size_ = size;
}

Payload::Payload(const uint8_t* data, size_t size) {
  if (size == 0) return;
  block_ = NewBlock(size, 1);
  std::memcpy(block_->bytes(), data, size);
  data_ = block_->bytes();
  size_ = size;
}

Payload::Payload(const Payload& other) noexcept
    : block_(other.block_), data_(other.data_), size_(other.size_) {
  if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
}

Payload::Payload(Payload&& other) noexcept
    : block_(std::exchange(other.block_, nullptr)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Payload& Payload::operator=(const Payload& other) noexcept {
  if (this != &other) {
    if (other.block_ != nullptr) {
      other.block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Release();
    block_ = other.block_;
    data_ = other.data_;
    size_ = other.size_;
  }
  return *this;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this != &other) {
    Release();
    block_ = std::exchange(other.block_, nullptr);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

uint8_t* Payload::MutableData() {
  if (block_ == nullptr) return nullptr;
  // Sole holder of the block: nobody else can observe an in-place write.
  // Otherwise detach onto a private copy of just this payload's bytes.
  if (block_->refs.load(std::memory_order_acquire) != 1) {
    *this = Payload(data_, size_);
  }
  return const_cast<uint8_t*>(data_);
}

bool operator==(const Payload& a, const Payload& b) {
  return a.size_ == b.size_ &&
         (a.data_ == b.data_ || std::memcmp(a.data_, b.data_, a.size_) == 0);
}

// --- RecordCodec -------------------------------------------------------------

RecordCodec::RecordCodec(size_t record_size) : record_size_(record_size) {
  SAE_CHECK(record_size >= kRecordHeaderSize);
}

void RecordCodec::Serialize(const Record& record, uint8_t* out) const {
  SAE_CHECK(record.payload.size() <= payload_size());
  EncodeU64(out, record.id);
  EncodeU32(out + 8, record.key);
  const size_t n = record.payload.size();
  if (n != 0) std::memcpy(out + kRecordHeaderSize, record.payload.data(), n);
  std::memset(out + kRecordHeaderSize + n, 0, payload_size() - n);
}

std::vector<uint8_t> RecordCodec::Serialize(const Record& record) const {
  std::vector<uint8_t> out(record_size_);
  Serialize(record, out.data());
  return out;
}

Record RecordCodec::Deserialize(const uint8_t* data) const {
  Record r;
  r.id = IdOf(data);
  r.key = KeyOf(data);
  r.payload = Payload(data + kRecordHeaderSize, payload_size());
  return r;
}

void RecordCodec::DeserializeMany(const uint8_t* data, size_t n,
                                  std::vector<Record>* out) const {
  out->reserve(out->size() + n);
  if (n == 0) return;
  const size_t ps = payload_size();
  // One block holds all n images (one memcpy); each payload adopts one of
  // its n references and views its own slot past the 12-byte header.
  Payload::Block* block =
      ps == 0 ? nullptr : Payload::NewBlock(n * record_size_, n);
  const uint8_t* images = data;
  if (block != nullptr) {
    std::memcpy(block->bytes(), data, n * record_size_);
    images = block->bytes();
  }
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* image = images + i * record_size_;
    Record r;
    r.id = IdOf(image);
    r.key = KeyOf(image);
    if (block != nullptr) {
      r.payload = Payload(block, image + kRecordHeaderSize, ps);
    }
    out->push_back(std::move(r));
  }
}

Record RecordCodec::MakeRecord(RecordId id, Key key) const {
  Record r;
  r.id = id;
  r.key = key;
  r.payload = Payload(payload_size());
  uint8_t* out = r.payload.MutableData();
  // Cheap deterministic byte pattern (splitmix-style) keyed by the record id.
  uint64_t x = id * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL;
  for (size_t i = 0; i < r.payload.size(); ++i) {
    x ^= x >> 27;
    x *= 0x3c79ac492ba7b653ULL;
    out[i] = static_cast<uint8_t>(x >> 56);
  }
  return r;
}

std::vector<crypto::Digest> DigestRecords(const std::vector<Record>& records,
                                          const RecordCodec& codec,
                                          crypto::HashScheme scheme) {
  std::vector<crypto::Digest> out(records.size());
  if (records.empty()) return out;
  const size_t rs = codec.record_size();
  // Chunked so the serialize buffer stays L2-resident on big loads while
  // still giving the multi-buffer hash kernels full batches.
  constexpr size_t kChunk = 1024;
  const size_t chunk = std::min(records.size(), kChunk);
  std::vector<uint8_t> buf(chunk * rs);
  std::vector<crypto::ByteSpan> spans(chunk);
  for (size_t base = 0; base < records.size(); base += kChunk) {
    const size_t n = std::min(kChunk, records.size() - base);
    for (size_t i = 0; i < n; ++i) {
      codec.Serialize(records[base + i], buf.data() + i * rs);
      spans[i] = crypto::ByteSpan{buf.data() + i * rs, rs};
    }
    crypto::ComputeDigests(spans.data(), n, out.data() + base, scheme);
  }
  return out;
}

}  // namespace sae::storage
