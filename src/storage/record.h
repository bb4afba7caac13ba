// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The outsourced record and its canonical binary representation.
//
// Paper §IV: each record has a 4-byte integer search key in [0, 10^7] plus
// additional attributes, 500 bytes in total. Digests (SAE's t.h, the
// MB-tree's leaf digests) are computed "on the binary representation of the
// record", so serialization must be canonical: id (8B LE) || key (4B LE) ||
// payload (record_size - 12 bytes).

#ifndef SAE_STORAGE_RECORD_H_
#define SAE_STORAGE_RECORD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "crypto/digest.h"
#include "util/codec.h"
#include "util/status.h"

namespace sae::storage {

using RecordId = uint64_t;  // application-level unique id (DO-assigned)
using Key = uint32_t;       // query-attribute value

/// The paper's experimental record size.
inline constexpr size_t kDefaultRecordSize = 500;

/// Minimum serialized size (id + key, no payload).
inline constexpr size_t kRecordHeaderSize = 12;

/// A record's payload bytes: immutable and reference-counted, so copying a
/// Record shares its bytes instead of duplicating them, and the records of
/// one decoded message all slice a single block
/// (RecordCodec::DeserializeMany). A writer calls MutableData(), which
/// copies the bytes first when anyone else holds them. There is no
/// non-const operator[] on purpose: with implicit copy-on-write, a
/// reference taken before a copy would write into both copies.
class Payload {
 public:
  Payload() = default;
  /// `size` zero bytes.
  explicit Payload(size_t size);
  Payload(const uint8_t* data, size_t size);
  Payload(std::initializer_list<uint8_t> bytes)
      : Payload(bytes.begin(), bytes.size()) {}
  Payload(const std::vector<uint8_t>& bytes)  // NOLINT: implicit
      : Payload(bytes.data(), bytes.size()) {}

  Payload(const Payload& other) noexcept;
  Payload(Payload&& other) noexcept;
  Payload& operator=(const Payload& other) noexcept;
  Payload& operator=(Payload&& other) noexcept;
  ~Payload() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// nullptr when empty.
  const uint8_t* data() const { return data_; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Writable bytes, private to this payload: shared bytes are copied
  /// first, so no other holder sees the write. nullptr when empty.
  uint8_t* MutableData();

  friend bool operator==(const Payload& a, const Payload& b);
  friend bool operator!=(const Payload& a, const Payload& b) {
    return !(a == b);
  }

 private:
  friend class RecordCodec;

  /// A heap block: its reference count, then the bytes.
  struct Block {
    explicit Block(size_t n) : refs(n) {}
    std::atomic<size_t> refs;
    uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }
  };
  static Block* NewBlock(size_t size, size_t refs);

  /// Takes over one of `block`'s references and views `size` bytes at
  /// `data` inside it.
  Payload(Block* block, const uint8_t* data, size_t size)
      : block_(block), data_(data), size_(size) {}

  void Release();

  Block* block_ = nullptr;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// A relational record: unique id, query-attribute key and opaque payload
/// standing in for the remaining attributes.
struct Record {
  RecordId id = 0;
  Key key = 0;
  Payload payload;

  friend bool operator==(const Record& a, const Record& b) {
    return a.id == b.id && a.key == b.key && a.payload == b.payload;
  }
};

/// Serializes/deserializes records at a fixed total size.
class RecordCodec {
 public:
  explicit RecordCodec(size_t record_size = kDefaultRecordSize);

  size_t record_size() const { return record_size_; }
  size_t payload_size() const { return record_size_ - kRecordHeaderSize; }

  /// Writes exactly record_size() bytes. Payload shorter than payload_size()
  /// is zero-padded; longer payloads are a programming error.
  void Serialize(const Record& record, uint8_t* out) const;

  std::vector<uint8_t> Serialize(const Record& record) const;

  /// Parses record_size() bytes.
  Record Deserialize(const uint8_t* data) const;

  /// Appends the `n` records whose canonical images lie back to back at
  /// `data` (n * record_size() bytes). The images are copied into one
  /// block that every decoded payload slices: one allocation for all `n`.
  void DeserializeMany(const uint8_t* data, size_t n,
                       std::vector<Record>* out) const;

  /// The id and key of a canonical record image, read in place.
  static RecordId IdOf(const uint8_t* data) { return DecodeU64(data); }
  static Key KeyOf(const uint8_t* data) { return DecodeU32(data + 8); }

  /// Deterministic payload derived from the record id, so that the DO, SP,
  /// TE and tests all reconstruct identical record bytes without shipping
  /// payloads around.
  Record MakeRecord(RecordId id, Key key) const;

 private:
  size_t record_size_;
};

/// out[i] = H(serialize(records[i])) for every record, digested in batches
/// through crypto::ComputeDigests so the multi-buffer hash kernels see up to
/// 16 records per pass. Serialization happens into a chunk-sized contiguous
/// scratch buffer (cache-resident), not one allocation per record. This is
/// the shared hot loop of TE/DO dataset loads and client witness re-hashing.
std::vector<crypto::Digest> DigestRecords(const std::vector<Record>& records,
                                          const RecordCodec& codec,
                                          crypto::HashScheme scheme);

}  // namespace sae::storage

#endif  // SAE_STORAGE_RECORD_H_
