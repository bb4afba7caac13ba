// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements Record serialization (storage/record.h): the canonical binary
// layout that record digests are computed over.

#include "storage/record.h"

#include <algorithm>
#include <cstring>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::storage {

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
  r.payload.assign(data + kRecordHeaderSize, data + record_size_);
  return r;
}

Record RecordCodec::MakeRecord(RecordId id, Key key) const {
  Record r;
  r.id = id;
  r.key = key;
  r.payload.resize(payload_size());
  // Cheap deterministic byte pattern (splitmix-style) keyed by the record id.
  uint64_t x = id * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL;
  for (size_t i = 0; i < r.payload.size(); ++i) {
    x ^= x >> 27;
    x *= 0x3c79ac492ba7b653ULL;
    r.payload[i] = static_cast<uint8_t>(x >> 56);
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
