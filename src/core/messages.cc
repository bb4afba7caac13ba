// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the wire formats (core/messages.h) exchanged between the
// entities.

#include "core/messages.h"

#include <cstring>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::core {

namespace {
// 0x02 (the plain range query) and 0x07 (the plain results shipment) are
// retired: QueryRequest and QueryAnswer replaced them. Never reuse them.
constexpr uint8_t kTagRecords = 0x01;
constexpr uint8_t kTagVt = 0x03;
constexpr uint8_t kTagSignature = 0x04;
constexpr uint8_t kTagDelete = 0x05;
constexpr uint8_t kTagEpochNotice = 0x06;
constexpr uint8_t kTagShardEpochs = 0x08;
constexpr uint8_t kTagQueryRequest = 0x09;
constexpr uint8_t kTagQueryAnswer = 0x0A;

// Canonical images of `records`, back to back from `out`.
void SerializeRows(const std::vector<Record>& records,
                   const RecordCodec& codec, uint8_t* out) {
  for (const Record& record : records) {
    codec.Serialize(record, out);
    out += codec.record_size();
  }
}

void PutRecords(ByteWriter* w, const std::vector<Record>& records,
                const RecordCodec& codec) {
  w->PutU64(records.size());
  SerializeRows(records, codec,
                w->Extend(records.size() * codec.record_size()));
}

// Reads `count` fixed-size records; false on truncation. With `images`
// (the shared buffer being read) the payloads view it; otherwise they copy.
bool GetRecords(ByteReader* r, uint64_t count, const RecordCodec& codec,
                std::vector<Record>* out,
                storage::SharedImages* images = nullptr) {
  if (count > r->remaining() / codec.record_size()) return false;
  const uint8_t* data = r->Take(size_t(count) * codec.record_size());
  if (data == nullptr) return false;
  if (images != nullptr) {
    codec.DeserializeMany(images, data, size_t(count), out);
  } else {
    codec.DeserializeMany(data, size_t(count), out);
  }
  return true;
}
}  // namespace

std::vector<uint8_t> SerializeQueryRequest(
    const dbms::QueryRequest& request) {
  ByteWriter w;
  w.PutU8(kTagQueryRequest);
  w.PutU8(uint8_t(request.op));
  w.PutU32(request.lo);
  w.PutU32(request.hi);
  w.PutU32(request.limit);
  return w.Release();
}

Result<dbms::QueryRequest> DeserializeQueryRequest(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.GetU8() != kTagQueryRequest) {
    return Status::Corruption("not a query request message");
  }
  uint8_t op = r.GetU8();
  if (op > uint8_t(dbms::QueryOp::kTopK)) {
    return Status::Corruption("unknown query operator");
  }
  dbms::QueryRequest request;
  request.op = dbms::QueryOp(op);
  request.lo = r.GetU32();
  request.hi = r.GetU32();
  request.limit = r.GetU32();
  if (r.failed() || r.remaining() != 0) {
    return Status::Corruption("query request message truncated");
  }
  return request;
}

QueryAnswerLayout::QueryAnswerLayout(size_t record_size, size_t answer_rows,
                                     size_t witness_rows)
    : record_size_(record_size),
      answer_rows_(answer_rows),
      witness_rows_(witness_rows),
      witness_at_(answer_rows_at() + answer_rows * record_size + 8) {}

void QueryAnswerLayout::WriteHeader(const dbms::QueryAnswer& answer,
                                    uint64_t epoch, uint8_t* out) const {
  out[0] = kTagQueryAnswer;
  out[1] = uint8_t(answer.op);
  EncodeU64(out + kEpochAt, epoch);
  EncodeU64(out + 10, answer.count);
  EncodeU64(out + 18, answer.sum);
  out[26] = answer.has_extrema ? 1 : 0;
  EncodeU32(out + 27, answer.min_key);
  EncodeU32(out + 31, answer.max_key);
  EncodeU32(out + 35, uint32_t(record_size_));
  EncodeU64(out + kHeaderSize, answer_rows_);
  EncodeU64(out + witness_at_ - 8, witness_rows_);
}

std::vector<uint8_t> SerializeQueryAnswer(const dbms::QueryAnswer& answer,
                                          const std::vector<Record>& witness,
                                          uint64_t epoch,
                                          const RecordCodec& codec) {
  // Scan/point answer rows are the witness itself; ship them once. Only
  // top-k carries a distinct (ranked, truncated) row set of its own.
  const bool top_k = answer.op == dbms::QueryOp::kTopK;
  QueryAnswerLayout layout(codec.record_size(),
                           top_k ? answer.records.size() : 0, witness.size());
  std::vector<uint8_t> out(layout.size());
  layout.WriteHeader(answer, epoch, out.data());
  if (top_k) {
    SerializeRows(answer.records, codec, out.data() + layout.answer_rows_at());
  }
  SerializeRows(witness, codec, out.data() + layout.witness_at());
  return out;
}

Result<std::vector<uint8_t>> BuildQueryAnswer(
    const dbms::QueryRequest& request, const std::vector<storage::Rid>& rids,
    const storage::HeapFile& heap, uint64_t epoch) {
  const size_t rs = heap.record_size();
  const QueryAnswerLayout layout(
      rs, dbms::AnswerRowCount(request, rids.size()), rids.size());
  std::vector<uint8_t> bytes(layout.size());
  uint8_t* witness = bytes.data() + layout.witness_at();
  dbms::AnswerAccumulator acc(request);
  SAE_RETURN_NOT_OK(heap.GetMany(rids, [&](size_t i, const uint8_t* slot) {
    std::memcpy(witness + i * rs, slot, rs);
    acc.Add(RecordCodec::KeyOf(slot), RecordCodec::IdOf(slot));
  }));
  uint8_t* row = bytes.data() + layout.answer_rows_at();
  for (size_t pos : acc.RankedRows()) {
    std::memcpy(row, witness + pos * rs, rs);
    row += rs;
  }
  layout.WriteHeader(acc.summary(), epoch, bytes.data());
  return bytes;
}

Result<QueryAnswerMessage> DeserializeQueryAnswer(
    const std::vector<uint8_t>& bytes, const RecordCodec& codec) {
  return DeserializeQueryAnswer(
      std::make_shared<const std::vector<uint8_t>>(bytes), codec);
}

Result<QueryAnswerMessage> DeserializeQueryAnswer(
    std::shared_ptr<const std::vector<uint8_t>> bytes,
    const RecordCodec& codec) {
  ByteReader r(*bytes);
  storage::SharedImages images(std::move(bytes));
  if (r.GetU8() != kTagQueryAnswer) {
    return Status::Corruption("not a query answer message");
  }
  uint8_t op = r.GetU8();
  if (op > uint8_t(dbms::QueryOp::kTopK)) {
    return Status::Corruption("unknown query operator");
  }
  QueryAnswerMessage msg;
  msg.answer.op = dbms::QueryOp(op);
  msg.epoch = r.GetU64();
  msg.answer.count = r.GetU64();
  msg.answer.sum = r.GetU64();
  msg.answer.has_extrema = r.GetU8() != 0;
  msg.answer.min_key = r.GetU32();
  msg.answer.max_key = r.GetU32();
  if (r.failed() || r.GetU32() != codec.record_size()) {
    return Status::Corruption("record size mismatch");
  }
  uint64_t n_answer = r.GetU64();
  if (r.failed() ||
      !GetRecords(&r, n_answer, codec, &msg.answer.records, &images)) {
    return Status::Corruption("query answer rows truncated");
  }
  uint64_t n_witness = r.GetU64();
  // Overflow-safe cardinality check, as in DeserializeRecords: the witness
  // must consume the remainder of the message exactly.
  if (r.failed() || r.remaining() % codec.record_size() != 0 ||
      n_witness != r.remaining() / codec.record_size() ||
      !GetRecords(&r, n_witness, codec, &msg.witness, &images)) {
    return Status::Corruption("query answer witness truncated");
  }
  if (msg.answer.op != dbms::QueryOp::kTopK && n_answer != 0) {
    // Only top-k ships answer rows of its own (the ranked winners);
    // scan/point rows are the witness, held once in `witness`.
    return Status::Corruption("non-top-k answer carries its own rows");
  }
  return msg;
}

bool SameAnswerUpToEpoch(const std::vector<uint8_t>& a,
                         const std::vector<uint8_t>& b) {
  constexpr size_t kEpochEnd = QueryAnswerLayout::kEpochAt + 8;
  if (a.size() != b.size()) return false;
  if (a.size() < kEpochEnd) return a == b;
  return std::memcmp(a.data(), b.data(), QueryAnswerLayout::kEpochAt) == 0 &&
         std::memcmp(a.data() + kEpochEnd, b.data() + kEpochEnd,
                     a.size() - kEpochEnd) == 0;
}

std::vector<uint8_t> SerializeShardEpochs(
    const std::vector<uint64_t>& epochs) {
  ByteWriter w;
  w.PutU8(kTagShardEpochs);
  w.PutU32(uint32_t(epochs.size()));
  for (uint64_t epoch : epochs) w.PutU64(epoch);
  return w.Release();
}

Result<std::vector<uint64_t>> DeserializeShardEpochs(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.GetU8() != kTagShardEpochs) {
    return Status::Corruption("not a shard epoch vector message");
  }
  uint32_t count = r.GetU32();
  if (r.failed() || r.remaining() != size_t(count) * 8) {
    return Status::Corruption("shard epoch vector truncated");
  }
  std::vector<uint64_t> epochs;
  epochs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) epochs.push_back(r.GetU64());
  return epochs;
}

// Records message header: tag, record size, record count.
constexpr size_t kRecordsHeaderSize = 1 + 4 + 8;

size_t RecordsMessageSize(size_t n, const RecordCodec& codec) {
  return kRecordsHeaderSize + n * codec.record_size();
}

std::vector<uint8_t> SerializeRecords(const std::vector<Record>& records,
                                      const RecordCodec& codec) {
  ByteWriter w;
  w.Reserve(RecordsMessageSize(records.size(), codec));
  w.PutU8(kTagRecords);
  w.PutU32(uint32_t(codec.record_size()));
  PutRecords(&w, records, codec);
  return w.Release();
}

Result<std::vector<Record>> DeserializeRecords(
    const std::vector<uint8_t>& bytes, const RecordCodec& codec) {
  ByteReader r(bytes);
  if (r.GetU8() != kTagRecords) {
    return Status::Corruption("not a records message");
  }
  if (r.GetU32() != codec.record_size()) {
    return Status::Corruption("record size mismatch");
  }
  uint64_t count = r.GetU64();
  // Overflow-safe cardinality check: count * record_size could wrap.
  if (r.failed() || r.remaining() % codec.record_size() != 0 ||
      count != r.remaining() / codec.record_size()) {
    return Status::Corruption("records message truncated");
  }
  std::vector<Record> records;
  if (!GetRecords(&r, count, codec, &records)) {
    return Status::Corruption("records message truncated");
  }
  return records;
}

std::vector<uint8_t> SerializeVt(const VerificationToken& vt) {
  ByteWriter w;
  w.PutU8(kTagVt);
  w.PutU64(vt.epoch);
  w.PutBytes(vt.digest.bytes.data(), vt.digest.bytes.size());
  return w.Release();
}

Result<VerificationToken> DeserializeVt(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.GetU8() != kTagVt) {
    return Status::Corruption("not a VT message");
  }
  VerificationToken vt;
  vt.epoch = r.GetU64();
  if (!r.GetBytes(vt.digest.bytes.data(), vt.digest.bytes.size()) ||
      r.failed()) {
    return Status::Corruption("VT message truncated");
  }
  return vt;
}

std::vector<uint8_t> SerializeEpochNotice(uint64_t epoch) {
  ByteWriter w;
  w.PutU8(kTagEpochNotice);
  w.PutU64(epoch);
  return w.Release();
}

Result<uint64_t> DeserializeEpochNotice(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.GetU8() != kTagEpochNotice) {
    return Status::Corruption("not an epoch notice");
  }
  uint64_t epoch = r.GetU64();
  if (r.failed()) return Status::Corruption("epoch notice truncated");
  return epoch;
}

std::vector<uint8_t> SerializeDelete(storage::RecordId id, Key key) {
  ByteWriter w;
  w.PutU8(kTagDelete);
  w.PutU64(id);
  w.PutU32(key);
  return w.Release();
}

Result<std::pair<storage::RecordId, Key>> DeserializeDelete(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.GetU8() != kTagDelete) {
    return Status::Corruption("not a delete message");
  }
  storage::RecordId id = r.GetU64();
  Key key = r.GetU32();
  if (r.failed()) return Status::Corruption("delete message truncated");
  return std::make_pair(id, key);
}

std::vector<uint8_t> SerializeSignature(const crypto::RsaSignature& sig,
                                        uint64_t epoch) {
  ByteWriter w;
  w.PutU8(kTagSignature);
  w.PutU64(epoch);
  w.PutU16(uint16_t(sig.size()));
  w.PutBytes(sig.data(), sig.size());
  return w.Release();
}

Result<std::pair<crypto::RsaSignature, uint64_t>> DeserializeSignature(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.GetU8() != kTagSignature) {
    return Status::Corruption("not a signature message");
  }
  uint64_t epoch = r.GetU64();
  uint16_t len = r.GetU16();
  crypto::RsaSignature sig(len);
  if (!r.GetBytes(sig.data(), len) || r.failed()) {
    return Status::Corruption("signature message truncated");
  }
  return std::make_pair(std::move(sig), epoch);
}

}  // namespace sae::core
