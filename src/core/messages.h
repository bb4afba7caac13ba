// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Wire formats for the messages exchanged between DO, SP, TE and clients.
// The networked parties (src/net) send exactly these bytes; in process, a
// query's served answer, token and VO are these bytes too, and their sizes
// are the traffic the figures report.

#ifndef SAE_CORE_MESSAGES_H_
#define SAE_CORE_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/epoch.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "dbms/query.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::core {

using storage::Key;
using storage::Record;
using storage::RecordCodec;

/// Dataset shipment (DO -> SP, DO -> TE): count + fixed-size record images.
std::vector<uint8_t> SerializeRecords(const std::vector<Record>& records,
                                      const RecordCodec& codec);
/// SerializeRecords(records, codec).size() for `n` records, without
/// building the message.
size_t RecordsMessageSize(size_t n, const RecordCodec& codec);
Result<std::vector<Record>> DeserializeRecords(
    const std::vector<uint8_t>& bytes, const RecordCodec& codec);

/// Verified query plan (client -> SP and client -> TE): operator + range +
/// top-k limit.
/// tag(1) + op(1) + lo(4 LE) + hi(4 LE) + limit(4 LE) = 14 bytes.
std::vector<uint8_t> SerializeQueryRequest(const dbms::QueryRequest& request);
Result<dbms::QueryRequest> DeserializeQueryRequest(
    const std::vector<uint8_t>& bytes);

/// A decoded operator answer shipment (see SerializeQueryAnswer).
struct QueryAnswerMessage {
  dbms::QueryAnswer answer;       ///< the SP's claimed derived answer
  std::vector<Record> witness;    ///< the range record set the proof covers
  uint64_t epoch = 0;             ///< the epoch the SP claims to answer from
};

/// Operator answer shipment (SP -> client): the claimed epoch ("my answer
/// is as of epoch e"), the derived answer fields, the answer rows (top-k
/// only — scan/point rows ARE the witness and ship/live exactly once, as
/// the witness), and the witness records the range proof authenticates. An
/// SP serving from a stale snapshot honestly stamps the snapshot's epoch
/// and is caught by the freshness check; lying about the stamp degrades it
/// to an ordinary soundness failure against the fresh VT/VO.
std::vector<uint8_t> SerializeQueryAnswer(const dbms::QueryAnswer& answer,
                                          const std::vector<Record>& witness,
                                          uint64_t epoch,
                                          const RecordCodec& codec);

/// The byte layout of an answer shipment with `answer_rows` top-k rows and
/// `witness_rows` witness records: header, answer-row count, answer rows,
/// witness count, witness rows. It is the one writer of that layout:
/// SerializeQueryAnswer and the SP's heap-bytes path both allocate size()
/// bytes, call WriteHeader, and put canonical record bytes
/// (RecordCodec::Serialize) into the row slots.
class QueryAnswerLayout {
 public:
  QueryAnswerLayout(size_t record_size, size_t answer_rows,
                    size_t witness_rows);

  size_t size() const { return witness_at_ + witness_rows_ * record_size_; }
  /// Offset of answer row 0; row i is record_size bytes further per i.
  size_t answer_rows_at() const { return kHeaderSize + 8; }
  /// Offset of witness row 0.
  size_t witness_at() const { return witness_at_; }

  /// Writes the tag, operator, epoch, derived fields of `answer` (its
  /// `records` are not read), record size and both row counts into `out`
  /// (size() bytes); the row slots are left as they are.
  void WriteHeader(const dbms::QueryAnswer& answer, uint64_t epoch,
                   uint8_t* out) const;

 private:
  friend bool SameAnswerUpToEpoch(const std::vector<uint8_t>& a,
                                  const std::vector<uint8_t>& b);

  // tag(1) op(1) epoch(8) count(8) sum(8) has_extrema(1) min(4) max(4)
  // record_size(4)
  static constexpr size_t kEpochAt = 2;
  static constexpr size_t kHeaderSize = 39;

  size_t record_size_;
  size_t answer_rows_;
  size_t witness_rows_;
  size_t witness_at_;
};

/// The SP's miss path for both models: the answer shipment for `request`
/// over the range records at `rids` (key order), stamped with `epoch`. It
/// sizes one buffer from the rids, copies each heap slot's canonical bytes
/// into its witness slot as they are, and folds the answer with
/// dbms::AnswerAccumulator from the keys and ids read in place: no Record
/// is decoded or re-encoded. The bytes equal SerializeQueryAnswer(
/// EvaluateAnswer(request, witness), witness, epoch) over the same records.
Result<std::vector<uint8_t>> BuildQueryAnswer(
    const dbms::QueryRequest& request, const std::vector<storage::Rid>& rids,
    const storage::HeapFile& heap, uint64_t epoch);

/// Decodes an answer shipment into a private copy of its bytes.
Result<QueryAnswerMessage> DeserializeQueryAnswer(
    const std::vector<uint8_t>& bytes, const RecordCodec& codec);

/// Decodes a shared answer shipment in place: the records' payloads view
/// `*bytes` (storage::SharedImages), and all of them together keep one
/// reference to it. Clients decode the SP's served buffer (an answer-cache
/// entry, aliased from its CachedAnswer) or a received frame this way.
Result<QueryAnswerMessage> DeserializeQueryAnswer(
    std::shared_ptr<const std::vector<uint8_t>> bytes,
    const RecordCodec& codec);

/// True when two answer shipments are byte-equal outside their epoch
/// stamps: the same answer and witness, whatever epoch each claims.
bool SameAnswerUpToEpoch(const std::vector<uint8_t>& a,
                         const std::vector<uint8_t>& b);

/// Verification token (TE -> client): epoch stamp + one digest —
/// tag(1) + epoch(8 LE) + digest(20) = 29 bytes, still constant size.
std::vector<uint8_t> SerializeVt(const VerificationToken& vt);
Result<VerificationToken> DeserializeVt(const std::vector<uint8_t>& bytes);

/// Epoch publication (DO -> SP, DO -> TE in SAE): announces that the update
/// just shipped advances the database to `epoch`.
std::vector<uint8_t> SerializeEpochNotice(uint64_t epoch);
Result<uint64_t> DeserializeEpochNotice(const std::vector<uint8_t>& bytes);

/// Deletion notice (DO -> SP, DO -> TE): which record disappears and under
/// which key it was indexed.
std::vector<uint8_t> SerializeDelete(storage::RecordId id, Key key);
Result<std::pair<storage::RecordId, Key>> DeserializeDelete(
    const std::vector<uint8_t>& bytes);

/// Shard epoch vector (DO -> client in a sharded deployment): the latest
/// published epoch of every shard, indexed by shard id — the client's
/// freshness reference for composite verification. A fresh answer matches
/// this vector shard-for-shard; a slice lagging its entry is stale, and a
/// mix of fresh and lagging slices in one answer is shard epoch skew.
std::vector<uint8_t> SerializeShardEpochs(const std::vector<uint64_t>& epochs);
Result<std::vector<uint64_t>> DeserializeShardEpochs(
    const std::vector<uint8_t>& bytes);

/// Root signature shipment (DO -> SP in TOM): the signature over the
/// epoch-stamped root commitment plus the epoch it speaks for.
std::vector<uint8_t> SerializeSignature(const crypto::RsaSignature& sig,
                                        uint64_t epoch);
Result<std::pair<crypto::RsaSignature, uint64_t>> DeserializeSignature(
    const std::vector<uint8_t>& bytes);

}  // namespace sae::core

#endif  // SAE_CORE_MESSAGES_H_
