// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The verified query-plan abstraction: a QueryRequest names a key range
// plus an operator (scan, point, COUNT, SUM, MIN, MAX, top-k) and a typed
// QueryAnswer carries the derived result. The authentication protocols stay
// range-shaped underneath — every operator executes as a range scan whose
// record set (the *witness*) is what the VT / VO authenticates — and the
// derived answer is verified *from the proof*: the client recomputes the
// aggregate from the authenticated, boundary-complete witness and compares
// it with the SP's claim (CheckAnswer). An SP that returns a wrong
// COUNT/SUM/MIN/MAX or a truncated top-k therefore fails verification even
// though every witness byte it shipped is genuine. Sharded deployments fold per-shard partial
// answers with MergeAnswers and verify each slice the same way.

#ifndef SAE_DBMS_QUERY_H_
#define SAE_DBMS_QUERY_H_

#include <cstdint>
#include <vector>

#include "storage/record.h"
#include "util/status.h"

namespace sae::dbms {

using storage::Key;
using storage::Record;

/// The query operators of the verified plan layer. Values are the wire
/// encoding (core::SerializeQueryRequest) — append only, never renumber.
enum class QueryOp : uint8_t {
  kScan = 0,   ///< all records with key in [lo, hi], key-ascending
  kPoint = 1,  ///< all records with key == lo (hi == lo by construction)
  kCount = 2,  ///< |RS| for the range
  kSum = 3,    ///< sum of the result keys (mod 2^64)
  kMin = 4,    ///< smallest key in the range (absent when RS is empty)
  kMax = 5,    ///< largest key in the range (absent when RS is empty)
  kTopK = 6,   ///< the `limit` records with the largest keys, descending
};

/// Stable lower-case name for logs, bench tables and test output.
const char* QueryOpName(QueryOp op);

/// One verified query: a key range plus the operator applied to it.
struct QueryRequest {
  QueryOp op = QueryOp::kScan;
  Key lo = 0;
  Key hi = 0;
  uint32_t limit = 0;  ///< kTopK result cardinality cap; unused otherwise

  static QueryRequest Scan(Key lo, Key hi) {
    return QueryRequest{QueryOp::kScan, lo, hi, 0};
  }
  static QueryRequest Point(Key key) {
    return QueryRequest{QueryOp::kPoint, key, key, 0};
  }
  static QueryRequest Count(Key lo, Key hi) {
    return QueryRequest{QueryOp::kCount, lo, hi, 0};
  }
  static QueryRequest Sum(Key lo, Key hi) {
    return QueryRequest{QueryOp::kSum, lo, hi, 0};
  }
  static QueryRequest Min(Key lo, Key hi) {
    return QueryRequest{QueryOp::kMin, lo, hi, 0};
  }
  static QueryRequest Max(Key lo, Key hi) {
    return QueryRequest{QueryOp::kMax, lo, hi, 0};
  }
  static QueryRequest TopK(Key lo, Key hi, uint32_t limit) {
    return QueryRequest{QueryOp::kTopK, lo, hi, limit};
  }

  friend bool operator==(const QueryRequest& a, const QueryRequest& b) {
    return a.op == b.op && a.lo == b.lo && a.hi == b.hi && a.limit == b.limit;
  }
  friend bool operator!=(const QueryRequest& a, const QueryRequest& b) {
    return !(a == b);
  }
};

/// The typed answer to a QueryRequest. EvaluateAnswer always fills every
/// derived field — count, sum and the extrema summarize the full range
/// regardless of the operator — so CheckAnswer can compare answers
/// field-for-field and any tampered dimension is caught for any operator.
/// `records` carries rows only for top-k (the winners, descending);
/// scan/point rows are exactly the witness record set and live once, in
/// the query outcome's `results`, not here.
struct QueryAnswer {
  QueryOp op = QueryOp::kScan;
  uint64_t count = 0;  ///< |RS| of the underlying range
  uint64_t sum = 0;    ///< sum of the range keys (mod 2^64)
  bool has_extrema = false;  ///< false iff the range is empty
  Key min_key = 0;
  Key max_key = 0;
  std::vector<Record> records;

  friend bool operator==(const QueryAnswer& a, const QueryAnswer& b) {
    return a.op == b.op && a.count == b.count && a.sum == b.sum &&
           a.has_extrema == b.has_extrema && a.min_key == b.min_key &&
           a.max_key == b.max_key && a.records == b.records;
  }
  friend bool operator!=(const QueryAnswer& a, const QueryAnswer& b) {
    return !(a == b);
  }
};

/// How many answer rows `request` yields over a range of `range_size`
/// records: min(limit, range_size) for top-k, 0 for every other operator
/// (scan/point rows are the witness itself).
size_t AnswerRowCount(const QueryRequest& request, size_t range_size);

/// The single derivation rule, as a fold over the range's records in key
/// order. It needs only each record's key and id, so EvaluateAnswer feeds
/// it decoded Records and the SP feeds it keys and ids read in place from
/// heap slots; both therefore derive the same answer.
class AnswerAccumulator {
 public:
  explicit AnswerAccumulator(const QueryRequest& request);

  /// Folds in the next range record.
  void Add(Key key, storage::RecordId id);

  /// Every derived field; `records` is left empty (see RankedRows).
  const QueryAnswer& summary() const { return summary_; }

  /// Positions (0-based, in Add order) of the answer rows, best first:
  /// the AnswerRowCount top-k winners, ranked by descending key with
  /// descending id as the tie-break (then ascending position), so the
  /// winner set is deterministic even under duplicate keys. Empty for
  /// every operator but top-k.
  std::vector<size_t> RankedRows() const;

 private:
  struct Candidate {
    Key key;
    storage::RecordId id;
    size_t pos;
  };

  QueryRequest request_;
  QueryAnswer summary_;
  std::vector<Candidate> candidates_;  // top-k only
};

/// Derives the answer from the range's record set through
/// AnswerAccumulator: the honest SP produces answers by the same rule and
/// the client re-runs it over the *authenticated* witness to verify them.
QueryAnswer EvaluateAnswer(const QueryRequest& request,
                           const std::vector<Record>& range_records);

/// The client-side aggregate check: recomputes the answer from the verified
/// witness and compares field-for-field with the SP's claim. Returns
/// kVerificationFailure naming the first mismatching dimension. Only sound
/// when `verified_witness` has already passed the range proof (VT / VO) —
/// this check adds derived-answer integrity on top, it does not replace
/// the proof.
Status CheckAnswer(const QueryRequest& request,
                   const std::vector<Record>& verified_witness,
                   const QueryAnswer& claimed);

/// Folds per-shard partial answers (ascending shard = ascending key order)
/// into the composite answer for the whole range: counts and sums add,
/// extrema fold, scan/point rows concatenate, and top-k re-ranks the
/// per-shard winners and cuts back to the limit. The fold is exactly what
/// a sharded deployment's router tier computes, and the composite verifier
/// re-runs it over the per-slice answers it has individually verified.
QueryAnswer MergeAnswers(const QueryRequest& request,
                         const std::vector<QueryAnswer>& parts);

}  // namespace sae::dbms

#endif  // SAE_DBMS_QUERY_H_
