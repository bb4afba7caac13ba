// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the verified query-plan layer (dbms/query.h): the shared
// derivation rule EvaluateAnswer, the client-side recomputation check
// CheckAnswer, and the cross-shard partial-answer fold MergeAnswers.

#include "dbms/query.h"

#include <algorithm>
#include <string>

namespace sae::dbms {

const char* QueryOpName(QueryOp op) {
  switch (op) {
    case QueryOp::kScan:
      return "scan";
    case QueryOp::kPoint:
      return "point";
    case QueryOp::kCount:
      return "count";
    case QueryOp::kSum:
      return "sum";
    case QueryOp::kMin:
      return "min";
    case QueryOp::kMax:
      return "max";
    case QueryOp::kTopK:
      return "topk";
  }
  return "unknown";
}

size_t AnswerRowCount(const QueryRequest& request, size_t range_size) {
  return request.op == QueryOp::kTopK
             ? std::min<size_t>(request.limit, range_size)
             : 0;
}

AnswerAccumulator::AnswerAccumulator(const QueryRequest& request)
    : request_(request) {
  summary_.op = request.op;
}

void AnswerAccumulator::Add(Key key, storage::RecordId id) {
  if (summary_.op == QueryOp::kTopK) {
    candidates_.push_back(Candidate{key, id, size_t(summary_.count)});
  }
  ++summary_.count;
  summary_.sum += key;
  if (!summary_.has_extrema) {
    summary_.has_extrema = true;
    summary_.min_key = summary_.max_key = key;
  } else {
    summary_.min_key = std::min(summary_.min_key, key);
    summary_.max_key = std::max(summary_.max_key, key);
  }
}

std::vector<size_t> AnswerAccumulator::RankedRows() const {
  // The rows are the witness itself for scan/point — shipped and held
  // once by the protocol layer, never duplicated into the answer.
  if (summary_.op != QueryOp::kTopK) return {};
  std::vector<Candidate> ranked = candidates_;
  const size_t rows = AnswerRowCount(request_, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + rows, ranked.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.key != b.key) return a.key > b.key;
                      if (a.id != b.id) return a.id > b.id;
                      return a.pos < b.pos;
                    });
  std::vector<size_t> out(rows);
  for (size_t i = 0; i < rows; ++i) out[i] = ranked[i].pos;
  return out;
}

namespace {

// The top-k answer rows of `records` under the accumulator's ranking.
std::vector<Record> RankedRecords(const AnswerAccumulator& acc,
                                  const std::vector<Record>& records) {
  std::vector<Record> out;
  for (size_t pos : acc.RankedRows()) out.push_back(records[pos]);
  return out;
}

}  // namespace

QueryAnswer EvaluateAnswer(const QueryRequest& request,
                           const std::vector<Record>& range_records) {
  AnswerAccumulator acc(request);
  for (const Record& record : range_records) acc.Add(record.key, record.id);
  QueryAnswer answer = acc.summary();
  answer.records = RankedRecords(acc, range_records);
  return answer;
}

Status CheckAnswer(const QueryRequest& request,
                   const std::vector<Record>& verified_witness,
                   const QueryAnswer& claimed) {
  if (claimed.op != request.op) {
    return Status::VerificationFailure(
        std::string("answer operator mismatch: asked ") +
        QueryOpName(request.op) + ", answered " + QueryOpName(claimed.op));
  }
  QueryAnswer expect = EvaluateAnswer(request, verified_witness);
  if (claimed.count != expect.count) {
    return Status::VerificationFailure(
        "claimed COUNT " + std::to_string(claimed.count) +
        " does not match the authenticated result set (" +
        std::to_string(expect.count) + ")");
  }
  if (claimed.sum != expect.sum) {
    return Status::VerificationFailure(
        "claimed SUM " + std::to_string(claimed.sum) +
        " does not match the authenticated result set (" +
        std::to_string(expect.sum) + ")");
  }
  if (claimed.has_extrema != expect.has_extrema ||
      claimed.min_key != expect.min_key ||
      claimed.max_key != expect.max_key) {
    return Status::VerificationFailure(
        "claimed MIN/MAX do not match the authenticated result set");
  }
  if (claimed.records != expect.records) {
    return Status::VerificationFailure(
        std::string("claimed ") + QueryOpName(request.op) +
        " rows do not match the authenticated result set (" +
        std::to_string(claimed.records.size()) + " claimed, " +
        std::to_string(expect.records.size()) + " derived)");
  }
  return Status::OK();
}

QueryAnswer MergeAnswers(const QueryRequest& request,
                         const std::vector<QueryAnswer>& parts) {
  QueryAnswer merged;
  merged.op = request.op;
  for (const QueryAnswer& part : parts) {
    merged.count += part.count;
    merged.sum += part.sum;
    if (part.has_extrema) {
      if (!merged.has_extrema) {
        merged.has_extrema = true;
        merged.min_key = part.min_key;
        merged.max_key = part.max_key;
      } else {
        merged.min_key = std::min(merged.min_key, part.min_key);
        merged.max_key = std::max(merged.max_key, part.max_key);
      }
    }
    // Parts arrive in ascending shard (= ascending key) order, so plain
    // concatenation keeps scan/point rows sorted; top-k re-ranks below.
    merged.records.insert(merged.records.end(), part.records.begin(),
                          part.records.end());
  }
  if (request.op == QueryOp::kTopK) {
    AnswerAccumulator acc(request);
    for (const Record& record : merged.records) acc.Add(record.key, record.id);
    merged.records = RankedRecords(acc, merged.records);
  }
  return merged;
}

}  // namespace sae::dbms
