// Copyright (c) saedb authors. Licensed under the MIT license.

#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "core/messages.h"
#include "workload/dataset.h"

namespace perfbench {

using sae::dbms::QueryRequest;

namespace {
const Clock::time_point kProcessStart = Clock::now();

uint64_t RequestKey(const QueryRequest& r) {
  return (uint64_t(r.op) << 56) ^ (uint64_t(r.lo) << 24) ^ r.hi ^
         (uint64_t(r.limit) << 50);
}

bool ByKeyId(const Record& a, const Record& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}
}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   kProcessStart)
      .count();
}

QueryRequest RequestGen::Draw() {
  uint32_t lo = uint32_t(rng_.NextBounded(kDomainMax - kExtent));
  uint32_t hi = lo + kExtent;
  switch (rng_.NextBounded(7)) {
    case 0: return QueryRequest::Scan(lo, hi);
    case 1: return QueryRequest::Point(lo);
    case 2: return QueryRequest::Count(lo, hi);
    case 3: return QueryRequest::Sum(lo, hi);
    case 4: return QueryRequest::Min(lo, hi);
    case 5: return QueryRequest::Max(lo, hi);
    default: return QueryRequest::TopK(lo, hi, kTopK);
  }
}

QueryRequest RequestGen::Next() {
  for (;;) {
    QueryRequest r = Draw();
    if (seen_.insert(RequestKey(r)).second) return r;
  }
}

std::vector<Record> Oracle::RangeRecords(const QueryRequest& r) const {
  auto lo = std::lower_bound(
      sorted_->begin(), sorted_->end(), r.lo,
      [](const Record& rec, uint32_t k) { return rec.key < k; });
  auto hi = std::upper_bound(
      sorted_->begin(), sorted_->end(), r.hi,
      [](uint32_t k, const Record& rec) { return k < rec.key; });
  return std::vector<Record>(lo, hi);
}

std::string Oracle::Check(const QueryRequest& r,
                          const sae::dbms::QueryAnswer& got,
                          const std::vector<Record>& witness) const {
  std::vector<Record> truth = RangeRecords(r);
  sae::dbms::QueryAnswer want = sae::dbms::EvaluateAnswer(r, truth);
  if (got.op != want.op || got.count != want.count || got.sum != want.sum ||
      got.has_extrema != want.has_extrema || got.min_key != want.min_key ||
      got.max_key != want.max_key) {
    return "aggregate mismatch on " + Describe(r);
  }
  std::vector<Record> w = witness;
  std::sort(w.begin(), w.end(), ByKeyId);
  if (w != truth) return "witness mismatch on " + Describe(r);
  if (got.records.size() != want.records.size()) {
    return "top-k size mismatch on " + Describe(r);
  }
  for (size_t i = 0; i < got.records.size(); ++i) {
    if (got.records[i].key != want.records[i].key) {
      return "top-k row mismatch on " + Describe(r);
    }
  }
  return "";
}

std::string Describe(const QueryRequest& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s[%u,%u]", sae::dbms::QueryOpName(r.op),
                unsigned(r.lo), unsigned(r.hi));
  return buf;
}

std::vector<Record> MakeDataset(uint64_t seed) {
  sae::workload::DatasetSpec spec;
  spec.cardinality = kRecords;
  spec.record_size = kRecordSize;
  spec.domain_max = kDomainMax;
  spec.seed = seed;
  return sae::workload::GenerateDataset(spec);
}

size_t SpanLog::Begin(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : int64_t(open_.back());
  s.start_us = NowUs();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t index) {
  spans_[index].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

sae::Status TracedSaeQuery(const sae::core::ServiceProvider& sp,
                           const sae::core::TrustedEntity& te,
                           sae::core::SaeClientMemo* memo,
                           const QueryRequest& req, uint64_t published_epoch,
                           const sae::storage::RecordCodec& codec,
                           sae::crypto::HashScheme scheme, uint64_t rid,
                           SpanLog* log, QueryCounters* c,
                           sae::dbms::QueryAnswer* answer,
                           std::vector<Record>* witness) {
  ScopedSpan root(log, "query", rid);
  auto idx0 = sp.index_pool_thread_stats();
  auto heap0 = sp.heap_pool_thread_stats();
  auto te0 = te.pool_thread_stats();
  sae::core::ServiceProvider::PlanResult plan;
  {
    ScopedSpan s(log, "dbms.plan", rid);
    auto r = sp.ExecutePlan(req);
    if (!r.ok()) return r.status();
    plan = std::move(r).value();
  }
  auto idx = sp.index_pool_thread_stats() - idx0;
  auto heap = sp.heap_pool_thread_stats() - heap0;
  c->index_accesses += idx.accesses;
  c->heap_accesses += heap.accesses;
  c->pool_accesses += idx.accesses + heap.accesses;
  c->pool_misses += idx.misses + heap.misses;
  std::vector<uint8_t> msg;
  {
    ScopedSpan s(log, "core.encode_answer", rid);
    msg = sae::core::SerializeQueryAnswer(plan.answer, plan.witness,
                                          sp.epoch(), codec);
  }
  c->hashed_bytes += double(msg.size());
  sae::core::VerificationToken vt;
  {
    ScopedSpan s(log, "xbtree.token", rid);
    auto r = te.GenerateVt(req);
    if (!r.ok()) return r.status();
    vt = r.value();
  }
  c->te_accesses += (te.pool_thread_stats() - te0).accesses;
  std::vector<uint8_t> vt_msg;
  {
    ScopedSpan s(log, "core.encode_vt", rid);
    vt_msg = sae::core::SerializeVt(vt);
  }
  c->auth_bytes += double(vt_msg.size());
  sae::core::QueryAnswerMessage received;
  sae::core::VerificationToken vt_received;
  {
    ScopedSpan s(log, "core.decode", rid);
    auto m = sae::core::DeserializeQueryAnswer(msg, codec);
    auto v = sae::core::DeserializeVt(vt_msg);
    if (!m.ok()) return m.status();
    if (!v.ok()) return v.status();
    received = std::move(m).value();
    vt_received = v.value();
  }
  ScopedSpan s(log, "core.verify", rid);
  sae::Status verdict = memo->VerifyAnswer(
      req, received.answer, received.witness, vt_received, received.epoch,
      published_epoch, codec, scheme);
  *answer = std::move(received.answer);
  *witness = std::move(received.witness);
  return verdict;
}

void MergeSpans(std::vector<Span>* to, std::vector<Span> from) {
  int64_t base = int64_t(to->size());
  for (Span& s : from) {
    if (s.parent >= 0) s.parent += base;
    to->push_back(s);
  }
}

double SelfMsPerRequest(const std::vector<Span>& spans,
                        const std::vector<double>& self_us, const char* name,
                        double requests) {
  if (requests <= 0) return 0.0;
  std::string want(name);
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (want == spans[i].name) total += self_us[i];
  }
  return total / 1000.0 / requests;
}

void ReportAttribution(Report* report, double layer_sum_ms,
                       double untraced_p50_ms, double traced_p50_ms) {
  report->Layer("trace.layer_sum_ms", layer_sum_ms, "ms");
  report->Layer("trace.untraced_p50_ms", untraced_p50_ms, "ms");
  report->Layer("trace.unattributed_ms", untraced_p50_ms - layer_sum_ms,
                "ms");
  report->Layer("trace.overhead_ms", traced_p50_ms - untraced_p50_ms, "ms");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

Latency Summarize(std::vector<double> samples_ms) {
  std::sort(samples_ms.begin(), samples_ms.end());
  Latency l;
  l.n = samples_ms.size();
  l.p50 = Quantile(samples_ms, 0.5);
  l.p99 = Quantile(samples_ms, 0.99);
  return l;
}

}  // namespace perfbench
