// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The benchmark's reducers: pure functions that turn raw samples into the
// reported numbers. Kept header-only and dependency-free so selftest.cc can
// prove them on synthetic inputs before any measurement is trusted.

#ifndef PERFBENCH_REDUCERS_H_
#define PERFBENCH_REDUCERS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles. Nearest-rank: the p-quantile of n ascending samples is the
// sample at rank ceil(p * n) (1-based). A tail is reported only when at
// least kMinBeyond samples lie beyond that rank, so a p99 needs n >= 1000.

inline constexpr size_t kMinBeyond = 10;

inline size_t QuantileRank(size_t n, double p) {
  size_t rank = size_t(std::ceil(p * double(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - QuantileRank(n, p);
}

/// True when the p-quantile of n samples may be reported: the median needs
/// one sample, a tail (p > 0.5) needs kMinBeyond samples beyond its rank.
inline bool TailReportable(size_t n, double p) {
  if (n == 0) return false;
  return p <= 0.5 || SamplesBeyond(n, p) >= kMinBeyond;
}

/// Quantile of an ascending sample; NaN when the rule above forbids it.
inline double Quantile(const std::vector<double>& sorted, double p) {
  if (!TailReportable(sorted.size(), p)) return std::nan("");
  return sorted[QuantileRank(sorted.size(), p) - 1];
}

inline double QuantileOf(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return Quantile(values, p);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

// ---------------------------------------------------------------------------
// Block medians. A run's window is cut into equal time blocks; throughput,
// p50 and p99 are taken per block and the run reports their medians, so a
// short stall of the host moves one block, not the result.

struct Sample {
  double t_us = 0.0;  ///< when the operation started (or was due)
  double ms = 0.0;    ///< its latency
};

struct BlockSummary {
  double qps = std::nan("");
  double p50 = std::nan("");
  double p99 = std::nan("");
  size_t samples = 0;
};

inline BlockSummary SummarizeBlocks(const std::vector<Sample>& samples,
                                    double t0_us, double t1_us, int blocks) {
  BlockSummary out;
  if (blocks < 1 || t1_us <= t0_us) return out;
  double width = (t1_us - t0_us) / blocks;
  std::vector<std::vector<double>> per(static_cast<size_t>(blocks));
  for (const Sample& s : samples) {
    if (s.t_us < t0_us || s.t_us >= t1_us) continue;
    size_t b = std::min(size_t((s.t_us - t0_us) / width), size_t(blocks - 1));
    per[b].push_back(s.ms);
    ++out.samples;
  }
  std::vector<double> qps, p50, p99;
  for (auto& v : per) {
    std::sort(v.begin(), v.end());
    qps.push_back(double(v.size()) / (width / 1e6));
    if (TailReportable(v.size(), 0.5)) p50.push_back(Quantile(v, 0.5));
    if (TailReportable(v.size(), 0.99)) p99.push_back(Quantile(v, 0.99));
  }
  out.qps = QuantileOf(qps, 0.5);
  if (!p50.empty()) out.p50 = QuantileOf(p50, 0.5);
  if (!p99.empty()) out.p99 = QuantileOf(p99, 0.5);
  return out;
}

// ---------------------------------------------------------------------------
// Failure accounting. Every operation the benchmark issues is attempted;
// an operation that errors, is refused, or is rejected by the client's
// verification counts as failed, as does a failed crash recovery. A WRONG
// accepted answer is not a failure but a correctness violation (the run
// exits non-zero), so it is tracked separately.

struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  ///< accepted but wrong, or acknowledged but lost

  void Ok() { ++attempted; }
  void Fail() {
    ++attempted;
    ++failed;
  }
  OpTally& operator+=(const OpTally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    return *this;
  }
  double FailedShare() const {
    return attempted == 0 ? 0.0 : double(failed) / double(attempted);
  }
};

// ---------------------------------------------------------------------------
// Spans. A span's self time is its duration minus the part of its interval
// covered by its children (overlapping children count once; a child
// sticking out of its parent is clipped).

struct Span {
  const char* name = "";  ///< static string: the layer boundary
  uint64_t request = 0;
  int64_t parent = -1;  ///< index into the same span vector, -1 for a root
  double start_us = 0.0;
  double end_us = 0.0;
};

inline std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && size_t(s.parent) < spans.size()) {
      const Span& p = spans[size_t(s.parent)];
      double lo = std::max(s.start_us, p.start_us);
      double hi = std::min(s.end_us, p.end_us);
      if (hi > lo) kids[size_t(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].end_us - spans[i].start_us - covered);
  }
  return self;
}

// ---------------------------------------------------------------------------
// The sustained-rate ladder. Rungs are a fixed geometric series 5% apart;
// a probe at one rung passes when every request it issued was accepted,
// its p99 (from due time) is reportable and within the limit, and its
// backlog did not grow. The sustained rate is the highest passing rung.

inline constexpr double kLadderStep = 1.05;

inline double LadderRate(double base, int rung) {
  return base * std::pow(kLadderStep, double(rung));
}

/// A backlog grows when requests issued late in a probe wait clearly
/// longer than those issued early: the median latency of the last quarter
/// exceeds twice the first quarter's, by at least 1 ms. `latencies_ms` is
/// in issue order.
inline bool BacklogGrowing(const std::vector<double>& latencies_ms) {
  size_t n = latencies_ms.size();
  if (n < 8) return false;
  size_t q = n / 4;
  std::vector<double> first(latencies_ms.begin(), latencies_ms.begin() + q);
  std::vector<double> last(latencies_ms.end() - q, latencies_ms.end());
  double m1 = QuantileOf(first, 0.5), m4 = QuantileOf(last, 0.5);
  return m4 > 2.0 * m1 && m4 - m1 >= 1.0;
}

struct ProbeVerdict {
  bool pass = false;
  double p99_ms = std::nan("");
  bool backlog = false;
  std::string why;
};

inline ProbeVerdict JudgeProbe(const std::vector<double>& latencies_ms,
                               uint64_t issued, uint64_t failed,
                               double limit_ms) {
  ProbeVerdict v;
  v.p99_ms = QuantileOf(latencies_ms, 0.99);
  v.backlog = BacklogGrowing(latencies_ms);
  if (failed > 0 || latencies_ms.size() < issued) {
    v.why = "requests failed or never completed";
  } else if (std::isnan(v.p99_ms)) {
    v.why = "too few samples for a p99";
  } else if (v.p99_ms > limit_ms) {
    v.why = "p99 above limit";
  } else if (v.backlog) {
    v.why = "backlog growing";
  } else {
    v.pass = true;
  }
  return v;
}

/// Binary search over rungs [lo, hi] for the highest passing rung, given a
/// probe callback (rung -> pass). Assumes rung `lo - 1` is the floor: if
/// no rung passes the result is lo - 1. Probes each rung at most once.
template <typename ProbeFn>
int HighestPassingRung(int lo, int hi, ProbeFn&& probe) {
  int best = lo - 1;
  while (lo <= hi) {
    int mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace perfbench

#endif  // PERFBENCH_REDUCERS_H_
