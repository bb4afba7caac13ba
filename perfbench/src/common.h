// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Shared pieces of the perfbench program: the fixed workload shape, the
// seeded request generator, the oracle the read-only workloads check
// answers against, the in-memory span log, and the report every workload
// fills in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/client_memo.h"
#include "core/service_provider.h"
#include "core/trusted_entity.h"
#include "crypto/digest.h"
#include "dbms/query.h"
#include "reducers.h"
#include "storage/record.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using sae::storage::Record;

// The workload shape every workload shares (the paper's Sec. IV setting).
inline constexpr size_t kRecords = 100'000;
inline constexpr size_t kRecordSize = 500;
inline constexpr uint32_t kDomainMax = 10'000'000;
inline constexpr uint32_t kExtent = kDomainMax / 200;  // 0.5% of the domain
inline constexpr uint32_t kTopK = 10;
inline constexpr int kClientThreads = 3;  // + the main thread = nproc 4
inline constexpr int kSetupRepeats = 3;   // setup_s is their median

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Microseconds since process start: the time base of every span.
double NowUs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `e2e` and `layer` hold the metrics the
/// benchmark contract names; `info` holds the rest of the printed report.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> info;
  OpTally ops;
  std::vector<std::string> errors;  ///< correctness violations
  std::string fatal;                ///< set-up failed: nothing was measured
  std::vector<std::string> notes;   ///< non-fatal observations (failures)
  std::vector<Span> spans;          ///< traced run only

  void E2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void Layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void Info(const std::string& n, double v, const std::string& u) {
    info.push_back({n, v, u});
  }
  void Wrong(const std::string& what) {
    ops.wrong++;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Uniform queries over the domain, evenly split across scan, point,
/// COUNT, SUM, MIN, MAX and top-10, with a 0.5% extent. Never repeats a
/// request: a duplicate draw is redrawn, so cold workloads bypass every
/// answer cache.
class RequestGen {
 public:
  explicit RequestGen(uint64_t seed) : rng_(seed) {}
  sae::dbms::QueryRequest Next();

 private:
  sae::dbms::QueryRequest Draw();

  sae::Rng rng_;
  std::unordered_set<uint64_t> seen_;
};

/// Ground truth computed from the generated records alone.
class Oracle {
 public:
  explicit Oracle(const std::vector<Record>* sorted) : sorted_(sorted) {}
  /// Empty when the accepted answer and witness match the truth;
  /// otherwise a one-line description. Witness records compare by (key,
  /// id); top-k rows compare by key (ties at the cut may pick either id).
  std::string Check(const sae::dbms::QueryRequest& r,
                    const sae::dbms::QueryAnswer& got,
                    const std::vector<Record>& witness) const;

 private:
  std::vector<Record> RangeRecords(const sae::dbms::QueryRequest& r) const;

  const std::vector<Record>* sorted_;
};

std::string Describe(const sae::dbms::QueryRequest& r);

/// The generated dataset: 100K records of 500 B, keys uniform over the
/// domain, sorted by (key, id). Input making, not timed.
std::vector<Record> MakeDataset(uint64_t seed);

/// Per-thread span recorder; nesting follows the Begin/End call order.
class SpanLog {
 public:
  size_t Begin(const char* name, uint64_t request);
  void End(size_t index);
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), index_(log ? log->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// What traced SAE queries add up, read at the call sites.
struct QueryCounters {
  uint64_t index_accesses = 0, heap_accesses = 0;  ///< SP buffer pools
  uint64_t pool_accesses = 0, pool_misses = 0;     ///< both SP pools
  uint64_t te_accesses = 0;
  double hashed_bytes = 0;  ///< answer-message bytes the client re-hashes
  double auth_bytes = 0;    ///< VT bytes
};

/// One verified SAE query through the public calls SaeSystem::ExecuteQuery
/// makes, one span per layer call: ServiceProvider::ExecutePlan
/// (dbms.plan), SerializeQueryAnswer (core.encode_answer),
/// TrustedEntity::GenerateVt (xbtree.token), SerializeVt (core.encode_vt),
/// their decoders (core.decode)
/// and `memo`'s VerifyAnswer against `published_epoch` (core.verify).
/// Returns the verdict; the accepted answer lands in `answer`/`witness`.
sae::Status TracedSaeQuery(const sae::core::ServiceProvider& sp,
                           const sae::core::TrustedEntity& te,
                           sae::core::SaeClientMemo* memo,
                           const sae::dbms::QueryRequest& req,
                           uint64_t published_epoch,
                           const sae::storage::RecordCodec& codec,
                           sae::crypto::HashScheme scheme, uint64_t rid,
                           SpanLog* log, QueryCounters* counters,
                           sae::dbms::QueryAnswer* answer,
                           std::vector<Record>* witness);

/// Appends `from` to `to`, re-basing parent indices.
void MergeSpans(std::vector<Span>* to, std::vector<Span> from);

/// Mean self time per request (ms) of spans named `name`, divided by
/// `requests` (0 when there are none).
double SelfMsPerRequest(const std::vector<Span>& spans,
                        const std::vector<double>& self_us, const char* name,
                        double requests);

/// The trace summary every traced run prints: layer-time sum next to the
/// untraced p50, the unattributed remainder and the tracing overhead.
void ReportAttribution(Report* report, double layer_sum_ms,
                       double untraced_p50_ms, double traced_p50_ms);

double PeakRssMb();
double Ratio(double num, double den);

/// Latency summary of a sample: p50/p99 under the reporting rule.
struct Latency {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t n = 0;
};
Latency Summarize(std::vector<double> samples_ms);

/// Calls `fn(thread_index)` on kClientThreads threads and joins them.
template <typename Fn>
void RunClients(Fn&& fn) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
