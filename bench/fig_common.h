// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Shared harness for the figure benches. Each bench sweeps the paper's
// configuration — n in {100K, 250K, 500K, 750K, 1M}, UNF and SKW key
// distributions, 100 uniform queries of extent 0.5% of the domain, 500-byte
// records, 4096-byte pages, 10 ms per node access — and prints the series
// the corresponding figure plots.
//
// SAE_BENCH_SCALE (env, default 1.0) scales the cardinalities for quick
// runs, e.g. SAE_BENCH_SCALE=0.1 sweeps 10K..100K.

#ifndef SAE_BENCH_FIG_COMMON_H_
#define SAE_BENCH_FIG_COMMON_H_

#include <cstdio>
#include <initializer_list>
#include <utility>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/system.h"
#include "core/tom.h"
#include "sim/cost_model.h"
#include "util/macros.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace sae::bench {

inline constexpr size_t kRecordSize = 500;
inline constexpr uint32_t kDomainMax = 10'000'000;
inline constexpr size_t kQueriesPerPoint = 100;
inline constexpr double kQueryExtent = 0.005;

inline double BenchScale() {
  const char* env = std::getenv("SAE_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

inline std::vector<size_t> Cardinalities() {
  double scale = BenchScale();
  std::vector<size_t> out;
  for (size_t base : {100'000, 250'000, 500'000, 750'000, 1'000'000}) {
    size_t n = size_t(double(base) * scale);
    out.push_back(n < 1000 ? 1000 : n);
  }
  return out;
}

inline const char* DistName(workload::Distribution dist) {
  return dist == workload::Distribution::kUniform ? "UNF" : "SKW";
}

/// Machine-readable sidecar for the figure benches: collects labeled rows
/// and writes them as JSON to SAE_BENCH_JSON (default BENCH_<name>.json),
/// so scripts/check_perf_regression.py can gate the figure metrics, not
/// just the throughput bench. The gate keys rows on their label fields and
/// infers metric direction from the name (qps/ops/speedup up, ms/mb/bytes
/// down), so keep those conventions when naming metrics.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Row(std::initializer_list<std::pair<const char*, std::string>> labels,
           std::initializer_list<std::pair<const char*, double>> metrics) {
    std::string row = "    {";
    bool first = true;
    for (const auto& [key, value] : labels) {
      if (!first) row += ", ";
      row += '"';
      row += key;
      row += "\": \"";
      row += value;
      row += '"';
      first = false;
    }
    char buf[64];
    for (const auto& [key, value] : metrics) {
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      if (!first) row += ", ";
      row += '"';
      row += key;
      row += "\": ";
      row += buf;
      first = false;
    }
    row += '}';
    rows_.push_back(std::move(row));
  }

  /// Main-compatible exit code: 0 on success, 1 when the file can't open.
  int Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (const char* env = std::getenv("SAE_BENCH_JSON")) path = env;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"scale\": %.4f,\n"
                 "  \"rows\": [\n",
                 name_.c_str(), BenchScale());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
    return 0;
  }

 private:
  std::string name_;
  std::vector<std::string> rows_;
};

inline std::vector<storage::Record> MakeDataset(workload::Distribution dist,
                                                size_t n) {
  workload::DatasetSpec spec;
  spec.cardinality = n;
  spec.distribution = dist;
  spec.domain_max = kDomainMax;
  spec.record_size = kRecordSize;
  spec.seed = 42;
  return workload::GenerateDataset(spec);
}

/// Shard counts swept by the sharded sections of bench_throughput and
/// bench_ablation_updates. Override with SAE_BENCH_SHARDS, a
/// comma-separated list, e.g. SAE_BENCH_SHARDS=1,4,16.
inline std::vector<size_t> ShardCounts() {
  const char* env = std::getenv("SAE_BENCH_SHARDS");
  if (env == nullptr) return {1, 2, 4, 8};
  std::vector<size_t> counts;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    long value = std::strtol(p, &end, 10);
    if (end == p) break;
    if (value > 0) counts.push_back(size_t(value));
    p = *end == ',' ? end + 1 : end;
  }
  return counts.empty() ? std::vector<size_t>{1, 2, 4, 8} : counts;
}

inline std::vector<workload::RangeQuery> MakeQueries() {
  workload::QueryWorkloadSpec spec;
  spec.count = kQueriesPerPoint;
  spec.extent_fraction = kQueryExtent;
  spec.domain_max = kDomainMax;
  spec.seed = 7;
  return workload::GenerateQueries(spec);
}

// --- direct-entity builders ---------------------------------------------------
// The figure benches wire entities directly (no DataOwner master copy) to
// keep the peak memory of the 1M-record points manageable.

inline std::unique_ptr<core::ServiceProvider> BuildSaeSp(
    const std::vector<storage::Record>& sorted) {
  core::ServiceProvider::Options options;
  options.record_size = kRecordSize;
  auto sp = std::make_unique<core::ServiceProvider>(options);
  SAE_CHECK_OK(sp->LoadDataset(sorted));
  return sp;
}

inline std::unique_ptr<core::TrustedEntity> BuildTe(
    const std::vector<storage::Record>& sorted) {
  core::TrustedEntity::Options options;
  options.record_size = kRecordSize;
  auto te = std::make_unique<core::TrustedEntity>(options);
  SAE_CHECK_OK(te->LoadDataset(sorted));
  return te;
}

// Builds the TOM SP; the root signature is produced by a bench-local key
// over the SP's own root digest (the DO-side ADS build is elided — it is
// identical work and is not part of any figure's measured quantity).
struct TomSpBundle {
  std::unique_ptr<core::TomServiceProvider> sp;
  crypto::RsaPublicKey public_key;
};

inline TomSpBundle BuildTomSp(const std::vector<storage::Record>& sorted,
                              size_t rsa_bits = 1024) {
  core::TomServiceProvider::Options options;
  options.record_size = kRecordSize;
  auto sp = std::make_unique<core::TomServiceProvider>(options);
  SAE_CHECK_OK(sp->LoadDataset(sorted));

  Rng rng(0x5AE2009);
  crypto::RsaPrivateKey key = crypto::RsaGenerateKey(&rng, rsa_bits);
  // Static bench set-up: the epoch stays at 0 and the signature covers the
  // epoch-stamped root commitment for that epoch.
  crypto::RsaSignature sig = crypto::RsaSignDigest(
      key, crypto::EpochStampedDigest(sp->ads().root_digest(), 0));
  sp->SetSignature(std::move(sig), 0);
  return TomSpBundle{std::move(sp), key.PublicKey()};
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("# %s\n", title);
  std::printf("# record=%zuB page=4096B queries=%zu extent=%.1f%% "
              "scale=%.2f\n",
              kRecordSize, kQueriesPerPoint, kQueryExtent * 100,
              BenchScale());
  std::printf("%s\n", columns);
}

}  // namespace sae::bench

#endif  // SAE_BENCH_FIG_COMMON_H_
