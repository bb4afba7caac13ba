// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Quickstart: outsource a small table under SAE, run an authenticated range
// query, and watch verification succeed — then catch a cheating provider.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "adversary/adversary.h"
#include "core/system.h"

using sae::adversary::AttackMode;
using sae::core::SaeSystem;
using sae::storage::Record;
using sae::storage::RecordCodec;

int main() {
  // 1. The data owner's table: 1,000 records, 4-byte integer search keys.
  SaeSystem::Options options;
  options.record_size = 128;
  SaeSystem system(options);

  RecordCodec codec(options.record_size);
  std::vector<Record> dataset;
  for (uint64_t id = 1; id <= 1000; ++id) {
    dataset.push_back(codec.MakeRecord(id, uint32_t(id * 37 % 10000)));
  }

  // 2. Outsource: the DO ships the dataset to the SP (a conventional DBMS)
  //    and to the TE (which keeps only <id, key, digest> tuples).
  if (!system.Load(dataset).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  std::printf("outsourced %zu records\n", dataset.size());
  std::printf("  SP storage : %8zu bytes (dataset + B+-tree)\n",
              system.sp().StorageBytes());
  std::printf("  TE storage : %8zu bytes (XB-tree only)\n\n",
              system.te().StorageBytes());

  // 3. An authenticated range query: results come from the SP, the 20-byte
  //    verification token from the TE.
  auto outcome = system.Query(2000, 4000);
  if (!outcome.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("query [2000, 4000]: %zu results\n",
              outcome.value().results.size());
  std::printf("  verification : %s\n",
              outcome.value().verification.ToString().c_str());
  std::printf("  auth traffic : %zu bytes (the VT)\n\n",
              outcome.value().costs.auth_bytes);

  // 4. A malicious SP drops a record; the XOR check catches it.
  sae::adversary::SaeSpAttack cheating_sp(AttackMode::kDropOne, &system.sp());
  auto attacked = system.ExecuteQuery(2000, 4000, &cheating_sp);
  std::printf("same query with a cheating SP (one record dropped):\n");
  std::printf("  verification : %s\n",
              attacked.value().verification.ToString().c_str());
  return attacked.value().verification.ok() ? 1 : 0;  // must be caught
}
