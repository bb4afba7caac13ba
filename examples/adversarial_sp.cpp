// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Adversarial service provider demo: runs every attack from the threat model
// (paper §II: RS' = (RS - DS) ∪ IS) against both outsourcing models and
// prints the detection matrix. Every row must read "detected".
//
//   $ ./examples/adversarial_sp

#include <cstdio>

#include "adversary/adversary.h"
#include "core/system.h"
#include "workload/dataset.h"

using namespace sae;
using adversary::AttackMode;

namespace {

const char* ModeName(AttackMode mode) {
  switch (mode) {
    case AttackMode::kNone:
      return "honest";
    case AttackMode::kDropOne:
      return "drop one record      (completeness)";
    case AttackMode::kDropAll:
      return "drop entire result   (completeness)";
    case AttackMode::kInjectFake:
      return "inject fake record   (soundness)";
    case AttackMode::kTamperPayload:
      return "tamper payload bytes (soundness)";
    case AttackMode::kTamperKey:
      return "tamper search key    (soundness)";
    case AttackMode::kDuplicateOne:
      return "duplicate a record   (soundness)";
    case AttackMode::kReplayStaleRoot:
      return "replay stale snapshot (freshness)";
    case AttackMode::kStaleVt:
      return "stale token/signature (freshness)";
    case AttackMode::kStaleCacheReplay:
      return "replay stale cache hit (freshness)";
    case AttackMode::kPoisonedCache:
      return "poison own answer cache (cache)";
    case AttackMode::kWrongCount:
      return "lie about COUNT      (aggregate)";
    case AttackMode::kWrongSum:
      return "lie about SUM        (aggregate)";
    case AttackMode::kTruncatedTopK:
      return "truncate top-k       (aggregate)";
  }
  return "?";
}

}  // namespace

int main() {
  constexpr size_t kRecSize = 120;
  workload::DatasetSpec spec;
  spec.cardinality = 5000;
  spec.record_size = kRecSize;
  spec.domain_max = 100000;
  auto records = workload::GenerateDataset(spec);

  core::SaeSystem::Options sae_options;
  sae_options.record_size = kRecSize;
  core::SaeSystem sae_system(sae_options);
  if (!sae_system.Load(records).ok()) return 1;

  core::TomSystem::Options tom_options;
  tom_options.record_size = kRecSize;
  tom_options.rsa_modulus_bits = 512;
  core::TomSystem tom_system(tom_options);
  if (!tom_system.Load(records).ok()) return 1;

  // The compromised SPs keep a replica of the loaded state; one update each
  // then leaves that replica genuinely stale to replay (epoch 2).
  adversary::SaeAdversary sae_attacker(&sae_system);
  adversary::TomAdversary tom_attacker(&tom_system);
  storage::RecordCodec codec(kRecSize);
  if (!sae_system.Insert(codec.MakeRecord(999999, 30000)).ok()) return 1;
  if (!tom_system.Insert(codec.MakeRecord(999999, 30000)).ok()) return 1;

  std::printf("query [20000, 40000] under a compromised SP\n\n");
  std::printf("%-40s %-12s %-12s\n", "attack", "SAE client", "TOM client");
  std::printf("%-40s %-12s %-12s\n", "------", "----------", "----------");

  bool all_caught = true;
  for (AttackMode mode :
       {AttackMode::kNone, AttackMode::kDropOne, AttackMode::kDropAll,
        AttackMode::kInjectFake, AttackMode::kTamperPayload,
        AttackMode::kTamperKey, AttackMode::kDuplicateOne,
        AttackMode::kReplayStaleRoot, AttackMode::kStaleVt,
        AttackMode::kStaleCacheReplay, AttackMode::kPoisonedCache,
        AttackMode::kWrongCount, AttackMode::kWrongSum,
        AttackMode::kTruncatedTopK}) {
    // Aggregate attacks target the derived answer, so run them against
    // the operator they lie about; everything else attacks a range scan.
    dbms::QueryRequest request = dbms::QueryRequest::Scan(20000, 40000);
    if (mode == AttackMode::kWrongCount) {
      request = dbms::QueryRequest::Count(20000, 40000);
    } else if (mode == AttackMode::kWrongSum) {
      request = dbms::QueryRequest::Sum(20000, 40000);
    } else if (mode == AttackMode::kTruncatedTopK) {
      request = dbms::QueryRequest::TopK(20000, 40000, 10);
    }
    auto sae = sae_attacker.Query(request, mode);
    auto tom = tom_attacker.Query(request, mode);
    if (!sae.ok() || !tom.ok()) return 1;

    bool sae_accepts = sae.value().verification.ok();
    bool tom_accepts = tom.value().verification.ok();
    std::printf("%-40s %-12s %-12s\n", ModeName(mode),
                sae_accepts ? "accepted" : "detected",
                tom_accepts ? "accepted" : "detected");

    bool should_accept = (mode == AttackMode::kNone);
    all_caught &= (sae_accepts == should_accept);
    all_caught &= (tom_accepts == should_accept);
  }

  std::printf("\n%s\n", all_caught ? "all attacks detected, honest accepted"
                                   : "SECURITY VIOLATION");
  return all_caught ? 0 : 1;
}
