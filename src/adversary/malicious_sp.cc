// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the threat-model mutations (adversary/malicious_sp.h): drop,
// inject, and tamper attacks on query results.

#include "adversary/malicious_sp.h"

#include <algorithm>

#include "util/random.h"

namespace sae::adversary {

std::vector<Record> ApplyAttack(const std::vector<Record>& honest,
                                AttackMode mode, const RecordCodec& codec,
                                uint64_t seed) {
  std::vector<Record> out = honest;
  Rng rng(seed);

  auto inject_fake = [&] {
    Record fake = codec.MakeRecord(
        storage::RecordId(0xFA4E0000u) + rng.NextBounded(1u << 20),
        storage::Key(rng.NextBounded(1u << 20)));
    size_t pos = out.empty() ? 0 : rng.NextBounded(out.size() + 1);
    out.insert(out.begin() + pos, fake);
  };

  if (mode == AttackMode::kNone || IsFreshnessAttack(mode) ||
      IsAnswerAttack(mode) || IsCacheAttack(mode)) {
    // Freshness attacks corrupt the epoch claim and answer attacks the
    // derived aggregate (ApplyAnswerAttack) — never the record bytes.
    return out;
  }

  if (out.empty() && mode != AttackMode::kDropAll) {
    // Nothing to drop or tamper with; stay malicious by injecting instead.
    inject_fake();
    return out;
  }

  switch (mode) {
    case AttackMode::kNone:
    case AttackMode::kReplayStaleRoot:
    case AttackMode::kStaleVt:
    case AttackMode::kWrongCount:
    case AttackMode::kWrongSum:
    case AttackMode::kTruncatedTopK:
    case AttackMode::kStaleCacheReplay:
    case AttackMode::kPoisonedCache:
      break;  // handled above
    case AttackMode::kDropOne:
      out.erase(out.begin() + rng.NextBounded(out.size()));
      break;
    case AttackMode::kDropAll:
      out.clear();
      break;
    case AttackMode::kInjectFake:
      inject_fake();
      break;
    case AttackMode::kTamperPayload: {
      Record& victim = out[rng.NextBounded(out.size())];
      if (victim.payload.empty()) victim.payload.resize(1);
      size_t pos = rng.NextBounded(victim.payload.size());
      victim.payload[pos] ^= 0x80;
      break;
    }
    case AttackMode::kTamperKey: {
      Record& victim = out[rng.NextBounded(out.size())];
      victim.key ^= 1;
      break;
    }
    case AttackMode::kDuplicateOne: {
      Record copy = out[rng.NextBounded(out.size())];
      out.push_back(copy);
      break;
    }
  }
  return out;
}

void ApplyAnswerAttack(dbms::QueryAnswer* answer, AttackMode mode,
                       uint64_t seed) {
  Rng rng(seed);
  switch (mode) {
    case AttackMode::kWrongCount:
      ++answer->count;
      break;
    case AttackMode::kWrongSum:
      answer->sum += 1 + rng.NextBounded(1u << 16);
      break;
    case AttackMode::kTruncatedTopK:
      if (answer->op == dbms::QueryOp::kTopK && !answer->records.empty()) {
        answer->records.pop_back();
      } else {
        // Nothing to truncate: only top-k ships answer rows of its own
        // (scan/point rows are the witness, which this attack leaves
        // honest), or the range was empty. Lie about the count instead,
        // so "malicious" never silently means "honest".
        ++answer->count;
      }
      break;
    default:
      break;  // record and freshness modes never touch the answer
  }
}

}  // namespace sae::adversary
