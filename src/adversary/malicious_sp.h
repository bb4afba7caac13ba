// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Adversarial service provider behaviours (paper §II): a malicious SP
// returns RS' = (RS - DS) ∪ IS — dropping a subset DS of the true result
// and/or injecting a fake set IS; tampering with a record is drop + inject
// combined. These mutations drive the security tests and the adversarial
// example: every one of them must be caught by client verification. They
// live in the test-side adversary library (src/adversary), which only
// tests, examples and benches link; production classes carry none of them.

#ifndef SAE_ADVERSARY_MALICIOUS_SP_H_
#define SAE_ADVERSARY_MALICIOUS_SP_H_

#include <vector>

#include "dbms/query.h"
#include "storage/record.h"

namespace sae::adversary {

using storage::Record;
using storage::RecordCodec;

/// What a compromised SP does to the honest result before returning it.
/// The first group mutates the result records; the freshness group replays
/// authentication state from an earlier epoch and leaves the record bytes
/// alone — the SP taps stage those (adversary/adversary.h: the SP serves
/// from a pre-update replica, or an old token or signature is presented),
/// not ApplyAttack.
enum class AttackMode {
  kNone = 0,        ///< honest behaviour
  kDropOne,         ///< completeness attack: remove one record
  kDropAll,         ///< completeness attack: claim an empty result
  kInjectFake,      ///< soundness attack: add a fabricated record
  kTamperPayload,   ///< soundness attack: flip bytes in a record's payload
  kTamperKey,       ///< soundness attack: change a record's search key
  kDuplicateOne,    ///< soundness attack: return a record twice
  kReplayStaleRoot, ///< freshness attack: SP answers from a pre-update
                    ///< snapshot (stale results + matching stale auth state)
  kStaleVt,         ///< freshness attack: token/signature from an old epoch
                    ///< presented against the current result
  kWrongCount,      ///< aggregate attack: the claimed COUNT is off by one
                    ///< while every witness record ships honestly
  kWrongSum,        ///< aggregate attack: the claimed SUM is perturbed
                    ///< while every witness record ships honestly
  kTruncatedTopK,   ///< aggregate attack: the top-k answer silently loses
                    ///< its last winner (witness untouched)
  kStaleCacheReplay,///< freshness attack: SP replays an answer-cache entry
                    ///< keyed to a pre-update epoch (cached stale bytes +
                    ///< matching stale auth state)
  kPoisonedCache,   ///< cache attack: SP rewrites its own answer cache and
                    ///< serves the poisoned bytes (staged by PoisonCache,
                    ///< not by ApplyAttack)
};

/// True for the freshness modes ApplyAttack leaves untouched.
inline bool IsFreshnessAttack(AttackMode mode) {
  return mode == AttackMode::kReplayStaleRoot ||
         mode == AttackMode::kStaleVt ||
         mode == AttackMode::kStaleCacheReplay;
}

/// True for the modes staged inside the SP's answer cache. kStaleCacheReplay
/// is also a freshness attack (a cached entry from an old epoch is just a
/// stale snapshot that happens to live in the cache); kPoisonedCache leaves
/// durable damage — the poison persists for later honest queries until an
/// epoch bump flushes it — so the parity harness excludes it from its
/// random attack pool and the security suite covers it directly.
inline bool IsCacheAttack(AttackMode mode) {
  return mode == AttackMode::kStaleCacheReplay ||
         mode == AttackMode::kPoisonedCache;
}

/// True for the modes that tamper the *derived answer* rather than the
/// witness records — the attacks CheckAnswer (not the range proof) catches.
inline bool IsAnswerAttack(AttackMode mode) {
  return mode == AttackMode::kWrongCount || mode == AttackMode::kWrongSum ||
         mode == AttackMode::kTruncatedTopK;
}

/// True for the modes that mutate the witness record set itself (the
/// classic drop/inject/tamper family the VT / VO proof catches).
inline bool IsRecordAttack(AttackMode mode) {
  return mode != AttackMode::kNone && !IsFreshnessAttack(mode) &&
         !IsAnswerAttack(mode) && !IsCacheAttack(mode);
}

/// Applies the attack to a copy of the honest result. Attacks needing a
/// victim pick one pseudo-randomly from `seed`; attacks on an empty result
/// degrade to kInjectFake so that "malicious" never silently means "honest".
/// Freshness modes return the result unchanged (see AttackMode); the SP
/// taps guarantee their detection by rewinding the *claimed epoch* even
/// when no pre-update replica exists.
std::vector<Record> ApplyAttack(const std::vector<Record>& honest,
                                AttackMode mode, const RecordCodec& codec,
                                uint64_t seed);

/// Applies an answer-level attack to the SP's claimed QueryAnswer, leaving
/// the witness alone: kWrongCount/kWrongSum perturb the derived dimension
/// (checked for every operator, so the lie is never silently honest) and
/// kTruncatedTopK drops the last top-k answer row — or, when the answer
/// carries no rows of its own (non-top-k operators, whose rows are the
/// witness itself, or an empty range), falls back to a count lie so the
/// attack is never a silent no-op. Every other mode leaves the answer
/// untouched.
void ApplyAnswerAttack(dbms::QueryAnswer* answer, AttackMode mode,
                       uint64_t seed);

}  // namespace sae::adversary

#endif  // SAE_ADVERSARY_MALICIOUS_SP_H_
