// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Test-side adversaries (paper §II). A malicious SP is an outside
// behaviour the client must catch, RS' = (RS - DS) ∪ IS, so it lives here
// as decorators over the production classes' public surface, never inside
// them. The systems offer one seam, core::QueryTap on ExecuteQuery, and the
// taps below stand in for a compromised SP there:
//
//   - record and answer lies (AttackMode, adversary/malicious_sp.h) tamper
//     the served answer before the client receives it;
//   - the freshness modes answer from a stale replica, an SP loaded from
//     the pre-update dataset at its epoch (under TOM with that epoch's root
//     signature), or present an old token / signature;
//   - cache poisoning writes a tampered answer into the SP's own answer
//     cache through its answer_cache() accessor, where it keeps serving
//     later honest queries until an epoch bump flushes it.
//
// Only tests, examples and benches link this library (sae_adversary).

#ifndef SAE_ADVERSARY_ADVERSARY_H_
#define SAE_ADVERSARY_ADVERSARY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "adversary/malicious_sp.h"
#include "core/sharded_system.h"
#include "core/system.h"
#include "crypto/rsa.h"
#include "util/status.h"

namespace sae::adversary {

using storage::Key;

/// Decodes a served answer shipment, applies `mode`'s record and answer
/// lies (a record attack re-derives the answer from the tampered witness,
/// a consistent lie only the proof catches) and re-encodes it stamped with
/// `claimed_epoch`.
Result<std::vector<uint8_t>> TamperAnswer(
    const std::vector<uint8_t>& answer_msg, const dbms::QueryRequest& request,
    AttackMode mode, const RecordCodec& codec, uint64_t seed,
    uint64_t claimed_epoch);

/// Writes a tampered copy (kTamperPayload) of `request`'s honest answer into
/// the SP's answer cache at its current epoch and returns it. Every later
/// query for the plan, in process or over TCP, is then served the lie until
/// an epoch bump flushes the cache; with the cache disabled nothing
/// persists. The TOM copy keeps the honest VO, which disproves it.
Result<std::shared_ptr<const core::CachedAnswer>> PoisonCache(
    core::ServiceProvider* sp, const dbms::QueryRequest& request);

/// A compromised SAE SP as a tap on SaeSystem::ExecuteQuery. `sp` is the
/// system's live SP (kPoisonedCache writes its cache); `stale`, when given,
/// is the pre-update replica the freshness modes answer from. Without one
/// they replay the live answer under a rewound epoch claim, so "malicious"
/// never silently means "honest". Thread-safe.
class SaeSpAttack final : public core::QueryTap {
 public:
  SaeSpAttack(AttackMode mode, core::ServiceProvider* sp,
              const core::ServiceProvider* stale = nullptr)
      : mode_(mode), sp_(sp), stale_(stale) {}

  Result<std::shared_ptr<const core::CachedAnswer>> OnAnswer(
      const dbms::QueryRequest& request, uint64_t published,
      std::shared_ptr<const core::CachedAnswer> served) override;
  /// kStaleVt replays the token one epoch back.
  Result<std::vector<uint8_t>> OnToken(const dbms::QueryRequest& request,
                                       uint64_t published,
                                       std::vector<uint8_t> vt_msg) override;

 private:
  AttackMode mode_;
  core::ServiceProvider* sp_;
  const core::ServiceProvider* stale_;
  std::atomic<uint64_t> seed_{0xBADC0DE};
};

/// An SAE SP that pads each answer with two copies of `pad`. The XOR of
/// unkeyed digests cancels the pair, so the token still matches and only
/// the client's witness check (core::Client::CheckWitness) can reject it:
///   - kDuplicatePair: `pad` is a made-up record inside the range, so an
///     id repeats; an answer whose range does not hold it passes unchanged
///     (a sharded query pads only the slice that holds it);
///   - kOutOfRangePair: `pad` is a real record outside every range.
/// The pair sits where key order puts it and the answer is re-derived from
/// the padded witness, so each leg trips only the check it targets.
/// Stateless, so thread-safe.
class PairPaddingTap final : public core::QueryTap {
 public:
  enum class Leg { kDuplicatePair, kOutOfRangePair };

  PairPaddingTap(Leg leg, Record pad, const RecordCodec& codec)
      : leg_(leg), pad_(std::move(pad)), codec_(codec) {}

  Result<std::shared_ptr<const core::CachedAnswer>> OnAnswer(
      const dbms::QueryRequest& request, uint64_t published,
      std::shared_ptr<const core::CachedAnswer> served) override;

 private:
  Leg leg_;
  Record pad_;
  RecordCodec codec_;
};

/// A compromised TOM SP as a tap on TomSystem::ExecuteQuery: as
/// SaeSpAttack, with the VO in the served answer. kStaleVt presents
/// `stale_signature` (the root signature at the replica's epoch) against
/// the current result.
class TomSpAttack final : public core::QueryTap {
 public:
  TomSpAttack(AttackMode mode, core::TomServiceProvider* sp,
              const core::TomServiceProvider* stale = nullptr,
              crypto::RsaSignature stale_signature = {})
      : mode_(mode),
        sp_(sp),
        stale_(stale),
        stale_signature_(std::move(stale_signature)) {}

  Result<std::shared_ptr<const core::CachedAnswer>> OnAnswer(
      const dbms::QueryRequest& request, uint64_t published,
      std::shared_ptr<const core::CachedAnswer> served) override;

 private:
  AttackMode mode_;
  core::TomServiceProvider* sp_;
  const core::TomServiceProvider* stale_;
  crypto::RsaSignature stale_signature_;
  std::atomic<uint64_t> seed_{0xBADC0DE};
};

/// The compromised SP of one loaded system (SaeSystem or TomSystem).
/// Construct it after Load and before the updates a replay should predate:
/// it loads its stale replica from one reader-locked capture of the
/// system's dataset, epoch (and TOM root signature) as they stand then, so
/// a concurrent update never mixes two epochs into it. Thread-safe.
template <typename System>
class Adversary {
 public:
  using Sp = std::remove_reference_t<decltype(std::declval<System&>().sp())>;
  using Outcome = typename System::QueryOutcome;

  explicit Adversary(System* system);

  /// The tap applying `mode`, owned by the adversary; nullptr for kNone.
  core::QueryTap* Tap(AttackMode mode);

  Result<Outcome> Query(const dbms::QueryRequest& request, AttackMode mode) {
    return system_->ExecuteQuery(request, Tap(mode));
  }
  Result<Outcome> Query(Key lo, Key hi, AttackMode mode) {
    return Query(dbms::QueryRequest::Scan(lo, hi), mode);
  }

 private:
  System* system_;
  std::unique_ptr<Sp> stale_;
  crypto::RsaSignature stale_signature_;  // TOM only
  std::mutex mu_;
  std::map<AttackMode, std::unique_ptr<core::QueryTap>> taps_;
};

template <>
Adversary<core::SaeSystem>::Adversary(core::SaeSystem* system);
template <>
Adversary<core::TomSystem>::Adversary(core::TomSystem* system);

using SaeAdversary = Adversary<core::SaeSystem>;
using TomAdversary = Adversary<core::TomSystem>;

/// Attack placement over a sharded deployment: one Adversary per shard and
/// taps that act on one compromised shard, or on every shard (the unsharded
/// semantics). The sharded system hands a tap to each shard it routes to
/// with that shard's clipped sub-request, so the tap finds its shard
/// through the router. Construct it after Load, like Adversary.
template <typename Base>
class ShardedAdversary {
 public:
  static constexpr size_t kAllShards = ~size_t{0};
  using System = core::ShardedSystem<Base>;
  using Outcome = typename System::QueryOutcome;

  explicit ShardedAdversary(System* system);
  ~ShardedAdversary();

  /// The tap compromising `shard` (or all of them), owned by the adversary;
  /// nullptr for kNone.
  core::QueryTap* Tap(AttackMode mode, size_t shard = kAllShards);

  Result<Outcome> Query(const dbms::QueryRequest& request, AttackMode mode,
                        size_t shard = kAllShards) {
    return system_->ExecuteQuery(request, Tap(mode, shard));
  }
  Result<Outcome> Query(Key lo, Key hi, AttackMode mode,
                        size_t shard = kAllShards) {
    return Query(dbms::QueryRequest::Scan(lo, hi), mode, shard);
  }

 private:
  class ShardTap;

  System* system_;
  std::vector<std::unique_ptr<Adversary<Base>>> shards_;
  std::mutex mu_;
  std::map<std::pair<AttackMode, size_t>, std::unique_ptr<ShardTap>> taps_;
};

using ShardedSaeAdversary = ShardedAdversary<core::SaeSystem>;
using ShardedTomAdversary = ShardedAdversary<core::TomSystem>;

}  // namespace sae::adversary

#endif  // SAE_ADVERSARY_ADVERSARY_H_
