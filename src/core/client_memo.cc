// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the client-side verification memos (core/client_memo.h).
// Invariant shared by both classes: the memo changes only WHERE a verdict
// is computed (replay of the client's own prior pure computation on a
// repeat of the same served bytes), never WHAT the verdict is — the
// cache-parity harness pins this bit-for-bit against the unmemoized client.

#include "core/client_memo.h"

#include <utility>

#include "core/tom.h"
#include "util/macros.h"

namespace sae::core {

// ---------------------------------------------------------------------------
// ServedAnswerMemo
// ---------------------------------------------------------------------------

size_t ServedAnswerMemo::RequestKeyHash::operator()(
    const dbms::QueryRequest& r) const {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(uint64_t(r.op));
  mix(r.lo);
  mix(r.hi);
  mix(r.limit);
  return size_t(h);
}

ServedAnswerMemo::ServedAnswerMemo(const AnswerCacheOptions& options)
    : options_(options) {}

namespace {

// The memo co-owns the buffer it verified, so the same address is the same
// immutable bytes. Anything else is compared byte for byte; the answer's
// epoch stamp is skipped, since the freshness gate checks it every call.
bool SameServedBytes(const CachedAnswer& a, const CachedAnswer& b) {
  return &a == &b || (a.proof_msg == b.proof_msg &&
                      SameAnswerUpToEpoch(a.answer_msg, b.answer_msg));
}

}  // namespace

bool ServedAnswerMemo::Lookup(
    const dbms::QueryRequest& request,
    const std::shared_ptr<const CachedAnswer>& served, Verdict* verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(request);
  if (it == map_.end() || !SameServedBytes(*it->second.served, *served)) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  if (it->second.served != served) it->second.served = served;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  *verdict = it->second.verdict;
  return true;
}

void ServedAnswerMemo::Insert(const dbms::QueryRequest& request,
                              std::shared_ptr<const CachedAnswer> served,
                              Verdict verdict, uint64_t published_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  // The check runs off the parties' lock, so a query that read an older
  // epoch can finish after another one has already expired that epoch.
  if (published_epoch < seen_epoch_) return;
  ++stats_.insertions;
  auto it = map_.find(request);
  if (it != map_.end()) {
    it->second.served = std::move(served);
    it->second.verdict = std::move(verdict);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(request);
  map_.emplace(request,
               Slot{std::move(served), std::move(verdict), lru_.begin()});
  while (map_.size() > options_.max_entries) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void ServedAnswerMemo::DropAllIfEpochMoved(uint64_t published_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (published_epoch <= seen_epoch_) return;
  seen_epoch_ = published_epoch;
  stats_.invalidations += map_.size();
  map_.clear();
  lru_.clear();
}

AnswerCacheStats ServedAnswerMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ServedAnswerMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

// ---------------------------------------------------------------------------
// SaeClientMemo
// ---------------------------------------------------------------------------

Result<VerifiedAnswer> SaeClientMemo::VerifyAnswer(
    const dbms::QueryRequest& request,
    const std::shared_ptr<const CachedAnswer>& served,
    const VerificationToken& vt, uint64_t published_epoch,
    const storage::RecordCodec& codec, crypto::HashScheme scheme) {
  // Decoded here, so the bytes memoized are the bytes verified.
  SAE_ASSIGN_OR_RETURN(QueryAnswerMessage received,
                       DeserializeQueryAnswer(served->answer_msg, codec));
  Status verification =
      Verify(request, served, received.answer, received.witness, vt,
             received.epoch, published_epoch, codec, scheme);
  return VerifiedAnswer{std::move(received), {}, std::move(verification)};
}

Status SaeClientMemo::VerifyAnswer(const dbms::QueryRequest& request,
                                   const dbms::QueryAnswer& claimed,
                                   const std::vector<storage::Record>& witness,
                                   const VerificationToken& vt,
                                   uint64_t claimed_epoch,
                                   uint64_t published_epoch,
                                   const storage::RecordCodec& codec,
                                   crypto::HashScheme scheme) {
  std::shared_ptr<const CachedAnswer> served;
  if (enabled()) {
    served = std::make_shared<const CachedAnswer>(CachedAnswer{
        SerializeQueryAnswer(claimed, witness, claimed_epoch, codec), {}});
  }
  return Verify(request, std::move(served), claimed, witness, vt,
                claimed_epoch, published_epoch, codec, scheme);
}

Status SaeClientMemo::Verify(const dbms::QueryRequest& request,
                             std::shared_ptr<const CachedAnswer> served,
                             const dbms::QueryAnswer& claimed,
                             const std::vector<storage::Record>& witness,
                             const VerificationToken& vt,
                             uint64_t claimed_epoch, uint64_t published_epoch,
                             const storage::RecordCodec& codec,
                             crypto::HashScheme scheme) {
  // The epoch gates always run fresh: they are the only part of the client
  // check that depends on live trusted state rather than the bytes alone.
  SAE_RETURN_NOT_OK(
      Client::CheckFreshness(vt, claimed_epoch, published_epoch));

  ServedAnswerMemo::Verdict memo;
  if (enabled() && memo_.Lookup(request, served, &memo)) {
    // A repeat of verified bytes: the memoized XOR *is* ResultXor(witness)
    // by determinism, so comparing it against the LIVE token digest gives
    // the same verdict a fresh re-hash would — including rejection when
    // an update moved the token for this range.
    SAE_RETURN_NOT_OK(Client::CompareXor(memo.xor_digest, vt.digest));
    return memo.status;
  }

  crypto::Digest xor_digest = Client::ResultXor(witness, codec, scheme);
  SAE_RETURN_NOT_OK(Client::CompareXor(xor_digest, vt.digest));
  Status answer_check = dbms::CheckAnswer(request, witness, claimed);
  if (enabled()) {
    // Memoize only token-matched responses: an XOR mismatch never reaches
    // here, so a poisoned response can't seed the memo.
    memo_.Insert(request, std::move(served), {xor_digest, answer_check},
                 published_epoch);
  }
  return answer_check;
}

// ---------------------------------------------------------------------------
// TomClientMemo
// ---------------------------------------------------------------------------

Result<VerifiedAnswer> TomClientMemo::VerifyAnswer(
    const dbms::QueryRequest& request,
    const std::shared_ptr<const CachedAnswer>& served,
    const crypto::RsaPublicKey& owner_key, const storage::RecordCodec& codec,
    crypto::HashScheme scheme, uint64_t published_epoch) {
  // Decoded here, so the bytes memoized are the bytes verified.
  VerifiedAnswer out;
  SAE_ASSIGN_OR_RETURN(out.received,
                       DeserializeQueryAnswer(served->answer_msg, codec));
  SAE_ASSIGN_OR_RETURN(
      out.vo, mbtree::VerificationObject::Deserialize(served->proof_msg));

  // The epoch gate always runs fresh against the live published epoch.
  out.verification = mbtree::CheckVoFreshness(out.vo, published_epoch);
  if (!out.verification.ok()) return out;

  ServedAnswerMemo::Verdict memo;
  if (enabled()) {
    // Every VO re-signs the epoch-stamped root, so entries from an older
    // epoch can never byte-match again — reclaim them eagerly.
    memo_.DropAllIfEpochMoved(published_epoch);
    if (memo_.Lookup(request, served, &memo)) {
      out.verification = memo.status;
      return out;
    }
  }

  // The gate just proved vo.epoch == published_epoch, so handing vo.epoch
  // to the full verifier makes its internal gate trivially true and what
  // remains is a pure function of (request, answer bytes, VO bytes) —
  // exactly the computation a repeat of those bytes may replay.
  out.verification = TomClient::VerifyAnswer(
      request, out.received.answer, out.received.witness, out.vo, owner_key,
      codec, scheme, out.vo.epoch);
  // Memoize only accepted responses, so a cheating SP's bytes never hold a
  // memo slot.
  if (enabled() && out.verification.ok()) {
    memo_.Insert(request, served, {{}, out.verification}, published_epoch);
  }
  return out;
}

}  // namespace sae::core
