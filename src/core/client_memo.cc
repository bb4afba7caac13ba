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

ServedAnswerMemo::ServedAnswerMemo(const AnswerCacheOptions& options)
    : options_(options),
      table_(options.max_entries),
      seen_(options.max_entries) {}

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
    const std::shared_ptr<const CachedAnswer>& served, Verdict* verdict,
    bool* admit) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot* slot = table_.Lookup(request, [&](const Slot& stored) {
    return SameServedBytes(*stored.served, *served);
  });
  if (slot == nullptr) {
    *admit = seen_.RecordMiss(request);
    if (!*admit) table_.CountDeclined();
    return false;
  }
  if (slot->served != served) slot->served = served;
  *verdict = slot->verdict;
  return true;
}

void ServedAnswerMemo::Insert(const dbms::QueryRequest& request,
                              std::shared_ptr<const CachedAnswer> served,
                              Verdict verdict, uint64_t published_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  // The check runs off the parties' lock, so a query that read an older
  // epoch can finish after another one has already expired that epoch.
  if (published_epoch < seen_epoch_) {
    table_.CountDeclined();
    return;
  }
  table_.Insert(request, Slot{std::move(served), verdict});
}

void ServedAnswerMemo::Decline() {
  std::lock_guard<std::mutex> lock(mu_);
  table_.CountDeclined();
}

void ServedAnswerMemo::DropAllIfEpochMoved(uint64_t published_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (published_epoch <= seen_epoch_) return;
  seen_epoch_ = published_epoch;
  table_.Clear();
}

AnswerCacheStats ServedAnswerMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.stats();
}

size_t ServedAnswerMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

// ---------------------------------------------------------------------------
// SaeClientMemo
// ---------------------------------------------------------------------------

Result<VerifiedAnswer> SaeClientMemo::VerifyAnswer(
    const dbms::QueryRequest& request,
    const std::shared_ptr<const CachedAnswer>& served,
    const VerificationToken& vt, uint64_t published_epoch,
    const storage::RecordCodec& codec, crypto::HashScheme scheme) {
  // Decoded here, in place, so the bytes memoized are the bytes verified.
  SAE_ASSIGN_OR_RETURN(QueryAnswerMessage received,
                       DeserializeQueryAnswer(AnswerBytesOf(served), codec));
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
  bool admit = false;
  if (enabled() && memo_.Lookup(request, served, &memo, &admit)) {
    // A repeat of accepted bytes: its witness XOR *is* the digest it
    // matched, by determinism, and its witness and answer checks passed.
    // Comparing that digest against the LIVE token gives the verdict a
    // fresh check would — including rejection when an update moved the
    // token for this range.
    return Client::CompareXor(memo.token_digest, vt.digest);
  }

  Status verdict = Client::VerifyAnswer(request, claimed, witness, vt,
                                        claimed_epoch, published_epoch,
                                        codec, scheme);
  if (admit) {
    if (verdict.ok()) {
      memo_.Insert(request, std::move(served), {vt.digest}, published_epoch);
    } else {
      memo_.Decline();
    }
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// TomClientMemo
// ---------------------------------------------------------------------------

Result<VerifiedAnswer> TomClientMemo::VerifyAnswer(
    const dbms::QueryRequest& request,
    const std::shared_ptr<const CachedAnswer>& served,
    const crypto::RsaPublicKey& owner_key, const storage::RecordCodec& codec,
    crypto::HashScheme scheme, uint64_t published_epoch) {
  // Decoded here, in place, so the bytes memoized are the bytes verified.
  VerifiedAnswer out;
  SAE_ASSIGN_OR_RETURN(out.received,
                       DeserializeQueryAnswer(AnswerBytesOf(served), codec));
  SAE_ASSIGN_OR_RETURN(
      out.vo, mbtree::VerificationObject::Deserialize(served->proof_msg));

  // The epoch gate always runs fresh against the live published epoch.
  out.verification = mbtree::CheckVoFreshness(out.vo, published_epoch);
  if (!out.verification.ok()) return out;

  ServedAnswerMemo::Verdict memo;
  bool admit = false;
  if (enabled()) {
    // Every VO re-signs the epoch-stamped root, so entries from an older
    // epoch can never byte-match again — reclaim them eagerly.
    memo_.DropAllIfEpochMoved(published_epoch);
    // Only accepted answers are kept: a hit passed the gate just now and
    // everything else before.
    if (memo_.Lookup(request, served, &memo, &admit)) return out;
  }

  // The gate just proved vo.epoch == published_epoch, so handing vo.epoch
  // to the full verifier makes its internal gate trivially true and what
  // remains is a pure function of (request, answer bytes, VO bytes) —
  // exactly the computation a repeat of those bytes may replay.
  out.verification = TomClient::VerifyAnswer(
      request, out.received.answer, out.received.witness, out.vo, owner_key,
      codec, scheme, out.vo.epoch);
  if (admit) {
    if (out.verification.ok()) {
      memo_.Insert(request, served, {}, published_epoch);
    } else {
      memo_.Decline();
    }
  }
  return out;
}

}  // namespace sae::core
