// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements SAE client verification (core/client.h): hash the SP's
// result, XOR, compare with the TE's token.

#include "core/client.h"

#include <random>
#include <utility>

#include "util/macros.h"

namespace sae::core {

crypto::Digest Client::ResultXor(const std::vector<Record>& results,
                                 const RecordCodec& codec,
                                 crypto::HashScheme scheme) {
  // The witness re-hash is the SAE client's dominant cost on cold queries;
  // DigestRecords batches it through the multi-buffer hash kernels.
  crypto::Digest acc;
  for (const crypto::Digest& d :
       storage::DigestRecords(results, codec, scheme)) {
    acc ^= d;
  }
  return acc;
}

Status Client::CompareXor(const crypto::Digest& computed,
                          const crypto::Digest& token_digest) {
  if (computed != token_digest) {
    return Status::VerificationFailure(
        "result XOR does not match the TE's verification token");
  }
  return Status::OK();
}

Status Client::VerifyAnswer(const dbms::QueryRequest& request,
                            const dbms::QueryAnswer& claimed,
                            const std::vector<Record>& witness,
                            const VerificationToken& vt,
                            uint64_t claimed_epoch, uint64_t published_epoch,
                            const RecordCodec& codec,
                            crypto::HashScheme scheme) {
  SAE_RETURN_NOT_OK(CheckFreshness(vt, claimed_epoch, published_epoch));
  SAE_RETURN_NOT_OK(CompareXor(ResultXor(witness, codec, scheme), vt.digest));
  SAE_RETURN_NOT_OK(CheckWitness(request, witness));
  return dbms::CheckAnswer(request, witness, claimed);
}

Status Client::CheckWitness(const dbms::QueryRequest& request,
                            const std::vector<Record>& witness) {
  // Ids go into an open-addressing set, O(n) without a sort. The hash
  // multiplier is drawn once per process, so an SP cannot pick ids that
  // all collide.
  static const uint64_t multiplier =
      (uint64_t(std::random_device{}()) << 32 | std::random_device{}()) | 1;
  int bits = 4;
  while ((size_t{1} << bits) < 2 * witness.size()) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<std::pair<bool, storage::RecordId>> seen(mask + 1);
  storage::Key prev = request.lo;
  for (const Record& record : witness) {
    if (record.key < request.lo || record.key > request.hi) {
      return Status::VerificationFailure(
          "witness record lies outside the queried range");
    }
    if (record.key < prev) {
      return Status::VerificationFailure("witness keys are out of order");
    }
    prev = record.key;
    size_t i = size_t((record.id * multiplier) >> (64 - bits));
    for (; seen[i].first; i = (i + 1) & mask) {
      if (seen[i].second == record.id) {
        return Status::VerificationFailure("witness repeats a record id");
      }
    }
    seen[i] = {true, record.id};
  }
  return Status::OK();
}

Status Client::CheckFreshness(const VerificationToken& vt,
                              uint64_t claimed_epoch,
                              uint64_t published_epoch) {
  if (vt.epoch < published_epoch) {
    return Status::StaleEpoch("verification token lags the published epoch");
  }
  if (vt.epoch > published_epoch) {
    return Status::VerificationFailure(
        "verification token claims a future epoch");
  }
  if (claimed_epoch < published_epoch) {
    return Status::StaleEpoch(
        "SP answered from a snapshot older than the published epoch");
  }
  if (claimed_epoch > published_epoch) {
    return Status::VerificationFailure("SP claims a future epoch");
  }
  return Status::OK();
}

}  // namespace sae::core
