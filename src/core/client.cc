// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements SAE client verification (core/client.h): hash the SP's
// result, XOR, compare with the TE's token.

#include "core/client.h"

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
  return dbms::CheckAnswer(request, witness, claimed);
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
