// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Epoch versioning for the update pipeline. The DO owns a monotonically
// increasing epoch counter: 0 before any data exists, 1 at the initial
// outsourcing, +1 per insert/delete. Every piece of authentication state a
// client consumes — the TE's verification token and the TOM root
// signature — is stamped with the epoch it speaks for, and verification
// rejects anything lagging the latest published epoch with
// StatusCode::kStaleEpoch. This is what defeats replay: a pre-update
// snapshot, however internally consistent, carries its old epoch.

#ifndef SAE_CORE_EPOCH_H_
#define SAE_CORE_EPOCH_H_

#include <cstdint>

#include "crypto/digest.h"

namespace sae::core {

/// The TE's reply to a verification request (paper §II, extended with the
/// epoch stamp): the XOR token plus the epoch of the TE state it reflects.
struct VerificationToken {
  uint64_t epoch = 0;
  crypto::Digest digest;

  friend bool operator==(const VerificationToken& a,
                         const VerificationToken& b) {
    return a.epoch == b.epoch && a.digest == b.digest;
  }
  friend bool operator!=(const VerificationToken& a,
                         const VerificationToken& b) {
    return !(a == b);
  }
};

}  // namespace sae::core

#endif  // SAE_CORE_EPOCH_H_
