// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements signature chaining (sigchain/sig_chain.h): per-record chain
// hashes binding key-order neighbours, RSA-signed by the data owner, with
// range-query proofs and client verification.

#include "sigchain/sig_chain.h"

#include <algorithm>

#include "util/macros.h"
#include "util/random.h"

namespace sae::sigchain {

namespace {

constexpr uint8_t kVoTag = 0xC5;

// EMSA-PKCS1 digest encoding as an integer modulo n — shared by signing
// (via crypto::RsaSignDigest) and condensed verification. Mirrors the
// encoding in crypto/rsa.cc.
crypto::BigInt EncodedMessage(const crypto::Digest& digest,
                              const crypto::RsaPublicKey& key) {
  // Sign a throwaway to reuse the exact EMSA layout would be wasteful;
  // replicate the deterministic prefix here instead.
  static constexpr uint8_t kPrefix[] = {0x30, 0x21, 0x30, 0x09, 0x06,
                                        0x05, 0x2b, 0x0e, 0x03, 0x02,
                                        0x1a, 0x05, 0x00, 0x04, 0x14};
  size_t k = key.ModulusBytes();
  std::vector<uint8_t> em(k, 0xff);
  const size_t t_len = sizeof(kPrefix) + crypto::Digest::kSize;
  SAE_CHECK(k >= t_len + 11);
  em[0] = 0x00;
  em[1] = 0x01;
  em[k - t_len - 1] = 0x00;
  std::memcpy(&em[k - t_len], kPrefix, sizeof(kPrefix));
  std::memcpy(&em[k - crypto::Digest::kSize], digest.bytes.data(),
              crypto::Digest::kSize);
  return crypto::BigInt::FromBytes(em.data(), em.size());
}

}  // namespace

crypto::Digest LowSentinel() {
  crypto::Digest d;
  d.bytes.fill(0x00);
  return d;
}

crypto::Digest HighSentinel() {
  crypto::Digest d;
  d.bytes.fill(0xFF);
  return d;
}

crypto::Digest ChainDigest(const crypto::Digest& prev,
                           const crypto::Digest& cur,
                           const crypto::Digest& next,
                           crypto::HashScheme scheme) {
  crypto::Digest parts[3] = {prev, cur, next};
  return crypto::CombineDigests(parts, 3, scheme);
}

std::vector<crypto::Digest> ChainDigests(
    const std::vector<crypto::Digest>& ds, crypto::HashScheme scheme) {
  if (ds.size() < 3) return {};
  const size_t n = ds.size() - 2;
  std::vector<crypto::ByteSpan> spans(n);
  for (size_t i = 0; i < n; ++i) {
    spans[i] = crypto::ByteSpan{ds[i].bytes.data(), 3 * crypto::Digest::kSize};
  }
  std::vector<crypto::Digest> out(n);
  crypto::ComputeDigests(spans.data(), n, out.data(), scheme);
  return out;
}

crypto::RsaSignature CondenseSignatures(
    const std::vector<crypto::RsaSignature>& sigs,
    const crypto::RsaPublicKey& key) {
  const crypto::Montgomery mont(key.n);
  if (mont.usable()) {
    crypto::Montgomery::Value acc = mont.One();
    for (const auto& sig : sigs) {
      crypto::Montgomery::Value s =
          mont.ToMont(crypto::BigInt::FromBytes(sig.data(), sig.size()));
      mont.MulInPlace(&acc, s);
    }
    return mont.FromMont(acc).ToBytes(key.ModulusBytes());
  }
  crypto::BigInt acc(1);
  for (const auto& sig : sigs) {
    crypto::BigInt s = crypto::BigInt::FromBytes(sig.data(), sig.size());
    acc = crypto::BigInt::Mod(crypto::BigInt::Mul(acc, s), key.n);
  }
  return acc.ToBytes(key.ModulusBytes());
}

Status VerifyCondensed(const crypto::RsaPublicKey& key,
                       const std::vector<crypto::Digest>& chain_digests,
                       const crypto::RsaSignature& condensed) {
  if (condensed.size() != key.ModulusBytes()) {
    return Status::VerificationFailure("condensed signature length");
  }
  crypto::BigInt sigma =
      crypto::BigInt::FromBytes(condensed.data(), condensed.size());
  if (sigma >= key.n) {
    return Status::VerificationFailure("condensed signature out of range");
  }
  crypto::BigInt lhs = crypto::BigInt::ModPow(sigma, key.e, key.n);
  crypto::BigInt rhs(1);
  const crypto::Montgomery mont(key.n);
  if (mont.usable()) {
    crypto::Montgomery::Value acc = mont.One();
    for (const auto& digest : chain_digests) {
      crypto::Montgomery::Value em = mont.ToMont(EncodedMessage(digest, key));
      mont.MulInPlace(&acc, em);
    }
    rhs = mont.FromMont(acc);
  } else {
    for (const auto& digest : chain_digests) {
      rhs = crypto::BigInt::Mod(
          crypto::BigInt::Mul(rhs, EncodedMessage(digest, key)), key.n);
    }
  }
  if (lhs != rhs) {
    return Status::VerificationFailure("condensed signature mismatch");
  }
  return Status::OK();
}

std::vector<uint8_t> SigChainVo::Serialize() const {
  ByteWriter w;
  w.PutU8(kVoTag);
  w.PutU32(uint32_t(left_boundary.size()));
  w.PutBytes(left_boundary.data(), left_boundary.size());
  w.PutU32(uint32_t(right_boundary.size()));
  w.PutBytes(right_boundary.data(), right_boundary.size());
  w.PutBytes(outer_left.bytes.data(), crypto::Digest::kSize);
  w.PutBytes(outer_right.bytes.data(), crypto::Digest::kSize);
  w.PutU16(uint16_t(condensed.size()));
  w.PutBytes(condensed.data(), condensed.size());
  w.PutU64(epoch);
  w.PutU16(uint16_t(epoch_sig.size()));
  w.PutBytes(epoch_sig.data(), epoch_sig.size());
  return w.Release();
}

Result<SigChainVo> SigChainVo::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.GetU8() != kVoTag) {
    return Status::Corruption("not a sig-chain VO");
  }
  SigChainVo vo;
  uint32_t left_len = r.GetU32();
  if (left_len > (1u << 20) || r.remaining() < left_len) {
    return Status::Corruption("sig-chain VO: bad left boundary");
  }
  vo.left_boundary.resize(left_len);
  r.GetBytes(vo.left_boundary.data(), left_len);
  uint32_t right_len = r.GetU32();
  if (right_len > (1u << 20) || r.remaining() < right_len) {
    return Status::Corruption("sig-chain VO: bad right boundary");
  }
  vo.right_boundary.resize(right_len);
  r.GetBytes(vo.right_boundary.data(), right_len);
  r.GetBytes(vo.outer_left.bytes.data(), crypto::Digest::kSize);
  r.GetBytes(vo.outer_right.bytes.data(), crypto::Digest::kSize);
  uint16_t sig_len = r.GetU16();
  vo.condensed.resize(sig_len);
  r.GetBytes(vo.condensed.data(), sig_len);
  vo.epoch = r.GetU64();
  uint16_t epoch_sig_len = r.GetU16();
  if (r.failed()) return Status::Corruption("sig-chain VO truncated");
  vo.epoch_sig.resize(epoch_sig_len);
  r.GetBytes(vo.epoch_sig.data(), epoch_sig_len);
  if (r.failed()) return Status::Corruption("sig-chain VO truncated");
  return vo;
}

crypto::Digest EpochTokenDigest(uint64_t epoch, crypto::HashScheme scheme) {
  // Domain separation: stamp the epoch onto H("sigchain-epoch") so the
  // token can never collide with a chain digest.
  static constexpr char kDomain[] = "sigchain-epoch";
  crypto::Digest base =
      crypto::ComputeDigest(kDomain, sizeof(kDomain) - 1, scheme);
  return crypto::EpochStampedDigest(base, epoch, scheme);
}

// --- owner ---------------------------------------------------------------------

SigChainOwner::SigChainOwner(const Options& options)
    : options_(options), codec_(options.record_size) {
  Rng rng(options_.rsa_seed);
  key_ = crypto::RsaGenerateKey(&rng, options_.rsa_modulus_bits);
}

Result<std::vector<crypto::RsaSignature>> SigChainOwner::SignDataset(
    const std::vector<Record>& sorted) {
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].key > sorted[i].key) {
      return Status::InvalidArgument("records not sorted by key");
    }
  }
  // Record digests bracketed by the sentinels, then every chain hash in
  // one batched call (the signing below dwarfs it, but at bulk-load scale
  // the chain hashing alone is millions of records).
  std::vector<crypto::Digest> ds;
  ds.reserve(sorted.size() + 2);
  ds.push_back(LowSentinel());
  {
    std::vector<crypto::Digest> digests =
        storage::DigestRecords(sorted, codec_, options_.scheme);
    ds.insert(ds.end(), digests.begin(), digests.end());
  }
  ds.push_back(HighSentinel());
  std::vector<crypto::Digest> chain = ChainDigests(ds, options_.scheme);

  std::vector<crypto::RsaSignature> sigs;
  sigs.reserve(sorted.size());
  for (const crypto::Digest& c : chain) {
    sigs.push_back(crypto::RsaSignDigest(key_, c));
  }
  epoch_ = 1;  // the initial signing publishes epoch 1
  epoch_sig_ =
      crypto::RsaSignDigest(key_, EpochTokenDigest(epoch_, options_.scheme));
  return sigs;
}

uint64_t SigChainOwner::AdvanceEpoch() {
  ++epoch_;
  epoch_sig_ =
      crypto::RsaSignDigest(key_, EpochTokenDigest(epoch_, options_.scheme));
  return epoch_;
}

// --- SP ------------------------------------------------------------------------

SigChainSp::SigChainSp(const Options& options)
    : options_(options),
      codec_(options.record_size),
      index_pool_(&index_store_, options.index_pool_pages),
      heap_pool_(&heap_store_, options.heap_pool_pages),
      table_heap_(&heap_pool_, options.record_size),
      sig_heap_(&heap_pool_, std::max<size_t>(options.signature_bytes, 22)) {
  auto tree = btree::BPlusTree::Create(&index_pool_);
  SAE_CHECK(tree.ok());
  index_ = std::move(tree).ValueOrDie();
}

Status SigChainSp::LoadDataset(
    const std::vector<Record>& sorted,
    const std::vector<crypto::RsaSignature>& signatures,
    const crypto::RsaPublicKey& owner_key) {
  if (sorted.size() != signatures.size()) {
    return Status::InvalidArgument("record/signature count mismatch");
  }
  owner_key_ = owner_key;
  std::vector<uint8_t> scratch(codec_.record_size());
  std::vector<btree::BTreeEntry> postings;
  postings.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    codec_.Serialize(sorted[i], scratch.data());
    SAE_ASSIGN_OR_RETURN(storage::Rid rid, table_heap_.Insert(scratch.data()));
    record_rids_.push_back(rid);
    keys_.push_back(sorted[i].key);
    postings.push_back(btree::BTreeEntry{sorted[i].key, rid});

    if (signatures[i].size() != sig_heap_.record_size()) {
      return Status::InvalidArgument("signature size mismatch");
    }
    SAE_ASSIGN_OR_RETURN(storage::Rid sig_rid,
                         sig_heap_.Insert(signatures[i].data()));
    sig_rids_.push_back(sig_rid);
  }
  return index_->BulkLoad(postings);
}

Result<Record> SigChainSp::RecordAt(size_t ordinal) const {
  std::vector<uint8_t> bytes(codec_.record_size());
  SAE_RETURN_NOT_OK(table_heap_.Get(record_rids_[ordinal], bytes.data()));
  return codec_.Deserialize(bytes.data());
}

Result<crypto::RsaSignature> SigChainSp::SignatureAt(size_t ordinal) const {
  crypto::RsaSignature sig(sig_heap_.record_size());
  SAE_RETURN_NOT_OK(sig_heap_.Get(sig_rids_[ordinal], sig.data()));
  return sig;
}

Result<crypto::Digest> SigChainSp::DigestAt(size_t ordinal) const {
  std::vector<uint8_t> bytes(codec_.record_size());
  SAE_RETURN_NOT_OK(table_heap_.Get(record_rids_[ordinal], bytes.data()));
  return crypto::ComputeDigest(bytes.data(), bytes.size(), options_.scheme);
}

Result<SigChainSp::QueryResponse> SigChainSp::ExecuteRange(Key lo, Key hi) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  QueryResponse response;
  size_t n = keys_.size();

  size_t first = std::lower_bound(keys_.begin(), keys_.end(), lo) -
                 keys_.begin();
  size_t last_plus = std::upper_bound(keys_.begin(), keys_.end(), hi) -
                     keys_.begin();  // one past the last result

  // Result records via the index path (for realistic access accounting).
  std::vector<btree::BTreeEntry> postings;
  SAE_RETURN_NOT_OK(index_->RangeSearch(lo, hi, &postings));
  std::vector<storage::Rid> rids;
  for (const auto& p : postings) rids.push_back(p.rid);
  SAE_RETURN_NOT_OK(
      table_heap_.GetMany(rids, [&](size_t, const uint8_t* data) {
        response.results.push_back(codec_.Deserialize(data));
      }));

  // Signed span: boundaries included when they exist.
  size_t span_begin = first == 0 ? 0 : first - 1;
  size_t span_end = last_plus >= n ? (n == 0 ? 0 : n - 1) : last_plus;

  if (n == 0) {
    response.vo.outer_left = LowSentinel();
    response.vo.outer_right = HighSentinel();
    return response;  // empty table: nothing signed, client sees 0 results
  }

  if (first > 0) {
    SAE_ASSIGN_OR_RETURN(Record b, RecordAt(first - 1));
    response.vo.left_boundary = codec_.Serialize(b);
  }
  if (last_plus < n) {
    SAE_ASSIGN_OR_RETURN(Record b, RecordAt(last_plus));
    response.vo.right_boundary = codec_.Serialize(b);
  }
  if (span_begin == 0) {
    response.vo.outer_left = LowSentinel();
  } else {
    SAE_ASSIGN_OR_RETURN(response.vo.outer_left, DigestAt(span_begin - 1));
  }
  if (span_end + 1 >= n) {
    response.vo.outer_right = HighSentinel();
  } else {
    SAE_ASSIGN_OR_RETURN(response.vo.outer_right, DigestAt(span_end + 1));
  }

  std::vector<crypto::RsaSignature> sigs;
  sigs.reserve(span_end - span_begin + 1);
  for (size_t i = span_begin; i <= span_end; ++i) {
    SAE_ASSIGN_OR_RETURN(crypto::RsaSignature sig, SignatureAt(i));
    sigs.push_back(std::move(sig));
  }
  response.vo.condensed = CondenseSignatures(sigs, owner_key_);
  response.vo.epoch = epoch_;
  response.vo.epoch_sig = epoch_sig_;
  return response;
}

// --- client ----------------------------------------------------------------------

namespace {

// Everything in SigChainClient::Verify except RSA: the freshness epoch
// comparison, range/order/boundary structure, and the chain-digest
// reconstruction. On OK fills `chain` with the signed chain digests (empty
// means an empty table — nothing signed, nothing left to check). Split out
// so VerifyBatch can run the cheap checks per item and amortize the
// big-number work across the batch.
Status CheckStructure(Key lo, Key hi, const std::vector<Record>& results,
                      const SigChainVo& vo, const RecordCodec& codec,
                      crypto::HashScheme scheme,
                      std::vector<crypto::Digest>* chain) {
  chain->clear();

  // 1. Results sorted and in range.
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].key < lo || results[i].key > hi) {
      return Status::VerificationFailure("result outside query range");
    }
    if (i > 0 && results[i - 1].key > results[i].key) {
      return Status::VerificationFailure("results out of key order");
    }
  }

  // 2. Boundary checks.
  bool has_left = !vo.left_boundary.empty();
  bool has_right = !vo.right_boundary.empty();
  if (has_left && vo.left_boundary.size() != codec.record_size()) {
    return Status::VerificationFailure("bad left boundary size");
  }
  if (has_right && vo.right_boundary.size() != codec.record_size()) {
    return Status::VerificationFailure("bad right boundary size");
  }
  if (has_left && codec.Deserialize(vo.left_boundary.data()).key >= lo) {
    return Status::VerificationFailure("left boundary not below range");
  }
  if (has_right && codec.Deserialize(vo.right_boundary.data()).key <= hi) {
    return Status::VerificationFailure("right boundary not above range");
  }
  // When the result touches a table edge the outer digest must be the
  // sentinel — otherwise the SP could truncate the table.
  if (!has_left && vo.outer_left != LowSentinel()) {
    return Status::VerificationFailure("missing left boundary");
  }
  if (!has_right && vo.outer_right != HighSentinel()) {
    return Status::VerificationFailure("missing right boundary");
  }

  // 3. Rebuild the digest sequence outer_left .. outer_right, batching the
  // result re-hash through the multi-buffer hash kernels.
  std::vector<crypto::Digest> result_digests =
      storage::DigestRecords(results, codec, scheme);
  std::vector<crypto::Digest> ds;
  ds.reserve(results.size() + 4);
  ds.push_back(vo.outer_left);
  if (has_left) {
    ds.push_back(crypto::ComputeDigest(vo.left_boundary.data(),
                                       vo.left_boundary.size(), scheme));
  }
  ds.insert(ds.end(), result_digests.begin(), result_digests.end());
  if (has_right) {
    ds.push_back(crypto::ComputeDigest(vo.right_boundary.data(),
                                       vo.right_boundary.size(), scheme));
  }
  ds.push_back(vo.outer_right);

  if (ds.size() < 3) {
    // Empty result at both table edges: an empty table. Nothing signed.
    return results.empty()
               ? Status::OK()
               : Status::VerificationFailure("results from an empty table");
  }

  // 4. Chain hashes for every signed position — one batched hash call over
  // 60-byte windows into the rebuilt sequence.
  *chain = ChainDigests(ds, scheme);
  return Status::OK();
}

// The freshness gate shared by Verify and VerifyBatch: the epoch token must
// speak for the latest published epoch. The RSA token check itself is left
// to the caller (VerifyBatch memoizes it per distinct token).
Status CheckEpochClaim(const SigChainVo& vo, uint64_t current_epoch) {
  if (vo.epoch < current_epoch) {
    return Status::StaleEpoch("sig-chain VO epoch lags the published epoch");
  }
  if (vo.epoch > current_epoch) {
    return Status::VerificationFailure("sig-chain VO claims a future epoch");
  }
  return Status::OK();
}

Status VerifyEpochToken(const crypto::RsaPublicKey& owner_key,
                        const SigChainVo& vo, crypto::HashScheme scheme) {
  Status token_ok = crypto::RsaVerifyDigest(
      owner_key, EpochTokenDigest(vo.epoch, scheme), vo.epoch_sig);
  if (!token_ok.ok()) {
    return Status::VerificationFailure(
        "sig-chain VO epoch token signature invalid");
  }
  return Status::OK();
}

}  // namespace

Status SigChainClient::Verify(Key lo, Key hi,
                              const std::vector<Record>& results,
                              const SigChainVo& vo,
                              const crypto::RsaPublicKey& owner_key,
                              const RecordCodec& codec,
                              crypto::HashScheme scheme,
                              uint64_t current_epoch) {
  // 0. Freshness gate, checked before everything else so a replayed
  // pre-update VO reports as staleness.
  SAE_RETURN_NOT_OK(CheckEpochClaim(vo, current_epoch));
  if (current_epoch > 0) {
    SAE_RETURN_NOT_OK(VerifyEpochToken(owner_key, vo, scheme));
  }
  std::vector<crypto::Digest> chain;
  SAE_RETURN_NOT_OK(
      CheckStructure(lo, hi, results, vo, codec, scheme, &chain));
  if (chain.empty()) return Status::OK();  // empty table: nothing signed
  return VerifyCondensed(owner_key, chain, vo.condensed);
}

Status SigChainClient::VerifyAnswer(const dbms::QueryRequest& request,
                                    const dbms::QueryAnswer& claimed,
                                    const std::vector<Record>& witness,
                                    const SigChainVo& vo,
                                    const crypto::RsaPublicKey& owner_key,
                                    const RecordCodec& codec,
                                    crypto::HashScheme scheme,
                                    uint64_t current_epoch) {
  SAE_RETURN_NOT_OK(Verify(request.lo, request.hi, witness, vo, owner_key,
                           codec, scheme, current_epoch));
  return dbms::CheckAnswer(request, witness, claimed);
}

std::vector<Status> SigChainClient::VerifyBatch(
    const std::vector<BatchItem>& items,
    const crypto::RsaPublicKey& owner_key, const RecordCodec& codec,
    crypto::HashScheme scheme, uint64_t current_epoch, uint64_t rng_seed) {
  std::vector<Status> verdicts(items.size(), Status::OK());

  // Phase 1 — per-item cheap checks. Items that survive queue their chain
  // digests for the amortized big-number phase.
  struct Pending {
    size_t index;
    std::vector<crypto::Digest> chain;
  };
  std::vector<Pending> pending;
  pending.reserve(items.size());
  // Epoch-token memo: one RsaVerifyDigest per distinct token signature
  // (vo.epoch already proven == current_epoch by the claim check, so the
  // signature bytes alone key the memo).
  std::map<crypto::RsaSignature, Status> token_memo;
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    Status st = CheckEpochClaim(item.vo, current_epoch);
    if (st.ok() && current_epoch > 0) {
      auto memo = token_memo.find(item.vo.epoch_sig);
      if (memo == token_memo.end()) {
        memo = token_memo
                   .emplace(item.vo.epoch_sig,
                            VerifyEpochToken(owner_key, item.vo, scheme))
                   .first;
      }
      st = memo->second;
    }
    std::vector<crypto::Digest> chain;
    if (st.ok()) {
      st = CheckStructure(item.request.lo, item.request.hi, item.witness,
                          item.vo, codec, scheme, &chain);
    }
    if (st.ok()) {
      st = dbms::CheckAnswer(item.request, item.witness, item.claimed);
    }
    if (!st.ok()) {
      verdicts[i] = std::move(st);
    } else if (!chain.empty()) {
      pending.push_back(Pending{i, std::move(chain)});
    }  // empty chain = empty table: nothing signed, verdict stays OK
  }
  if (pending.empty()) return verdicts;

  // Measured crossover (bench_micro_crypto batch-verify sweep): the
  // combined check below pays fixed costs — 2x17 shared squarings plus one
  // public-exponent modexp over the combination — that one or two items
  // cannot reliably amortize (two items measure within noise of per-item).
  // Below the crossover, per-item verification is simply the faster plan,
  // so take it directly (identical verdicts either way).
  constexpr size_t kCombinedCheckMinItems = 3;
  if (pending.size() < kCombinedCheckMinItems) {
    for (const Pending& p : pending) {
      verdicts[p.index] =
          VerifyCondensed(owner_key, p.chain, items[p.index].vo.condensed);
    }
    return verdicts;
  }

  // Phase 2 — randomized combined condensed check: with fresh 16-bit
  // exponents r_i, (prod sigma_i^{r_i})^e == prod M_i^{r_i} (mod n) where
  // M_i is the product of the item's encoded chain messages. One modexp
  // with the public exponent replaces one per item, and the two r_i-power
  // products are computed with shared squarings (Straus interleaving:
  // 16 squarings total + ~8 multiplies per item, instead of a full modexp
  // per item). All products run in one Montgomery context when the modulus
  // admits it — one CIOS multiply each instead of a full division, the
  // same arithmetic ModPow itself uses — with the division fold kept as
  // the fallback (and the SAE_FORCE_SCALAR parity path).
  Rng rng(rng_seed);
  const crypto::Montgomery mont(owner_key.n);
  std::vector<crypto::BigInt> sigmas;
  std::vector<crypto::BigInt> msgs;
  std::vector<crypto::Montgomery::Value> sigmas_m;
  std::vector<crypto::Montgomery::Value> msgs_m;
  std::vector<uint32_t> exps;
  std::vector<Pending> combinable;
  combinable.reserve(pending.size());
  for (Pending& p : pending) {
    const SigChainVo& vo = items[p.index].vo;
    // Malformed signatures fail their own check immediately; folding them
    // in would only poison the combination.
    if (vo.condensed.size() != owner_key.ModulusBytes()) {
      verdicts[p.index] =
          Status::VerificationFailure("condensed signature length");
      continue;
    }
    crypto::BigInt sigma =
        crypto::BigInt::FromBytes(vo.condensed.data(), vo.condensed.size());
    if (sigma >= owner_key.n) {
      verdicts[p.index] =
          Status::VerificationFailure("condensed signature out of range");
      continue;
    }
    if (mont.usable()) {
      crypto::Montgomery::Value msg = mont.One();
      for (const crypto::Digest& digest : p.chain) {
        crypto::Montgomery::Value em =
            mont.ToMont(EncodedMessage(digest, owner_key));
        mont.MulInPlace(&msg, em);
      }
      sigmas_m.push_back(mont.ToMont(sigma));
      msgs_m.push_back(std::move(msg));
    } else {
      crypto::BigInt msg(1);
      for (const crypto::Digest& digest : p.chain) {
        msg = crypto::BigInt::Mod(
            crypto::BigInt::Mul(msg, EncodedMessage(digest, owner_key)),
            owner_key.n);
      }
      sigmas.push_back(std::move(sigma));
      msgs.push_back(std::move(msg));
    }
    exps.push_back(uint32_t(1 + (rng.Next() & 0xFFFF)));
    combinable.push_back(std::move(p));
  }
  if (combinable.empty()) return verdicts;
  auto multi_exp = [&owner_key](const std::vector<crypto::BigInt>& bases,
                                const std::vector<uint32_t>& exponents) {
    crypto::BigInt acc(1);
    for (int bit = 16; bit >= 0; --bit) {  // exponents are <= 2^16
      acc = crypto::BigInt::Mod(crypto::BigInt::Mul(acc, acc), owner_key.n);
      for (size_t i = 0; i < bases.size(); ++i) {
        if ((exponents[i] >> bit) & 1u) {
          acc = crypto::BigInt::Mod(crypto::BigInt::Mul(acc, bases[i]),
                                    owner_key.n);
        }
      }
    }
    return acc;
  };
  auto multi_exp_mont =
      [&mont](const std::vector<crypto::Montgomery::Value>& bases,
              const std::vector<uint32_t>& exponents) {
        crypto::Montgomery::Value acc = mont.One();
        for (int bit = 16; bit >= 0; --bit) {  // exponents are <= 2^16
          mont.MulInPlace(&acc, acc);
          for (size_t i = 0; i < bases.size(); ++i) {
            if ((exponents[i] >> bit) & 1u) {
              mont.MulInPlace(&acc, bases[i]);
            }
          }
        }
        return acc;
      };
  crypto::BigInt combined_sigma = mont.usable()
                                      ? mont.FromMont(multi_exp_mont(sigmas_m, exps))
                                      : multi_exp(sigmas, exps);
  crypto::BigInt combined_msg = mont.usable()
                                    ? mont.FromMont(multi_exp_mont(msgs_m, exps))
                                    : multi_exp(msgs, exps);
  if (crypto::BigInt::ModPow(combined_sigma, owner_key.e, owner_key.n) ==
      combined_msg) {
    return verdicts;  // whole batch accepted by the combined check
  }
  // Phase 3 — the combination failed: re-check each item on its own so the
  // verdicts attribute the exact offenders (identical to unbatched).
  for (const Pending& p : combinable) {
    verdicts[p.index] =
        VerifyCondensed(owner_key, p.chain, items[p.index].vo.condensed);
  }
  return verdicts;
}

}  // namespace sae::sigchain
