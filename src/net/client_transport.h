// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Client side of the serving tier: a pooled blocking transport, the one
// exchange every networked round trip runs through, and networked
// counterparts of the in-process Client/TomClient call shapes.
//
// An exchange leases one socket per party, writes every request, then
// reads every response — so the SAE client's SP, TE and owner round trips
// overlap exactly as in the paper's parallel fan-out (Fig. 2), with plain
// blocking sockets. Its sockets go back to their pools only once every
// response was read, so a pooled socket never holds an unread response
// that a later query would take for its own. Every answer that reaches
// the caller has already passed the full client-side verification
// (XOR/VO check, freshness gates, answer recomputation); a tampered or
// stale response surfaces as the corresponding Status, never as data.

#ifndef SAE_NET_CLIENT_TRANSPORT_H_
#define SAE_NET_CLIENT_TRANSPORT_H_

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/epoch.h"
#include "core/tom.h"
#include "crypto/rsa.h"
#include "dbms/query.h"
#include "net/socket.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::net {

using storage::Record;
using storage::RecordCodec;

class ClientTransport;

/// One leg of an Exchange: `request` for `transport`'s endpoint, answered
/// with `frames` response frames — or with one lone error frame, after
/// which the server sends nothing more.
struct ExchangeLeg {
  ClientTransport* transport;
  const std::vector<uint8_t>& request;
  size_t frames = 1;
};

/// The response frames of one leg, in order.
using Frames = std::vector<std::vector<uint8_t>>;

/// Runs one round trip per leg: leases a connection per leg, writes every
/// request before it reads any response (the legs overlap on the wire),
/// then reads each leg's frames in leg order. Error frames come back as
/// frames; the caller decides what they mean. The connections go back to
/// their pools only when every leg was read to its end; any failed dial,
/// send or receive closes all of them, so no pooled socket ever holds an
/// unread response.
Result<std::vector<Frames>> Exchange(std::initializer_list<ExchangeLeg> legs);

/// A pool of blocking connections to one endpoint. Only Exchange returns a
/// connection to it; the pool keeps at most 64 idle sockets. Thread-safe;
/// many threads can run exchanges on one transport concurrently.
class ClientTransport {
 public:
  explicit ClientTransport(Endpoint endpoint)
      : endpoint_(std::move(endpoint)) {}

  ClientTransport(const ClientTransport&) = delete;
  ClientTransport& operator=(const ClientTransport&) = delete;

  /// One connection taken from the pool. It never returns itself: a lease
  /// dropped outside Exchange closes its socket.
  class Lease {
   public:
    /// Writes one frame (blocking).
    Status Send(const std::vector<uint8_t>& payload);

    /// Reads the next complete frame (blocking).
    Result<std::vector<uint8_t>> Recv();

   private:
    friend class ClientTransport;
    explicit Lease(int fd) : fd_(fd) {}

    UniqueFd fd_;
    FrameDecoder decoder_;
  };

  /// Leases a pooled connection, dialing a new one when the pool is empty.
  Result<Lease> Acquire();

  /// One request -> one response: an Exchange of one leg. The response may
  /// be an error frame (kCtlError) — see ExpectAck/CheckFrame.
  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& payload);

 private:
  friend Result<std::vector<Frames>> Exchange(
      std::initializer_list<ExchangeLeg> legs);

  /// Pools a connection whose responses were all read.
  void Release(Lease lease);

  Endpoint endpoint_;
  std::mutex mu_;
  std::vector<Lease> idle_;
};

/// Rejects error frames: OK for any non-error payload, the carried message
/// as a Status otherwise.
Status CheckFrame(const std::vector<uint8_t>& payload);

/// For control/update ops: OK iff the payload is the 1-byte ack.
Status ExpectAck(const std::vector<uint8_t>& payload);

/// Sends one frame and requires an ack back — the DO's shipping primitive
/// for Records / EpochNotice / Delete / Signature frames.
Status CallExpectAck(ClientTransport* transport,
                     const std::vector<uint8_t>& payload);

/// Asks a party's control endpoint for its current epoch.
Result<uint64_t> FetchEpoch(ClientTransport* transport);

/// A fully verified SAE answer as the networked client returns it.
struct NetVerifiedAnswer {
  dbms::QueryAnswer answer;
  std::vector<Record> witness;
  core::VerificationToken vt;
  uint64_t claimed_epoch = 0;    ///< the SP's stamp on the answer
  uint64_t published_epoch = 0;  ///< the freshness reference used
};

struct NetSaeClientOptions {
  Endpoint sp;
  Endpoint te;
  /// The DO's epoch endpoint — the client's freshness reference, without
  /// which a replayed old-epoch answer and token pair would verify.
  /// Required.
  Endpoint owner;
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
};

/// The SAE client over TCP: same call shape as core::Client, with the
/// paper's parallel SP+TE+owner fan-out per query. A client built without
/// an owner endpoint fails every call with InvalidArgument.
class NetSaeClient {
 public:
  explicit NetSaeClient(const NetSaeClientOptions& options);

  /// Executes `request` against SP and TE in parallel and runs the full
  /// client check (core::Client::VerifyAnswer). Only verified answers are
  /// returned; tampering/staleness comes back as the failing Status.
  Result<NetVerifiedAnswer> Query(const dbms::QueryRequest& request);

  /// The published epoch from the owner endpoint.
  Result<uint64_t> PublishedEpoch();

 private:
  NetSaeClientOptions options_;
  RecordCodec codec_;
  ClientTransport sp_;
  ClientTransport te_;
  ClientTransport owner_;
};

/// A fully verified TOM answer.
struct NetTomVerifiedAnswer {
  dbms::QueryAnswer answer;
  std::vector<Record> witness;
  uint64_t vo_epoch = 0;
};

struct NetTomClientOptions {
  Endpoint sp;
  /// The DO's epoch endpoint — the client's freshness reference, without
  /// which a replayed old-epoch VO would verify. Required.
  Endpoint owner;
  crypto::RsaPublicKey owner_key;
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
};

/// The TOM client over TCP: one SP round trip returning two frames (answer,
/// VO) plus the owner's published epoch, verified with
/// core::TomClient::VerifyAnswer. A client built without an owner endpoint
/// fails every call with InvalidArgument.
class NetTomClient {
 public:
  explicit NetTomClient(const NetTomClientOptions& options);

  Result<NetTomVerifiedAnswer> Query(const dbms::QueryRequest& request);

  Result<uint64_t> PublishedEpoch();

 private:
  NetTomClientOptions options_;
  RecordCodec codec_;
  ClientTransport sp_;
  ClientTransport owner_;
};

}  // namespace sae::net

#endif  // SAE_NET_CLIENT_TRANSPORT_H_
