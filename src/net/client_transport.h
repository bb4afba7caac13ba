// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Client side of the serving tier: a pooled blocking transport plus
// networked counterparts of the in-process Client/TomClient call shapes.
//
// The transport keeps a pool of connected sockets per endpoint; a query
// leases one socket per party, writes the request frames, then reads the
// responses — so the SAE client's SP and TE round trips overlap exactly as
// in the paper's parallel fan-out (Fig. 2), with plain blocking sockets.
// Every answer that reaches the caller has already passed the full
// client-side verification (XOR/VO check, freshness gates, answer
// recomputation); a tampered or stale response surfaces as the
// corresponding Status, never as data.

#ifndef SAE_NET_CLIENT_TRANSPORT_H_
#define SAE_NET_CLIENT_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <mutex>
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

/// A pool of blocking connections to one endpoint. Acquire() hands out a
/// leased socket (reusing an idle one or dialing a fresh one); the lease
/// returns it to the pool on destruction unless an I/O error marked it
/// broken. Thread-safe; many threads can hold leases concurrently.
class ClientTransport {
 public:
  // Special members are out of line: Lease::Conn is complete in the .cc only.
  explicit ClientTransport(Endpoint endpoint, size_t max_idle = 64);
  ~ClientTransport();

  ClientTransport(const ClientTransport&) = delete;
  ClientTransport& operator=(const ClientTransport&) = delete;

  class Lease {
   public:
    Lease();
    ~Lease();
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool valid() const { return conn_ != nullptr; }

    /// Writes one frame (blocking). An error poisons the lease.
    Status Send(const std::vector<uint8_t>& payload);

    /// Reads the next complete frame (blocking). An error poisons the lease.
    Result<std::vector<uint8_t>> Recv();

   private:
    friend class ClientTransport;
    struct Conn;
    Lease(ClientTransport* owner, std::unique_ptr<Conn> conn);

    ClientTransport* owner_ = nullptr;
    std::unique_ptr<Conn> conn_;
    bool broken_ = false;
  };

  /// Leases a pooled connection, dialing a new one when the pool is empty.
  Result<Lease> Acquire();

  /// One request -> one response round trip on a pooled connection. The
  /// response may be an error frame (kCtlError) — see ExpectAck/CheckFrame.
  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& payload);

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  void Release(std::unique_ptr<Lease::Conn> conn, bool broken);

  Endpoint endpoint_;
  size_t max_idle_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Lease::Conn>> idle_;
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

  ClientTransport& sp() { return sp_; }
  ClientTransport& te() { return te_; }

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

  ClientTransport& sp() { return sp_; }

 private:
  NetTomClientOptions options_;
  RecordCodec codec_;
  ClientTransport sp_;
  ClientTransport owner_;
};

}  // namespace sae::net

#endif  // SAE_NET_CLIENT_TRANSPORT_H_
