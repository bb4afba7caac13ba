// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the pooled transport and networked clients
// (net/client_transport.h).

#include "net/client_transport.h"

#include <memory>
#include <string>
#include <utility>

#include "core/messages.h"
#include "mbtree/vo.h"
#include "net/server.h"
#include "util/macros.h"

namespace sae::net {

namespace {

// Idle sockets a pool keeps; a lease released beyond this closes.
constexpr size_t kMaxIdle = 64;

}  // namespace

Status ClientTransport::Lease::Send(const std::vector<uint8_t>& payload) {
  return SendFrame(fd_.get(), payload);
}

Result<std::vector<uint8_t>> ClientTransport::Lease::Recv() {
  return RecvFrame(fd_.get(), &decoder_);
}

Result<ClientTransport::Lease> ClientTransport::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      Lease lease = std::move(idle_.back());
      idle_.pop_back();
      return lease;
    }
  }
  SAE_ASSIGN_OR_RETURN(int fd, ConnectTcp(endpoint_));
  return Lease(fd);
}

void ClientTransport::Release(Lease lease) {
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_.size() < kMaxIdle) idle_.push_back(std::move(lease));
}

Result<std::vector<Frames>> Exchange(std::initializer_list<ExchangeLeg> legs) {
  // A lease that leaves on an early return closes its socket, whatever its
  // leg still had in flight.
  std::vector<ClientTransport::Lease> leases;
  leases.reserve(legs.size());
  for (const ExchangeLeg& leg : legs) {
    SAE_ASSIGN_OR_RETURN(ClientTransport::Lease lease,
                         leg.transport->Acquire());
    leases.push_back(std::move(lease));
  }
  for (size_t i = 0; i < legs.size(); ++i) {
    SAE_RETURN_NOT_OK(leases[i].Send(legs.begin()[i].request));
  }
  std::vector<Frames> responses(legs.size());
  for (size_t i = 0; i < legs.size(); ++i) {
    Frames& frames = responses[i];
    while (frames.size() < legs.begin()[i].frames) {
      SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> frame, leases[i].Recv());
      frames.push_back(std::move(frame));
      if (!CheckFrame(frames.back()).ok()) break;  // nothing follows it
    }
  }
  // Every leg was read to its end: only now may its socket serve again.
  for (size_t i = 0; i < legs.size(); ++i) {
    legs.begin()[i].transport->Release(std::move(leases[i]));
  }
  return responses;
}

Result<std::vector<uint8_t>> ClientTransport::Call(
    const std::vector<uint8_t>& payload) {
  SAE_ASSIGN_OR_RETURN(std::vector<Frames> legs, Exchange({{this, payload}}));
  return std::move(legs[0][0]);
}

Status CheckFrame(const std::vector<uint8_t>& payload) {
  if (!payload.empty() && payload[0] == kCtlError) {
    std::string msg = DecodeErrorFrame(payload);
    return Status::IoError("server error: " + msg);
  }
  return Status::OK();
}

Status ExpectAck(const std::vector<uint8_t>& payload) {
  SAE_RETURN_NOT_OK(CheckFrame(payload));
  if (payload.size() != 1 || payload[0] != kCtlAck) {
    return Status::Corruption("expected ack frame");
  }
  return Status::OK();
}

Status CallExpectAck(ClientTransport* transport,
                     const std::vector<uint8_t>& payload) {
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                       transport->Call(payload));
  return ExpectAck(response);
}

Result<uint64_t> FetchEpoch(ClientTransport* transport) {
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                       transport->Call(ControlFrame(kCtlGetEpoch)));
  SAE_RETURN_NOT_OK(CheckFrame(response));
  return core::DeserializeEpochNotice(response);
}

namespace {

// The clients reject every error frame an exchange brought back.
Status CheckFrames(const std::vector<Frames>& legs) {
  for (const Frames& frames : legs) {
    for (const std::vector<uint8_t>& frame : frames) {
      SAE_RETURN_NOT_OK(CheckFrame(frame));
    }
  }
  return Status::OK();
}

// Both clients take their freshness reference from the owner: without it a
// replayed old-epoch answer would verify.
Status CheckOwner(const Endpoint& owner, const char* client) {
  return owner.port != 0 ? Status::OK()
                         : Status::InvalidArgument(
                               std::string(client) +
                               " needs the owner's epoch endpoint");
}

}  // namespace

// --- SAE client -----------------------------------------------------------------

NetSaeClient::NetSaeClient(const NetSaeClientOptions& options)
    : options_(options),
      codec_(options.record_size),
      sp_(options.sp),
      te_(options.te),
      owner_(options.owner) {}

Result<uint64_t> NetSaeClient::PublishedEpoch() {
  SAE_RETURN_NOT_OK(CheckOwner(options_.owner, "NetSaeClient"));
  return FetchEpoch(&owner_);
}

Result<NetVerifiedAnswer> NetSaeClient::Query(
    const dbms::QueryRequest& request) {
  SAE_RETURN_NOT_OK(CheckOwner(options_.owner, "NetSaeClient"));
  const std::vector<uint8_t> query = core::SerializeQueryRequest(request);
  SAE_ASSIGN_OR_RETURN(std::vector<Frames> legs,
                       Exchange({{&sp_, query},
                                 {&te_, query},
                                 {&owner_, ControlFrame(kCtlGetEpoch)}}));
  SAE_RETURN_NOT_OK(CheckFrames(legs));
  // The frame moves into a shared buffer the witness views in place.
  SAE_ASSIGN_OR_RETURN(
      core::QueryAnswerMessage message,
      core::DeserializeQueryAnswer(
          std::make_shared<const std::vector<uint8_t>>(std::move(legs[0][0])),
          codec_));
  SAE_ASSIGN_OR_RETURN(core::VerificationToken vt,
                       core::DeserializeVt(legs[1][0]));
  SAE_ASSIGN_OR_RETURN(uint64_t published,
                       core::DeserializeEpochNotice(legs[2][0]));

  SAE_RETURN_NOT_OK(core::Client::VerifyAnswer(
      request, message.answer, message.witness, vt, message.epoch, published,
      codec_, options_.scheme));

  NetVerifiedAnswer verified;
  verified.answer = std::move(message.answer);
  verified.witness = std::move(message.witness);
  verified.vt = vt;
  verified.claimed_epoch = message.epoch;
  verified.published_epoch = published;
  return verified;
}

// --- TOM client -----------------------------------------------------------------

NetTomClient::NetTomClient(const NetTomClientOptions& options)
    : options_(options),
      codec_(options.record_size),
      sp_(options.sp),
      owner_(options.owner) {}

Result<uint64_t> NetTomClient::PublishedEpoch() {
  SAE_RETURN_NOT_OK(CheckOwner(options_.owner, "NetTomClient"));
  return FetchEpoch(&owner_);
}

Result<NetTomVerifiedAnswer> NetTomClient::Query(
    const dbms::QueryRequest& request) {
  SAE_RETURN_NOT_OK(CheckOwner(options_.owner, "NetTomClient"));
  // The TOM SP answers with two frames: the answer shipment then the VO.
  SAE_ASSIGN_OR_RETURN(
      std::vector<Frames> legs,
      Exchange({{&sp_, core::SerializeQueryRequest(request), 2},
                {&owner_, ControlFrame(kCtlGetEpoch)}}));
  SAE_RETURN_NOT_OK(CheckFrames(legs));
  SAE_ASSIGN_OR_RETURN(
      core::QueryAnswerMessage message,
      core::DeserializeQueryAnswer(
          std::make_shared<const std::vector<uint8_t>>(std::move(legs[0][0])),
          codec_));
  SAE_ASSIGN_OR_RETURN(mbtree::VerificationObject vo,
                       mbtree::VerificationObject::Deserialize(legs[0][1]));
  SAE_ASSIGN_OR_RETURN(uint64_t current_epoch,
                       core::DeserializeEpochNotice(legs[1][0]));

  SAE_RETURN_NOT_OK(core::TomClient::VerifyAnswer(
      request, message.answer, message.witness, vo, options_.owner_key,
      codec_, options_.scheme, current_epoch));

  NetTomVerifiedAnswer verified;
  verified.answer = std::move(message.answer);
  verified.witness = std::move(message.witness);
  verified.vo_epoch = vo.epoch;
  return verified;
}

}  // namespace sae::net
