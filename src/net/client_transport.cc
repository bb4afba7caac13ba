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

// Idle sockets a pool keeps; a lease returned beyond this closes.
constexpr size_t kMaxIdle = 64;

}  // namespace

struct ClientTransport::Lease::Conn {
  UniqueFd fd;
  FrameDecoder decoder;

  explicit Conn(int raw_fd) : fd(raw_fd) {}
};

ClientTransport::ClientTransport(Endpoint endpoint)
    : endpoint_(std::move(endpoint)) {}

ClientTransport::~ClientTransport() = default;

ClientTransport::Lease::Lease() = default;

ClientTransport::Lease::Lease(ClientTransport* owner,
                              std::unique_ptr<Conn> conn)
    : owner_(owner), conn_(std::move(conn)) {}

ClientTransport::Lease::Lease(Lease&& other) noexcept
    : owner_(other.owner_), conn_(std::move(other.conn_)),
      broken_(other.broken_) {
  other.owner_ = nullptr;
}

ClientTransport::Lease::~Lease() {
  if (owner_ != nullptr && conn_ != nullptr) {
    owner_->Release(std::move(conn_), broken_);
  }
}

ClientTransport::Lease& ClientTransport::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    if (owner_ != nullptr && conn_ != nullptr) {
      owner_->Release(std::move(conn_), broken_);
    }
    owner_ = other.owner_;
    conn_ = std::move(other.conn_);
    broken_ = other.broken_;
    other.owner_ = nullptr;
  }
  return *this;
}

Status ClientTransport::Lease::Send(const std::vector<uint8_t>& payload) {
  if (conn_ == nullptr) return Status::InvalidArgument("empty lease");
  Status st = SendFrame(conn_->fd.get(), payload);
  if (!st.ok()) broken_ = true;
  return st;
}

Result<std::vector<uint8_t>> ClientTransport::Lease::Recv() {
  if (conn_ == nullptr) return Status::InvalidArgument("empty lease");
  auto frame = RecvFrame(conn_->fd.get(), &conn_->decoder);
  if (!frame.ok()) broken_ = true;
  return frame;
}

Result<ClientTransport::Lease> ClientTransport::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      std::unique_ptr<Lease::Conn> conn = std::move(idle_.back());
      idle_.pop_back();
      return Lease(this, std::move(conn));
    }
  }
  SAE_ASSIGN_OR_RETURN(int fd, ConnectTcp(endpoint_));
  return Lease(this, std::make_unique<Lease::Conn>(fd));
}

Result<std::vector<uint8_t>> ClientTransport::Call(
    const std::vector<uint8_t>& payload) {
  SAE_ASSIGN_OR_RETURN(Lease lease, Acquire());
  SAE_RETURN_NOT_OK(lease.Send(payload));
  return lease.Recv();
}

void ClientTransport::Release(std::unique_ptr<Lease::Conn> conn, bool broken) {
  if (broken) return;  // UniqueFd closes the dead socket
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_.size() < kMaxIdle) idle_.push_back(std::move(conn));
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
  // Lease one socket per party, write all requests, then read all
  // responses: the SP, TE and owner round trips overlap on the wire — the
  // paper's parallel fan-out with plain blocking sockets.
  SAE_ASSIGN_OR_RETURN(ClientTransport::Lease sp_lease, sp_.Acquire());
  SAE_ASSIGN_OR_RETURN(ClientTransport::Lease te_lease, te_.Acquire());
  SAE_ASSIGN_OR_RETURN(ClientTransport::Lease owner_lease, owner_.Acquire());

  std::vector<uint8_t> query = core::SerializeQueryRequest(request);
  SAE_RETURN_NOT_OK(sp_lease.Send(query));
  SAE_RETURN_NOT_OK(te_lease.Send(query));
  SAE_RETURN_NOT_OK(owner_lease.Send(ControlFrame(kCtlGetEpoch)));

  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> answer_bytes, sp_lease.Recv());
  SAE_RETURN_NOT_OK(CheckFrame(answer_bytes));
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> vt_bytes, te_lease.Recv());
  SAE_RETURN_NOT_OK(CheckFrame(vt_bytes));

  // The frame moves into a shared buffer the witness views in place.
  SAE_ASSIGN_OR_RETURN(
      core::QueryAnswerMessage message,
      core::DeserializeQueryAnswer(
          std::make_shared<const std::vector<uint8_t>>(std::move(answer_bytes)),
          codec_));
  SAE_ASSIGN_OR_RETURN(core::VerificationToken vt,
                       core::DeserializeVt(vt_bytes));

  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> epoch_bytes, owner_lease.Recv());
  SAE_RETURN_NOT_OK(CheckFrame(epoch_bytes));
  SAE_ASSIGN_OR_RETURN(uint64_t published,
                       core::DeserializeEpochNotice(epoch_bytes));

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
  SAE_ASSIGN_OR_RETURN(ClientTransport::Lease sp_lease, sp_.Acquire());
  SAE_ASSIGN_OR_RETURN(ClientTransport::Lease owner_lease, owner_.Acquire());

  SAE_RETURN_NOT_OK(sp_lease.Send(core::SerializeQueryRequest(request)));
  SAE_RETURN_NOT_OK(owner_lease.Send(ControlFrame(kCtlGetEpoch)));

  // The TOM SP answers with two frames: the answer shipment then the VO.
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> answer_bytes, sp_lease.Recv());
  SAE_RETURN_NOT_OK(CheckFrame(answer_bytes));
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> vo_bytes, sp_lease.Recv());
  SAE_RETURN_NOT_OK(CheckFrame(vo_bytes));

  SAE_ASSIGN_OR_RETURN(
      core::QueryAnswerMessage message,
      core::DeserializeQueryAnswer(
          std::make_shared<const std::vector<uint8_t>>(std::move(answer_bytes)),
          codec_));
  SAE_ASSIGN_OR_RETURN(mbtree::VerificationObject vo,
                       mbtree::VerificationObject::Deserialize(vo_bytes));

  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> epoch_bytes, owner_lease.Recv());
  SAE_RETURN_NOT_OK(CheckFrame(epoch_bytes));
  SAE_ASSIGN_OR_RETURN(uint64_t current_epoch,
                       core::DeserializeEpochNotice(epoch_bytes));

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
