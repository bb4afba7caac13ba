// Copyright (c) saedb authors. Licensed under the MIT license.
//
// TCP server wrappers exposing the three parties behind frame endpoints.
// Every frame payload is one of the golden-pinned wire messages, unchanged:
// the payload's leading tag byte (core/messages.cc) doubles as the method
// discriminator, so the bytes a client puts on the socket are exactly the
// bytes the in-process protocol would have produced — the golden pins gate
// the network path for free.
//
// Request -> response per party:
//   SP  (SAE):  QueryRequest(0x09) -> QueryAnswer(0x0A)
//   TE  (SAE):  QueryRequest(0x09) -> Vt(0x03)
//   SP  (TOM):  QueryRequest(0x09) -> QueryAnswer(0x0A), VO  (two frames)
//   load/update (DO -> SP/TE): Records(0x01), EpochNotice(0x06),
//     Delete(0x05), Signature(0x04, TOM) -> control ack
//
// One *control* op lives outside the pinned tag space (0xF0+): epoch
// discovery, the client's freshness reference. Any other tag gets an
// "unknown message tag" error frame and the connection keeps serving.

#ifndef SAE_NET_SERVER_H_
#define SAE_NET_SERVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/data_owner.h"
#include "core/service_provider.h"
#include "core/tom.h"
#include "core/trusted_entity.h"
#include "net/event_loop.h"
#include "util/status.h"

namespace sae::net {

/// Net-layer control tags. The pinned messages own 0x01..0x0A (and the
/// sigchain VO 0xC5); control frames start at 0xF0 so the two spaces can
/// never collide.
inline constexpr uint8_t kCtlGetEpoch = 0xF0;   ///< -> EpochNotice payload
inline constexpr uint8_t kCtlAck = 0xFD;        ///< empty success response
inline constexpr uint8_t kCtlError = 0xFE;      ///< + utf-8 error message

/// Builds the 1-byte control request / ack payloads.
std::vector<uint8_t> ControlFrame(uint8_t tag);
/// kCtlError + message text.
std::vector<uint8_t> ErrorFrame(const Status& status);
/// Decodes an error frame ("" when the payload is not one).
std::string DecodeErrorFrame(const std::vector<uint8_t>& payload);

/// SAE service provider behind TCP. Not thread-safe to mutate while
/// running; the event loop serializes request handling.
class SpServer {
 public:
  SpServer(core::ServiceProvider* sp, FrameServerOptions options = {});
  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.port(); }
  const FrameServer& frame_server() const { return server_; }

 private:
  void Handle(std::vector<uint8_t> request,
              std::vector<SharedPayload>* responses);

  core::ServiceProvider* sp_;
  bool loaded_ = false;  ///< first Records frame = dataset, later = inserts
  FrameServer server_;
};

/// SAE trusted entity behind TCP.
class TeServer {
 public:
  TeServer(core::TrustedEntity* te, FrameServerOptions options = {});
  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.port(); }
  const FrameServer& frame_server() const { return server_; }

 private:
  void Handle(std::vector<uint8_t> request,
              std::vector<SharedPayload>* responses);

  core::TrustedEntity* te_;
  bool loaded_ = false;  ///< first Records frame = dataset, later = inserts
  FrameServer server_;
};

/// TOM service provider behind TCP (answers are two frames: QueryAnswer
/// then the MB-tree VO).
class TomSpServer {
 public:
  TomSpServer(core::TomServiceProvider* sp, FrameServerOptions options = {});
  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.port(); }
  const FrameServer& frame_server() const { return server_; }

 private:
  void Handle(std::vector<uint8_t> request,
              std::vector<SharedPayload>* responses);

  core::TomServiceProvider* sp_;
  bool loaded_ = false;
  /// TOM's load/update protocol pairs data frames with the Signature frame
  /// that commits them (the DO signs every change); buffered in between.
  std::vector<storage::Record> pending_records_;
  bool has_pending_records_ = false;
  storage::RecordId pending_delete_ = 0;
  bool has_pending_delete_ = false;
  FrameServer server_;
};

/// The data owner's tiny epoch endpoint: clients ask it for the published
/// epoch (their freshness reference — the DO is the only party a client
/// trusts for this in SAE). `epoch_fn` reads whatever the owner publishes.
class OwnerServer {
 public:
  OwnerServer(std::function<uint64_t()> epoch_fn,
              FrameServerOptions options = {});
  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.port(); }

 private:
  void Handle(std::vector<uint8_t> request,
              std::vector<SharedPayload>* responses);

  std::function<uint64_t()> epoch_fn_;
  FrameServer server_;
};

}  // namespace sae::net

#endif  // SAE_NET_SERVER_H_
