// Copyright (c) saedb authors. Licensed under the MIT license.
//
// TCP endpoints for the three parties: each is a FrameServer whose handler
// speaks the golden-pinned wire messages, unchanged. The payload's leading
// tag byte (core/messages.cc) doubles as the method discriminator, so the
// bytes a client puts on the socket are exactly the bytes the in-process
// protocol would have produced — the golden pins gate the network path for
// free.
//
// Request -> response per party:
//   SP  (SAE):  QueryRequest(0x09) -> QueryAnswer(0x0A)
//   TE  (SAE):  QueryRequest(0x09) -> Vt(0x03)
//   SP  (TOM):  QueryRequest(0x09) -> QueryAnswer(0x0A), VO  (two frames)
//   load/update (DO -> SP/TE): Records(0x01), EpochNotice(0x06),
//     Delete(0x05), Signature(0x04, TOM) -> control ack
//
// Every party shares one dispatch around its own tags: an empty frame gets
// an error frame, the one *control* op outside the pinned tag space (0xF0+,
// epoch discovery, the client's freshness reference) answers the party's
// epoch, and any other tag gets an "unknown message tag" error frame while
// the connection keeps serving. A handler owns all of its party's serving
// state (the party pointer, whether the dataset has loaded, TOM's pending
// change), so nothing it touches dies before the loop thread is joined.

#ifndef SAE_NET_SERVER_H_
#define SAE_NET_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/service_provider.h"
#include "core/tom.h"
#include "core/trusted_entity.h"
#include "net/event_loop.h"
#include "util/status.h"

namespace sae::net {

/// Net-layer control tags. The pinned messages own 0x01..0x0A; control
/// frames start at 0xF0 so the two spaces can never collide.
inline constexpr uint8_t kCtlGetEpoch = 0xF0;   ///< -> EpochNotice payload
inline constexpr uint8_t kCtlAck = 0xFD;        ///< empty success response
inline constexpr uint8_t kCtlError = 0xFE;      ///< + utf-8 error message

/// Builds the 1-byte control request / ack payloads.
std::vector<uint8_t> ControlFrame(uint8_t tag);
/// kCtlError + message text.
std::vector<uint8_t> ErrorFrame(const Status& status);
/// Decodes an error frame ("" when the payload is not one).
std::string DecodeErrorFrame(const std::vector<uint8_t>& payload);

/// SAE service provider behind TCP. The event loop serializes request
/// handling, so the SP is never mutated concurrently through the server.
class SpServer : public FrameServer {
 public:
  explicit SpServer(core::ServiceProvider* sp, FrameServerOptions options = {});
};

/// SAE trusted entity behind TCP.
class TeServer : public FrameServer {
 public:
  explicit TeServer(core::TrustedEntity* te, FrameServerOptions options = {});
};

/// TOM service provider behind TCP (answers are two frames: QueryAnswer
/// then the MB-tree VO). TOM's load/update protocol pairs each data frame
/// with the Signature frame that commits it; the handler buffers it in
/// between.
class TomSpServer : public FrameServer {
 public:
  explicit TomSpServer(core::TomServiceProvider* sp,
                       FrameServerOptions options = {});
};

/// The data owner's tiny epoch endpoint: clients ask it for the published
/// epoch (their freshness reference — the DO is the only party a client
/// trusts for this in SAE). `epoch_fn` reads whatever the owner publishes.
class OwnerServer : public FrameServer {
 public:
  explicit OwnerServer(std::function<uint64_t()> epoch_fn,
                       FrameServerOptions options = {});
};

}  // namespace sae::net

#endif  // SAE_NET_SERVER_H_
