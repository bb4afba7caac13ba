// Copyright (c) saedb authors. Licensed under the MIT license.
//
// A network adversary: a frame server placed in front of an SP port. It
// relays every request to the honest SP unchanged and tampers the answer
// shipment of each query response on its way back (kTamperPayload,
// re-encoded under the SP's own epoch stamp), so the SP itself never knows
// it is part of an attack. A client pointed at the proxy must reject every
// answer it relays.

#ifndef SAE_ADVERSARY_TAMPERING_PROXY_H_
#define SAE_ADVERSARY_TAMPERING_PROXY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/client_transport.h"
#include "net/event_loop.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::adversary {

class TamperingProxy {
 public:
  /// `answer_frames` is how many frames the SP sends per query: 1 for the
  /// SAE SP, 2 (answer, then VO) for the TOM SP. Only the answer frame is
  /// tampered; every other response passes through as it is. An error
  /// frame ends the relay of its request, since the SP sends nothing after
  /// it.
  TamperingProxy(net::Endpoint upstream, size_t record_size,
                 size_t answer_frames = 1);

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.port(); }

  /// Query answers tampered so far.
  uint64_t tampered() const {
    return tampered_.load(std::memory_order_relaxed);
  }

 private:
  void Handle(std::vector<uint8_t> request,
              std::vector<net::SharedPayload>* responses);

  net::ClientTransport upstream_;
  storage::RecordCodec codec_;
  size_t answer_frames_;
  std::atomic<uint64_t> tampered_{0};
  net::FrameServer server_;
};

}  // namespace sae::adversary

#endif  // SAE_ADVERSARY_TAMPERING_PROXY_H_
