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
#include <memory>
#include <utility>

#include "net/client_transport.h"
#include "net/event_loop.h"

namespace sae::adversary {

class TamperingProxy : public net::FrameServer {
 public:
  /// `answer_frames` is how many frames the SP sends per query: 1 for the
  /// SAE SP, 2 (answer, then VO) for the TOM SP. Only the answer frame is
  /// tampered; every other response passes through as it is. An error
  /// frame ends the relay of its request, since the SP sends nothing after
  /// it.
  TamperingProxy(net::Endpoint upstream, size_t record_size,
                 size_t answer_frames = 1)
      : TamperingProxy(std::make_shared<std::atomic<uint64_t>>(0),
                       std::move(upstream), record_size, answer_frames) {}

  /// Query answers tampered so far.
  uint64_t tampered() const {
    return tampered_->load(std::memory_order_relaxed);
  }

 private:
  // The relay handler co-owns the counter, so it outlives this object
  // until the loop thread is joined.
  TamperingProxy(std::shared_ptr<std::atomic<uint64_t>> tampered,
                 net::Endpoint upstream, size_t record_size,
                 size_t answer_frames);

  std::shared_ptr<std::atomic<uint64_t>> tampered_;
};

}  // namespace sae::adversary

#endif  // SAE_ADVERSARY_TAMPERING_PROXY_H_
