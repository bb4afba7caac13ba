// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the tampering proxy (adversary/tampering_proxy.h).

#include "adversary/tampering_proxy.h"

#include <utility>

#include "adversary/adversary.h"
#include "core/messages.h"
#include "net/server.h"

namespace sae::adversary {

namespace {

// Relays one request upstream and its responses back, tampering the answer
// frame of a query. Runs on the proxy's event-loop thread; a blocking
// upstream round trip is fine for a test adversary.
void Relay(net::ClientTransport* upstream, const RecordCodec& codec,
           size_t answer_frames, std::atomic<uint64_t>* tampered,
           const std::vector<uint8_t>& request,
           std::vector<net::SharedPayload>* responses) {
  Result<dbms::QueryRequest> query = core::DeserializeQueryRequest(request);
  auto relayed = net::Exchange(
      {{upstream, request, query.ok() ? answer_frames : size_t{1}}});
  if (!relayed.ok()) {
    responses->push_back(net::Share(net::ErrorFrame(relayed.status())));
    return;
  }
  net::Frames& frames = relayed.value()[0];
  // A failed query comes back as one error frame, relayed as it is.
  if (query.ok() && net::CheckFrame(frames[0]).ok()) {
    auto answer = core::DeserializeQueryAnswer(frames[0], codec);
    if (answer.ok()) {
      uint64_t seed = tampered->fetch_add(1, std::memory_order_relaxed);
      auto forged = TamperAnswer(frames[0], query.value(),
                                 AttackMode::kTamperPayload, codec, seed,
                                 answer.value().epoch);
      if (forged.ok()) frames[0] = std::move(forged).ValueOrDie();
    }
  }
  for (std::vector<uint8_t>& frame : frames) {
    responses->push_back(net::Share(std::move(frame)));
  }
}

}  // namespace

TamperingProxy::TamperingProxy(std::shared_ptr<std::atomic<uint64_t>> tampered,
                               net::Endpoint upstream, size_t record_size,
                               size_t answer_frames)
    : net::FrameServer(
          {},
          [upstream = std::make_shared<net::ClientTransport>(
               std::move(upstream)),
           codec = RecordCodec(record_size), answer_frames,
           tampered](std::vector<uint8_t> request,
                     std::vector<net::SharedPayload>* responses) {
            Relay(upstream.get(), codec, answer_frames, tampered.get(),
                  request, responses);
          }),
      tampered_(std::move(tampered)) {}

}  // namespace sae::adversary
