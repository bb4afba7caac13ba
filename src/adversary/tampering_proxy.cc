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
  auto lease = upstream->Acquire();
  Status sent = lease.ok() ? lease.value().Send(request) : lease.status();
  if (!sent.ok()) {
    responses->push_back(net::Share(net::ErrorFrame(sent)));
    return;
  }
  size_t frames = query.ok() ? answer_frames : 1;
  for (size_t i = 0; i < frames; ++i) {
    auto frame = lease.value().Recv();
    if (!frame.ok()) {
      responses->push_back(net::Share(net::ErrorFrame(frame.status())));
      return;
    }
    if (!net::CheckFrame(frame.value()).ok()) {
      // A failed query gets one error frame and nothing after it.
      responses->push_back(net::Share(std::move(frame).ValueOrDie()));
      return;
    }
    if (i == 0 && query.ok()) {
      auto answer = core::DeserializeQueryAnswer(frame.value(), codec);
      if (answer.ok()) {
        uint64_t seed = tampered->fetch_add(1, std::memory_order_relaxed);
        auto forged = TamperAnswer(frame.value(), query.value(),
                                   AttackMode::kTamperPayload, codec, seed,
                                   answer.value().epoch);
        if (forged.ok()) frame = std::move(forged).ValueOrDie();
      }
    }
    responses->push_back(net::Share(std::move(frame).ValueOrDie()));
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
