// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the tampering proxy (adversary/tampering_proxy.h).

#include "adversary/tampering_proxy.h"

#include <utility>

#include "adversary/adversary.h"
#include "core/messages.h"
#include "net/server.h"

namespace sae::adversary {

TamperingProxy::TamperingProxy(net::Endpoint upstream, size_t record_size,
                               size_t answer_frames)
    : upstream_(std::move(upstream)),
      codec_(record_size),
      answer_frames_(answer_frames),
      server_({}, [this](std::vector<uint8_t> request,
                              std::vector<net::SharedPayload>* responses) {
        Handle(std::move(request), responses);
      }) {}

void TamperingProxy::Handle(std::vector<uint8_t> request,
                            std::vector<net::SharedPayload>* responses) {
  // Runs on the proxy's event-loop thread; a blocking upstream round trip
  // is fine for a test adversary.
  Result<dbms::QueryRequest> query = core::DeserializeQueryRequest(request);
  auto lease = upstream_.Acquire();
  if (!lease.ok()) {
    responses->push_back(net::Share(net::ErrorFrame(lease.status())));
    return;
  }
  Status sent = lease.value().Send(request);
  if (!sent.ok()) {
    responses->push_back(net::Share(net::ErrorFrame(sent)));
    return;
  }
  size_t frames = query.ok() ? answer_frames_ : 1;
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
      auto answer = core::DeserializeQueryAnswer(frame.value(), codec_);
      if (answer.ok()) {
        uint64_t seed = tampered_.fetch_add(1, std::memory_order_relaxed);
        auto tampered =
            TamperAnswer(frame.value(), query.value(),
                         AttackMode::kTamperPayload, codec_, seed,
                         answer.value().epoch);
        if (tampered.ok()) frame = std::move(tampered).ValueOrDie();
      }
    }
    responses->push_back(net::Share(std::move(frame).ValueOrDie()));
  }
}

}  // namespace sae::adversary
