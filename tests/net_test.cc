// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The serving tier end to end: frame codec (including hostile length
// prefixes and a split/garbage fuzzer), loopback golden parity — the bytes
// a socket carries must be byte-identical to the in-process serializations
// the golden suite pins — and the networked SAE/TOM deployments: wire
// loading, verified queries for every operator, a tampering proxy and a
// poisoned SP answer cache that the networked client rejects, staleness
// detection, an SP that fails a query mid-exchange (no pooled socket may
// keep the unread responses for the next query), the dispatch every party
// server shares (malformed frames, retired control tags, the epoch op), a
// small concurrency smoke over pooled transports, and servers destroyed
// while a client keeps sending.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "adversary/adversary.h"
#include "adversary/tampering_proxy.h"
#include "core/client.h"
#include "core/data_owner.h"
#include "core/messages.h"
#include "core/service_provider.h"
#include "core/tom.h"
#include "core/trusted_entity.h"
#include "dbms/query.h"
#include "mbtree/vo.h"
#include "net/client_transport.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "util/random.h"

namespace sae {
namespace {

using dbms::QueryRequest;
using storage::Record;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;

// The retired 0xF1 (shutdown) and 0xF2 (poisoned query) control tags: any
// server must now answer them as unknown and keep serving.
std::vector<std::vector<uint8_t>> RetiredControlFrames() {
  std::vector<uint8_t> poison = {0xF2};
  std::vector<uint8_t> query =
      core::SerializeQueryRequest(QueryRequest::Scan(100, 400));
  poison.insert(poison.end(), query.begin(), query.end());
  return {{0xF1}, poison};
}

// Sends each retired control frame to `port` and expects the error frame.
void ExpectUnknownTags(uint16_t port) {
  net::ClientTransport link({.port = port});
  for (const std::vector<uint8_t>& frame : RetiredControlFrames()) {
    auto response = link.Call(frame);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(net::DecodeErrorFrame(response.value()), "unknown message tag")
        << "tag " << int(frame[0]) << " on port " << port;
  }
}

// On one connection to a party server: an empty frame, a truncated
// pinned message (a bare QueryRequest tag) and the retired control tags
// each get an error frame, kCtlGetEpoch answers `epoch`, and the same
// connection then still serves `request` with `frames` non-error frames.
void ExpectSharedDispatch(uint16_t port, uint64_t epoch,
                          const std::vector<uint8_t>& request, size_t frames) {
  net::ClientTransport transport({.port = port});
  auto lease = transport.Acquire();
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  auto call = [&](const std::vector<uint8_t>& frame) {
    Status sent = lease.value().Send(frame);
    return sent.ok() ? lease.value().Recv()
                     : Result<std::vector<uint8_t>>(sent);
  };
  std::vector<std::vector<uint8_t>> malformed = RetiredControlFrames();
  malformed.insert(malformed.begin(), {{}, {0x09}});
  for (const std::vector<uint8_t>& frame : malformed) {
    auto response = call(frame);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_FALSE(response.value().empty());
    EXPECT_EQ(response.value()[0], net::kCtlError)
        << "frame of " << frame.size() << " bytes on port " << port;
  }
  auto reply = call(net::ControlFrame(net::kCtlGetEpoch));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto answered = core::DeserializeEpochNotice(reply.value());
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered.value(), epoch);
  ASSERT_TRUE(lease.value().Send(request).ok());
  for (size_t i = 0; i < frames; ++i) {
    auto served = lease.value().Recv();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(net::CheckFrame(served.value()).ok())
        << net::DecodeErrorFrame(served.value());
  }
}

// A test-side SP in front of the honest one at `upstream`: it answers the
// first query with an error frame, the second with `stale` (the frames the
// replica served before an update), and relays every later query.
std::unique_ptr<net::FrameServer> ErrorThenStaleSp(
    uint16_t upstream, std::vector<std::vector<uint8_t>> stale) {
  auto link =
      std::make_shared<net::ClientTransport>(net::Endpoint{.port = upstream});
  auto queries = std::make_shared<size_t>(0);
  return std::make_unique<net::FrameServer>(
      net::FrameServerOptions{},
      [link, queries, stale = std::move(stale)](
          std::vector<uint8_t> request,
          std::vector<net::SharedPayload>* responses) {
        switch ((*queries)++) {
          case 0:
            responses->push_back(net::Share(
                net::ErrorFrame(Status::IoError("SP failed this query"))));
            return;
          case 1:
            for (const std::vector<uint8_t>& frame : stale) {
              responses->push_back(net::Share(frame));
            }
            return;
        }
        auto relayed = net::Exchange({{link.get(), request, stale.size()}});
        if (!relayed.ok()) {
          responses->push_back(net::Share(net::ErrorFrame(relayed.status())));
          return;
        }
        for (std::vector<uint8_t>& frame : relayed.value()[0]) {
          responses->push_back(net::Share(std::move(frame)));
        }
      });
}

std::vector<Record> Dataset(size_t n) {
  RecordCodec codec(kRecSize);
  std::vector<Record> out;
  for (uint64_t id = 1; id <= n; ++id) {
    out.push_back(codec.MakeRecord(id, uint32_t(id * 10)));
  }
  return out;
}

// --- frame codec ----------------------------------------------------------------

TEST(FrameCodecTest, RoundTripsMultipleFrames) {
  std::vector<uint8_t> wire;
  std::vector<std::vector<uint8_t>> payloads = {
      {}, {0x01}, {0xAA, 0xBB, 0xCC}, std::vector<uint8_t>(1000, 0x5A)};
  for (const auto& p : payloads) net::AppendFrame(&wire, p.data(), p.size());

  net::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size()));
  std::vector<uint8_t> frame;
  for (const auto& expected : payloads) {
    ASSERT_TRUE(decoder.Next(&frame));
    EXPECT_EQ(frame, expected);
  }
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodecTest, ByteAtATimeDelivery) {
  std::vector<uint8_t> payload(257);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = uint8_t(i);
  std::vector<uint8_t> wire = net::EncodeFrame(payload);

  net::FrameDecoder decoder;
  std::vector<uint8_t> frame;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(&wire[i], 1));
    EXPECT_FALSE(decoder.Next(&frame)) << "complete before last byte";
  }
  ASSERT_TRUE(decoder.Feed(&wire[wire.size() - 1], 1));
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame, payload);
}

// A frame with an empty payload completes with its header alone: the peer
// answers it without waiting for another frame.
TEST(FrameCodecTest, EmptyFrameClosesWithItsHeader) {
  std::vector<uint8_t> wire = net::EncodeFrame({});
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes);
  net::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size()));
  std::vector<uint8_t> frame = {0x01};
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodecTest, TruncatedFrameNeverCompletes) {
  std::vector<uint8_t> payload(64, 0x7F);
  std::vector<uint8_t> wire = net::EncodeFrame(payload);
  net::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size() - 1));
  std::vector<uint8_t> frame;
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), wire.size() - 1);
}

TEST(FrameCodecTest, LyingLengthPrefixFailsWithoutAllocating) {
  // A 4 GiB-minus-one declared length against a 1 KiB cap: the decoder must
  // reject at header-parse time, before reserving payload storage. The
  // buffered() bound is the observable no-allocation proxy.
  net::FrameDecoder decoder(/*max_payload=*/1024);
  std::vector<uint8_t> header = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(decoder.Feed(header.data(), header.size()));
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.error().empty());
  EXPECT_LE(decoder.buffered(), net::kFrameHeaderBytes);
  // Poisoned decoders stay poisoned: later bytes are refused too.
  uint8_t more = 0x00;
  EXPECT_FALSE(decoder.Feed(&more, 1));
}

TEST(FrameCodecTest, MaxPayloadBoundaryExact) {
  net::FrameDecoder decoder(/*max_payload=*/8);
  std::vector<uint8_t> payload(8, 0x11);
  std::vector<uint8_t> wire = net::EncodeFrame(payload);
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size()));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame, payload);

  net::FrameDecoder strict(/*max_payload=*/7);
  EXPECT_FALSE(strict.Feed(wire.data(), wire.size()));
  EXPECT_TRUE(strict.failed());
}

// Fuzz the decoder with random frame sequences cut at random boundaries and
// with random garbage: decoding must either produce exactly the encoded
// payloads or fail cleanly, and buffered() must stay bounded by what was
// fed — never by what a hostile header declared.
TEST(FrameCodecTest, FuzzSplitAndGarbageStreams) {
  Rng rng(0x5AE2026);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<uint8_t> wire;
    size_t n_frames = rng.NextBounded(4);
    for (size_t f = 0; f < n_frames; ++f) {
      std::vector<uint8_t> p(rng.NextBounded(300));
      for (auto& b : p) b = uint8_t(rng.NextBounded(256));
      net::AppendFrame(&wire, p.data(), p.size());
      payloads.push_back(std::move(p));
    }
    bool corrupt = round % 3 == 0;
    if (corrupt && !wire.empty()) {
      // Flip bytes of one length header to lie about the size.
      size_t at = 0;  // first frame's header
      for (size_t i = 0; i < net::kFrameHeaderBytes; ++i) {
        wire[at + i] = uint8_t(rng.NextBounded(256));
      }
    }
    net::FrameDecoder decoder(/*max_payload=*/4096);
    size_t fed = 0;
    bool poisoned = false;
    while (fed < wire.size() && !poisoned) {
      size_t chunk = 1 + rng.NextBounded(37);
      chunk = std::min(chunk, wire.size() - fed);
      if (!decoder.Feed(wire.data() + fed, chunk)) poisoned = true;
      fed += chunk;
      ASSERT_LE(decoder.buffered(), fed) << "buffered more than was fed";
    }
    std::vector<uint8_t> frame;
    size_t got = 0;
    while (decoder.Next(&frame)) {
      if (!corrupt) {
        ASSERT_LT(got, payloads.size());
        EXPECT_EQ(frame, payloads[got]);
      }
      ++got;
    }
    if (!corrupt) {
      EXPECT_FALSE(poisoned);
      EXPECT_EQ(got, payloads.size());
    }
  }
}

// --- loopback golden parity -----------------------------------------------------

// Every pinned wire message, shipped through a real socket + frame server
// and back: the received bytes must equal the in-process serialization
// exactly. This is the gate that makes the golden pins cover the network
// path too.
TEST(LoopbackGoldenTest, SocketBytesMatchInProcessSerializations) {
  net::FrameServer echo({}, [](std::vector<uint8_t> request,
                               std::vector<net::SharedPayload>* responses) {
    responses->push_back(net::Share(std::move(request)));
    return false;
  });
  ASSERT_TRUE(echo.Start().ok());

  RecordCodec codec(kRecSize);
  Record r1 = codec.MakeRecord(7, 42);
  Record r2 = codec.MakeRecord(8, 43);
  core::VerificationToken vt;
  vt.epoch = 0x0102030405060708ull;
  for (size_t i = 0; i < crypto::Digest::kSize; ++i) {
    vt.digest.bytes[i] = uint8_t(i);
  }
  dbms::QueryAnswer answer;
  answer.op = dbms::QueryOp::kCount;
  answer.count = 2;
  crypto::RsaSignature sig = {0xDE, 0xAD, 0xBE, 0xEF};

  std::vector<std::vector<uint8_t>> pinned = {
      core::SerializeRecords({r1, r2}, codec),
      core::SerializeQuery(10, 99),
      core::SerializeQueryRequest(QueryRequest::TopK(10, 99, 3)),
      core::SerializeQueryAnswer(answer, {r1, r2}, 5, codec),
      core::SerializeVt(vt),
      core::SerializeResults({r1}, 5, codec),
      core::SerializeEpochNotice(0x0807060504030201ull),
      core::SerializeDelete(7, 42),
      core::SerializeShardEpochs({1, 2, 3}),
      core::SerializeSignature(sig, 9),
  };

  net::ClientTransport transport({.port = echo.port()});
  for (const auto& bytes : pinned) {
    ASSERT_FALSE(bytes.empty());
    auto response = transport.Call(bytes);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value(), bytes)
        << "socket altered pinned message with tag 0x" << std::hex
        << int(bytes[0]);
  }
  EXPECT_EQ(echo.frames_served(), pinned.size());
  echo.Stop();
}

// A connection that ships a lying length prefix is dropped and counted,
// while a well-formed connection keeps working.
TEST(LoopbackGoldenTest, ServerDropsLyingLengthPrefix) {
  net::FrameServer echo({}, [](std::vector<uint8_t> request,
                               std::vector<net::SharedPayload>* responses) {
    responses->push_back(net::Share(std::move(request)));
    return false;
  });
  ASSERT_TRUE(echo.Start().ok());

  auto fd = net::ConnectTcp({.port = echo.port()});
  ASSERT_TRUE(fd.ok());
  net::UniqueFd conn(fd.value());
  std::vector<uint8_t> hostile = {0xFF, 0xFF, 0xFF, 0xFF, 0x00};
  ASSERT_TRUE(net::SendAll(conn.get(), hostile.data(), hostile.size()).ok());
  net::FrameDecoder decoder;
  auto reply = net::RecvFrame(conn.get(), &decoder);
  EXPECT_FALSE(reply.ok());  // server dropped us without answering

  // The server survives and still echoes for honest clients.
  net::ClientTransport transport({.port = echo.port()});
  std::vector<uint8_t> ping = {0x42};
  auto response = transport.Call(ping);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value(), ping);
  EXPECT_GE(echo.protocol_errors(), 1u);
  echo.Stop();
}

// --- networked SAE deployment ---------------------------------------------------

class NetServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sp_ = std::make_unique<core::ServiceProvider>(
        core::ServiceProviderOptions{.record_size = kRecSize,
                                     .answer_cache = {}});
    te_ = std::make_unique<core::TrustedEntity>(core::TrustedEntityOptions{
        .record_size = kRecSize, .xb_options = {}, .vt_cache = {}});
    sp_server_ = std::make_unique<net::SpServer>(sp_.get());
    te_server_ = std::make_unique<net::TeServer>(te_.get());
    ASSERT_TRUE(sp_server_->Start().ok());
    ASSERT_TRUE(te_server_->Start().ok());

    // Wire-load both parties the way a networked DO would: a Records frame
    // then the epoch notice.
    RecordCodec codec(kRecSize);
    dataset_ = Dataset(100);
    net::ClientTransport sp_link({.port = sp_server_->port()});
    net::ClientTransport te_link({.port = te_server_->port()});
    std::vector<uint8_t> records = core::SerializeRecords(dataset_, codec);
    std::vector<uint8_t> notice = core::SerializeEpochNotice(1);
    ASSERT_TRUE(net::CallExpectAck(&sp_link, records).ok());
    ASSERT_TRUE(net::CallExpectAck(&te_link, records).ok());
    ASSERT_TRUE(net::CallExpectAck(&sp_link, notice).ok());
    ASSERT_TRUE(net::CallExpectAck(&te_link, notice).ok());
    published_epoch_ = 1;

    owner_server_ = std::make_unique<net::OwnerServer>(
        [this] { return published_epoch_.load(); });
    ASSERT_TRUE(owner_server_->Start().ok());

    client_ = std::make_unique<net::NetSaeClient>(net::NetSaeClientOptions{
        .sp = {.port = sp_server_->port()},
        .te = {.port = te_server_->port()},
        .owner = {.port = owner_server_->port()},
        .record_size = kRecSize});
  }

  void TearDown() override {
    sp_server_->Stop();
    te_server_->Stop();
    owner_server_->Stop();
  }

  std::unique_ptr<core::ServiceProvider> sp_;
  std::unique_ptr<core::TrustedEntity> te_;
  std::unique_ptr<net::SpServer> sp_server_;
  std::unique_ptr<net::TeServer> te_server_;
  std::unique_ptr<net::OwnerServer> owner_server_;
  std::unique_ptr<net::NetSaeClient> client_;
  std::vector<Record> dataset_;
  std::atomic<uint64_t> published_epoch_{0};
};

TEST_F(NetServingTest, AllOperatorsVerifyAgainstOracle) {
  std::vector<QueryRequest> requests = {
      QueryRequest::Scan(100, 400),  QueryRequest::Point(250),
      QueryRequest::Count(100, 400), QueryRequest::Sum(100, 400),
      QueryRequest::Min(100, 400),   QueryRequest::Max(100, 400),
      QueryRequest::TopK(100, 400, 5)};
  for (const QueryRequest& request : requests) {
    auto verified = client_->Query(request);
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    // The witness is the oracle range; spot-check it.
    std::vector<Record> oracle;
    for (const Record& r : dataset_) {
      if (r.key >= request.lo && r.key <= request.hi) oracle.push_back(r);
    }
    EXPECT_EQ(verified.value().witness, oracle);
    EXPECT_EQ(verified.value().claimed_epoch, 1u);
    EXPECT_EQ(verified.value().published_epoch, 1u);
  }
}

// The networked response must be the exact bytes the in-process protocol
// would have produced for the same plan.
TEST_F(NetServingTest, ResponseBytesMatchInProcessSerialization) {
  QueryRequest request = QueryRequest::Scan(100, 400);
  net::ClientTransport sp_link({.port = sp_server_->port()});
  auto wire = sp_link.Call(core::SerializeQueryRequest(request));
  ASSERT_TRUE(wire.ok());

  auto plan = sp_->ExecutePlan(request);
  ASSERT_TRUE(plan.ok());
  std::vector<uint8_t> in_process = core::SerializeQueryAnswer(
      plan.value().answer, plan.value().witness, sp_->epoch(),
      sp_->table().codec());
  EXPECT_EQ(wire.value(), in_process);
}

// A network adversary in front of the honest SP tampers its answer on the
// way back: the client must reject it, and the SP's own cache stays clean.
TEST_F(NetServingTest, PoisonedPlanRejected) {
  adversary::TamperingProxy proxy({.port = sp_server_->port()}, kRecSize);
  ASSERT_TRUE(proxy.Start().ok());
  net::NetSaeClient victim(net::NetSaeClientOptions{
      .sp = {.port = proxy.port()},
      .te = {.port = te_server_->port()},
      .owner = {.port = owner_server_->port()},
      .record_size = kRecSize});
  auto verified = victim.Query(QueryRequest::Scan(100, 400));
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailure)
      << verified.status().ToString();
  EXPECT_EQ(proxy.tampered(), 1u);
  proxy.Stop();
  EXPECT_TRUE(client_->Query(QueryRequest::Scan(100, 400)).ok());
}

// Without the owner's epoch an SAE client cannot tell a replayed old-epoch
// answer and token pair from a fresh one, so it refuses to run at all.
TEST_F(NetServingTest, ClientWithoutOwnerIsRejected) {
  net::NetSaeClientOptions options;
  options.sp = {.port = sp_server_->port()};
  options.te = {.port = te_server_->port()};
  options.record_size = kRecSize;
  net::NetSaeClient ownerless(options);  // owner endpoint left unset
  auto verified = ownerless.Query(QueryRequest::Scan(100, 400));
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ownerless.PublishedEpoch().status().code(),
            StatusCode::kInvalidArgument);
}

// The retired shutdown and poisoned-query tags are unknown to every party:
// each answers the error frame, keeps serving, and the SP caches nothing.
TEST_F(NetServingTest, RetiredControlTagsAreUnknown) {
  size_t cached = sp_->answer_cache().size();
  ASSERT_NO_FATAL_FAILURE(ExpectUnknownTags(sp_server_->port()));
  ASSERT_NO_FATAL_FAILURE(ExpectUnknownTags(te_server_->port()));
  ASSERT_NO_FATAL_FAILURE(ExpectUnknownTags(owner_server_->port()));
  EXPECT_EQ(sp_->answer_cache().size(), cached);
  EXPECT_TRUE(sp_server_->running());
  auto verified = client_->Query(QueryRequest::Scan(100, 400));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
}

TEST_F(NetServingTest, EveryPartySharesOneDispatch) {
  std::vector<uint8_t> query =
      core::SerializeQueryRequest(QueryRequest::Scan(100, 400));
  ASSERT_NO_FATAL_FAILURE(ExpectSharedDispatch(sp_server_->port(), 1, query, 1));
  ASSERT_NO_FATAL_FAILURE(ExpectSharedDispatch(te_server_->port(), 1, query, 1));
  published_epoch_ = 7;
  ASSERT_NO_FATAL_FAILURE(ExpectSharedDispatch(
      owner_server_->port(), 7, net::ControlFrame(net::kCtlGetEpoch), 1));
  published_epoch_ = 1;
  // The malformed frames changed nothing: the parties still verify.
  auto verified = client_->Query(QueryRequest::Scan(100, 400));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
}

TEST_F(NetServingTest, StaleSpDetected) {
  // An update reaches the TE and the DO publishes epoch 2, but the SP
  // never applies it: its claimed epoch lags and the client reports
  // staleness, not corruption.
  RecordCodec codec(kRecSize);
  Record extra = codec.MakeRecord(101, 105);
  net::ClientTransport te_link({.port = te_server_->port()});
  ASSERT_TRUE(
      net::CallExpectAck(&te_link, core::SerializeRecords({extra}, codec))
          .ok());
  ASSERT_TRUE(
      net::CallExpectAck(&te_link, core::SerializeEpochNotice(2)).ok());
  published_epoch_ = 2;

  auto verified = client_->Query(QueryRequest::Scan(100, 400));
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kStaleEpoch)
      << verified.status().ToString();

  // Once the SP catches up, the same query verifies again.
  net::ClientTransport sp_link({.port = sp_server_->port()});
  ASSERT_TRUE(
      net::CallExpectAck(&sp_link, core::SerializeRecords({extra}, codec))
          .ok());
  ASSERT_TRUE(
      net::CallExpectAck(&sp_link, core::SerializeEpochNotice(2)).ok());
  auto fresh = client_->Query(QueryRequest::Scan(100, 400));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().published_epoch, 2u);
}

TEST_F(NetServingTest, WireInsertAndDeleteRoundTrip) {
  RecordCodec codec(kRecSize);
  Record extra = codec.MakeRecord(200, 123);
  net::ClientTransport sp_link({.port = sp_server_->port()});
  net::ClientTransport te_link({.port = te_server_->port()});
  std::vector<uint8_t> records = core::SerializeRecords({extra}, codec);
  std::vector<uint8_t> notice = core::SerializeEpochNotice(2);
  ASSERT_TRUE(net::CallExpectAck(&sp_link, records).ok());
  ASSERT_TRUE(net::CallExpectAck(&te_link, records).ok());
  ASSERT_TRUE(net::CallExpectAck(&sp_link, notice).ok());
  ASSERT_TRUE(net::CallExpectAck(&te_link, notice).ok());
  published_epoch_ = 2;

  auto verified = client_->Query(QueryRequest::Point(123));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  ASSERT_EQ(verified.value().witness.size(), 1u);
  EXPECT_EQ(verified.value().witness[0], extra);

  std::vector<uint8_t> del = core::SerializeDelete(extra.id, extra.key);
  std::vector<uint8_t> notice3 = core::SerializeEpochNotice(3);
  ASSERT_TRUE(net::CallExpectAck(&sp_link, del).ok());
  ASSERT_TRUE(net::CallExpectAck(&te_link, del).ok());
  ASSERT_TRUE(net::CallExpectAck(&sp_link, notice3).ok());
  ASSERT_TRUE(net::CallExpectAck(&te_link, notice3).ok());
  published_epoch_ = 3;

  auto gone = client_->Query(QueryRequest::Point(123));
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  EXPECT_TRUE(gone.value().witness.empty());
}

TEST_F(NetServingTest, ConcurrentClientsAllVerify) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      // Each thread drives its own pooled client (its own connections).
      net::NetSaeClient client(net::NetSaeClientOptions{
          .sp = {.port = sp_server_->port()},
          .te = {.port = te_server_->port()},
          .owner = {.port = owner_server_->port()},
          .record_size = kRecSize});
      for (int q = 0; q < kQueriesPerThread; ++q) {
        uint32_t lo = uint32_t((t * 37 + q * 13) % 900);
        auto verified = client.Query(QueryRequest::Scan(lo, lo + 100));
        if (!verified.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(sp_server_->connections_accepted(),
            uint64_t(kThreads));
}

// A poisoned answer-cache entry persists: the server keeps serving it
// unchanged to honest queries for the same request, and the networked
// client keeps rejecting it, until an epoch bump flushes the cache.
TEST_F(NetServingTest, PoisonedCachePersistsUntilEpochBump) {
  QueryRequest request = QueryRequest::Scan(100, 400);
  ASSERT_TRUE(adversary::PoisonCache(sp_.get(), request).ok());
  auto poisoned = client_->Query(request);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kVerificationFailure);
  core::AnswerCacheStats before = sp_->answer_cache_stats();
  for (int i = 0; i < 2; ++i) {
    auto replayed = client_->Query(request);
    ASSERT_FALSE(replayed.ok()) << "honest query " << i;
    EXPECT_EQ(replayed.status().code(), StatusCode::kVerificationFailure)
        << replayed.status().ToString();
  }
  EXPECT_EQ((sp_->answer_cache_stats() - before).hits, 2u);
  // Another request misses the poisoned entry and verifies.
  auto other = client_->Query(QueryRequest::Scan(100, 401));
  ASSERT_TRUE(other.ok()) << other.status().ToString();

  net::ClientTransport sp_link({.port = sp_server_->port()});
  net::ClientTransport te_link({.port = te_server_->port()});
  std::vector<uint8_t> notice = core::SerializeEpochNotice(2);
  ASSERT_TRUE(net::CallExpectAck(&sp_link, notice).ok());
  ASSERT_TRUE(net::CallExpectAck(&te_link, notice).ok());
  published_epoch_ = 2;
  auto fresh = client_->Query(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().claimed_epoch, 2u);
}

// The SP fails a query with an error frame, the DO moves to epoch 2, and
// the SP then serves its pre-update answer. The TE and owner responses of
// the failed query must not wait in the pool for the retry: the retry reads
// the epoch-2 token and epoch, so its epoch-1 answer is stale.
TEST_F(NetServingTest, ErrorFrameThenStaleAnswerIsRejected) {
  const QueryRequest request = QueryRequest::Scan(100, 400);
  net::ClientTransport sp_link({.port = sp_server_->port()});
  auto stale = sp_link.Call(core::SerializeQueryRequest(request));
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  std::unique_ptr<net::FrameServer> sp =
      ErrorThenStaleSp(sp_server_->port(), {stale.value()});
  ASSERT_TRUE(sp->Start().ok());
  net::NetSaeClient victim(net::NetSaeClientOptions{
      .sp = {.port = sp->port()},
      .te = {.port = te_server_->port()},
      .owner = {.port = owner_server_->port()},
      .record_size = kRecSize});

  auto failed = victim.Query(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
      << failed.status().ToString();

  RecordCodec codec(kRecSize);
  Record extra = codec.MakeRecord(101, 105);
  net::ClientTransport te_link({.port = te_server_->port()});
  for (net::ClientTransport* link : {&sp_link, &te_link}) {
    ASSERT_TRUE(
        net::CallExpectAck(link, core::SerializeRecords({extra}, codec)).ok());
    ASSERT_TRUE(net::CallExpectAck(link, core::SerializeEpochNotice(2)).ok());
  }
  published_epoch_ = 2;

  auto retry = victim.Query(request);
  ASSERT_FALSE(retry.ok()) << "accepted an answer claiming epoch "
                           << retry.value().claimed_epoch << " at published "
                           << retry.value().published_epoch;
  EXPECT_EQ(retry.status().code(), StatusCode::kStaleEpoch)
      << retry.status().ToString();

  auto honest = victim.Query(request);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_EQ(honest.value().claimed_epoch, 2u);
  EXPECT_EQ(honest.value().published_epoch, 2u);
  sp->Stop();
}

// The SP reads a query and closes the socket without an answer: the SP
// leg's receive fails mid-exchange while the TE and owner responses are
// still unread. The next query, for another range, must get its own token.
TEST_F(NetServingTest, SpClosingMidExchangeLeavesNoUnreadResponse) {
  std::atomic<bool> read{false};
  auto dropper = std::make_unique<net::FrameServer>(
      net::FrameServerOptions{},
      [&read](std::vector<uint8_t>, std::vector<net::SharedPayload>*) {
        read = true;
      });
  ASSERT_TRUE(dropper->Start().ok());
  const uint16_t port = dropper->port();
  net::NetSaeClient victim(net::NetSaeClientOptions{
      .sp = {.port = port},
      .te = {.port = te_server_->port()},
      .owner = {.port = owner_server_->port()},
      .record_size = kRecSize});
  // Stop closes the connection the query is waiting on.
  std::thread closer([&] {
    while (!read.load()) std::this_thread::yield();
    dropper->Stop();
  });
  auto dropped = victim.Query(QueryRequest::Scan(100, 400));
  closer.join();
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kIoError)
      << dropped.status().ToString();

  // The honest SP takes over the port.
  dropper.reset();
  net::SpServer honest(sp_.get(), {.port = port});
  ASSERT_TRUE(honest.Start().ok());
  auto verified = victim.Query(QueryRequest::Scan(200, 300));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value().witness.size(), 11u);
  honest.Stop();
}

// The server queues shared payloads and resumes them across short writes:
// 32 pipelined 250 KB answers — most of them the one cached buffer — must
// each arrive byte-identical to the golden encoding. The client holds its
// receive window small and reads only after the server has queued
// everything, so the 8 MB outrun any socket send buffer and the server
// goes through partial sends and EPOLLOUT resumption.
TEST(SharedPayloadFramingTest, PipelinedLargeAnswersSurviveShortWrites) {
  RecordCodec codec(kRecSize);
  core::ServiceProviderOptions options;
  options.record_size = kRecSize;
  core::ServiceProvider sp(options);
  std::vector<Record> dataset = Dataset(4000);
  ASSERT_TRUE(sp.LoadDataset(dataset).ok());
  sp.SetEpoch(1);
  net::SpServer server(&sp);
  ASSERT_TRUE(server.Start().ok());

  std::vector<QueryRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(i % 8 == 3 ? QueryRequest::Scan(10, 40000)
                                  : QueryRequest::Scan(0, 40000));
  }
  auto fd = net::ConnectTcp({.port = server.port()});
  ASSERT_TRUE(fd.ok());
  net::UniqueFd conn(fd.value());
  int small = 64 * 1024;
  ASSERT_EQ(::setsockopt(conn.get(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)), 0);
  ASSERT_EQ(::setsockopt(conn.get(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)), 0);
  std::vector<uint8_t> pipelined;
  for (const QueryRequest& request : requests) {
    std::vector<uint8_t> bytes = core::SerializeQueryRequest(request);
    net::AppendFrame(&pipelined, bytes.data(), bytes.size());
  }
  ASSERT_TRUE(
      net::SendAll(conn.get(), pipelined.data(), pipelined.size()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto golden = [&](const QueryRequest& request) {
    std::vector<Record> witness;
    for (const Record& r : dataset) {
      if (r.key >= request.lo && r.key <= request.hi) witness.push_back(r);
    }
    return core::SerializeQueryAnswer(dbms::EvaluateAnswer(request, witness),
                                      witness, 1, codec);
  };
  const std::vector<uint8_t> golden_all = golden(requests[0]);
  const std::vector<uint8_t> golden_tail = golden(requests[3]);
  ASSERT_GE(golden_tail.size(), 200u * 1024);
  net::FrameDecoder decoder;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto frame = net::RecvFrame(conn.get(), &decoder);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value(), requests[i].lo == 0 ? golden_all : golden_tail)
        << "response " << i;
  }
  // Each of the two requests misses twice: declined, then admitted.
  EXPECT_EQ(sp.answer_cache_stats().misses, 4u);
  EXPECT_EQ(sp.answer_cache_stats().hits, requests.size() - 4);
  server.Stop();
}

// --- networked TOM deployment ---------------------------------------------------

class TomNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::TomDataOwnerOptions owner_options;
    owner_options.record_size = kRecSize;
    owner_ = std::make_unique<core::TomDataOwner>(owner_options);
    core::TomServiceProviderOptions sp_options;
    sp_options.record_size = kRecSize;
    sp_ = std::make_unique<core::TomServiceProvider>(sp_options);
    dataset_ = Dataset(100);
    ASSERT_TRUE(owner_->LoadDataset(dataset_).ok());

    sp_server_ = std::make_unique<net::TomSpServer>(sp_.get());
    ASSERT_TRUE(sp_server_->Start().ok());
    owner_server_ = std::make_unique<net::OwnerServer>(
        [this] { return owner_->epoch(); });
    ASSERT_TRUE(owner_server_->Start().ok());

    // Wire-load: records frame, then the committing signature frame.
    RecordCodec codec(kRecSize);
    net::ClientTransport sp_link({.port = sp_server_->port()});
    ASSERT_TRUE(
        net::CallExpectAck(&sp_link, core::SerializeRecords(dataset_, codec))
            .ok());
    ASSERT_TRUE(net::CallExpectAck(
                    &sp_link, core::SerializeSignature(owner_->signature(),
                                                       owner_->epoch()))
                    .ok());

    client_ = std::make_unique<net::NetTomClient>(net::NetTomClientOptions{
        .sp = {.port = sp_server_->port()},
        .owner = {.port = owner_server_->port()},
        .owner_key = owner_->public_key(),
        .record_size = kRecSize});
  }

  void TearDown() override {
    sp_server_->Stop();
    owner_server_->Stop();
  }

  std::unique_ptr<core::TomDataOwner> owner_;
  std::unique_ptr<core::TomServiceProvider> sp_;
  std::unique_ptr<net::TomSpServer> sp_server_;
  std::unique_ptr<net::OwnerServer> owner_server_;
  std::unique_ptr<net::NetTomClient> client_;
  std::vector<Record> dataset_;
};

TEST_F(TomNetTest, OperatorsVerifyOverTheWire) {
  std::vector<QueryRequest> requests = {
      QueryRequest::Scan(100, 400), QueryRequest::Count(100, 400),
      QueryRequest::Sum(100, 400), QueryRequest::TopK(100, 400, 5)};
  for (const QueryRequest& request : requests) {
    auto verified = client_->Query(request);
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    EXPECT_EQ(verified.value().vo_epoch, owner_->epoch());
  }
}

TEST_F(TomNetTest, PoisonedPlanRejected) {
  adversary::TamperingProxy proxy({.port = sp_server_->port()}, kRecSize,
                                  /*answer_frames=*/2);
  ASSERT_TRUE(proxy.Start().ok());
  net::NetTomClient victim(net::NetTomClientOptions{
      .sp = {.port = proxy.port()},
      .owner = {.port = owner_server_->port()},
      .owner_key = owner_->public_key(),
      .record_size = kRecSize});
  auto verified = victim.Query(QueryRequest::Scan(100, 400));
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailure)
      << verified.status().ToString();
  EXPECT_EQ(proxy.tampered(), 1u);
  proxy.Stop();
  EXPECT_TRUE(client_->Query(QueryRequest::Scan(100, 400)).ok());
}

// A query the SP fails gets one error frame, with no VO frame after it:
// the proxy must relay it and go on serving instead of waiting for a
// second frame.
TEST_F(TomNetTest, TamperingProxyRelaysSpErrors) {
  adversary::TamperingProxy proxy({.port = sp_server_->port()}, kRecSize,
                                  /*answer_frames=*/2);
  ASSERT_TRUE(proxy.Start().ok());
  net::ClientTransport link({.port = proxy.port()});
  auto response =
      link.Call(core::SerializeQueryRequest(QueryRequest::Scan(400, 100)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(net::CheckFrame(response.value()).ok());
  EXPECT_EQ(proxy.tampered(), 0u);
  net::NetTomClient victim(net::NetTomClientOptions{
      .sp = {.port = proxy.port()},
      .owner = {.port = owner_server_->port()},
      .owner_key = owner_->public_key(),
      .record_size = kRecSize});
  auto verified = victim.Query(QueryRequest::Scan(100, 400));
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailure)
      << verified.status().ToString();
  EXPECT_EQ(proxy.tampered(), 1u);
  proxy.Stop();
}

TEST_F(TomNetTest, RetiredControlTagsAreUnknown) {
  size_t cached = sp_->answer_cache().size();
  ASSERT_NO_FATAL_FAILURE(ExpectUnknownTags(sp_server_->port()));
  ASSERT_NO_FATAL_FAILURE(ExpectUnknownTags(owner_server_->port()));
  EXPECT_EQ(sp_->answer_cache().size(), cached);
  auto verified = client_->Query(QueryRequest::Scan(100, 400));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
}

TEST_F(TomNetTest, SpSharesTheOneDispatch) {
  ASSERT_NO_FATAL_FAILURE(ExpectSharedDispatch(
      sp_server_->port(), owner_->epoch(),
      core::SerializeQueryRequest(QueryRequest::Scan(100, 400)), 2));
  auto verified = client_->Query(QueryRequest::Scan(100, 400));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
}

// Without the owner's epoch a TOM client cannot tell a replayed old-epoch
// VO from a fresh one, so it refuses to run at all.
TEST_F(TomNetTest, ClientWithoutOwnerIsRejected) {
  net::NetTomClientOptions options;
  options.sp = {.port = sp_server_->port()};
  options.owner_key = owner_->public_key();
  options.record_size = kRecSize;
  net::NetTomClient ownerless(options);  // owner endpoint left unset
  auto verified = ownerless.Query(QueryRequest::Scan(100, 400));
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ownerless.PublishedEpoch().status().code(),
            StatusCode::kInvalidArgument);
}

// TOM's poisoned cache entry persists likewise until the DO installs a
// signature at a new epoch (TOM's epoch notice), which flushes the cache.
TEST_F(TomNetTest, PoisonedCachePersistsUntilEpochBump) {
  QueryRequest request = QueryRequest::Scan(100, 400);
  ASSERT_TRUE(adversary::PoisonCache(sp_.get(), request).ok());
  auto poisoned = client_->Query(request);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kVerificationFailure);
  core::AnswerCacheStats before = sp_->answer_cache_stats();
  for (int i = 0; i < 2; ++i) {
    auto replayed = client_->Query(request);
    ASSERT_FALSE(replayed.ok()) << "honest query " << i;
    EXPECT_EQ(replayed.status().code(), StatusCode::kVerificationFailure)
        << replayed.status().ToString();
  }
  EXPECT_EQ((sp_->answer_cache_stats() - before).hits, 2u);
  auto other = client_->Query(QueryRequest::Scan(100, 401));
  ASSERT_TRUE(other.ok()) << other.status().ToString();

  ASSERT_TRUE(owner_->RestoreEpoch(owner_->epoch() + 1).ok());
  net::ClientTransport sp_link({.port = sp_server_->port()});
  ASSERT_TRUE(net::CallExpectAck(
                  &sp_link, core::SerializeSignature(owner_->signature(),
                                                     owner_->epoch()))
                  .ok());
  auto fresh = client_->Query(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().vo_epoch, owner_->epoch());
}

TEST_F(TomNetTest, WireInsertCommitsWithSignature) {
  RecordCodec codec(kRecSize);
  Record extra = codec.MakeRecord(101, 105);
  ASSERT_TRUE(owner_->InsertRecord(extra).ok());

  net::ClientTransport sp_link({.port = sp_server_->port()});
  ASSERT_TRUE(
      net::CallExpectAck(&sp_link, core::SerializeRecords({extra}, codec))
          .ok());
  ASSERT_TRUE(net::CallExpectAck(
                  &sp_link, core::SerializeSignature(owner_->signature(),
                                                     owner_->epoch()))
                  .ok());

  auto verified = client_->Query(QueryRequest::Point(105));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  ASSERT_EQ(verified.value().witness.size(), 1u);
  EXPECT_EQ(verified.value().witness[0], extra);
}

// The TOM counterpart: the SP fails a query with an error frame, the DO
// signs epoch 2, and the SP then serves its pre-update answer and VO. The
// owner's response to the failed query must not be read by the retry.
TEST_F(TomNetTest, ErrorFrameThenStaleVoIsRejected) {
  const QueryRequest request = QueryRequest::Scan(100, 400);
  const std::vector<uint8_t> query = core::SerializeQueryRequest(request);
  net::ClientTransport sp_link({.port = sp_server_->port()});
  auto stale = net::Exchange({{&sp_link, query, 2}});
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  ASSERT_EQ(stale.value()[0].size(), 2u);
  std::unique_ptr<net::FrameServer> sp =
      ErrorThenStaleSp(sp_server_->port(), stale.value()[0]);
  ASSERT_TRUE(sp->Start().ok());
  net::NetTomClient victim(net::NetTomClientOptions{
      .sp = {.port = sp->port()},
      .owner = {.port = owner_server_->port()},
      .owner_key = owner_->public_key(),
      .record_size = kRecSize});

  auto failed = victim.Query(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
      << failed.status().ToString();

  RecordCodec codec(kRecSize);
  Record extra = codec.MakeRecord(101, 105);
  ASSERT_TRUE(owner_->InsertRecord(extra).ok());
  ASSERT_TRUE(
      net::CallExpectAck(&sp_link, core::SerializeRecords({extra}, codec))
          .ok());
  ASSERT_TRUE(net::CallExpectAck(
                  &sp_link, core::SerializeSignature(owner_->signature(),
                                                     owner_->epoch()))
                  .ok());

  auto retry = victim.Query(request);
  ASSERT_FALSE(retry.ok()) << "accepted a VO of epoch "
                           << retry.value().vo_epoch << " at owner epoch "
                           << owner_->epoch();
  EXPECT_EQ(retry.status().code(), StatusCode::kStaleEpoch)
      << retry.status().ToString();

  auto honest = victim.Query(request);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_EQ(honest.value().vo_epoch, owner_->epoch());
  sp->Stop();
}

// --- server lifetime -------------------------------------------------------------

// Destroys a running server while a client thread keeps sending on a
// connection it opened before: pipelined bursts keep the loop thread inside
// the handler when the destructor stops it. The handler owns all serving
// state, so nothing it touches is gone before the loop thread is joined
// (the ASan and TSan jobs run this). `request` is answered with `frames`
// frames.
template <typename Server>
void DestroyWhileSending(std::unique_ptr<Server> server,
                         const std::vector<uint8_t>& request, size_t frames) {
  ASSERT_TRUE(server->Start().ok());
  auto fd = net::ConnectTcp({.port = server->port()});
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::UniqueFd conn(fd.value());
  constexpr size_t kBurst = 8;
  std::vector<uint8_t> burst;
  for (size_t i = 0; i < kBurst; ++i) {
    net::AppendFrame(&burst, request.data(), request.size());
  }
  std::atomic<uint64_t> answered{0};
  std::thread client([&] {
    // Runs until the dying server drops the connection.
    net::FrameDecoder decoder;
    for (;;) {
      if (!net::SendAll(conn.get(), burst.data(), burst.size()).ok()) return;
      for (size_t i = 0; i < kBurst * frames; ++i) {
        if (!net::RecvFrame(conn.get(), &decoder).ok()) return;
      }
      answered.fetch_add(kBurst);
    }
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (answered.load() < 4 * kBurst &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(answered.load(), 4 * kBurst);
  server.reset();
  client.join();
}

TEST(ServerLifetimeTest, EveryServerDiesCleanlyWhileAClientSends) {
  RecordCodec codec(kRecSize);
  std::vector<Record> dataset = Dataset(100);
  std::vector<uint8_t> query =
      core::SerializeQueryRequest(QueryRequest::Scan(100, 400));

  core::ServiceProviderOptions sp_options;
  sp_options.record_size = kRecSize;
  core::ServiceProvider sp(sp_options);
  ASSERT_TRUE(sp.LoadDataset(dataset).ok());
  sp.SetEpoch(1);
  core::TrustedEntityOptions te_options;
  te_options.record_size = kRecSize;
  core::TrustedEntity te(te_options);
  ASSERT_TRUE(te.LoadDataset(dataset).ok());
  te.SetEpoch(1);
  core::TomDataOwnerOptions owner_options;
  owner_options.record_size = kRecSize;
  core::TomDataOwner owner(owner_options);
  ASSERT_TRUE(owner.LoadDataset(dataset).ok());
  core::TomServiceProviderOptions tom_options;
  tom_options.record_size = kRecSize;
  core::TomServiceProvider tom_sp(tom_options);
  ASSERT_TRUE(
      tom_sp.LoadDataset(dataset, owner.signature(), owner.epoch()).ok());

  DestroyWhileSending(std::make_unique<net::SpServer>(&sp), query, 1);
  DestroyWhileSending(std::make_unique<net::TeServer>(&te), query, 1);
  DestroyWhileSending(std::make_unique<net::TomSpServer>(&tom_sp), query, 2);
  DestroyWhileSending(
      std::make_unique<net::OwnerServer>([] { return uint64_t(1); }),
      net::ControlFrame(net::kCtlGetEpoch), 1);
  net::SpServer upstream(&sp);
  ASSERT_TRUE(upstream.Start().ok());
  DestroyWhileSending(std::make_unique<adversary::TamperingProxy>(
                          net::Endpoint{.port = upstream.port()}, kRecSize),
                      query, 1);
  upstream.Stop();
}

}  // namespace
}  // namespace sae
