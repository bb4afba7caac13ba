// Copyright (c) saedb authors. Licensed under the MIT license.
//
// A small epoll-based frame server: one event-loop thread per server,
// nonblocking sockets, per-connection read/write buffers that tolerate
// partial reads and short writes. Each complete request frame is handed to
// the handler, which appends zero or more response frame payloads; the
// responses are queued on the connection as shared payloads — never copied
// into a send buffer — and flushed header + payload with sendmsg as the
// socket drains (EPOLLOUT is armed only while a write is pending).
//
// One loop thread serializes all handler executions for a server, which is
// exactly the concurrency contract the wrapped parties already have (their
// query paths are thread-safe, their update paths assume a single writer) —
// and on the paper's topology each party is its own process anyway, so SP
// and TE still execute in parallel from the client's point of view.

#ifndef SAE_NET_EVENT_LOOP_H_
#define SAE_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "util/status.h"

namespace sae::net {

/// Handles one request frame. `responses` receives the response payloads
/// (each becomes one frame, in order); the server holds each shared payload
/// until its last byte is on the wire.
using FrameHandler = std::function<void(std::vector<uint8_t> request,
                                        std::vector<SharedPayload>* responses)>;

struct FrameServerOptions {
  uint16_t port = 0;  ///< 0 picks an ephemeral port (see FrameServer::port)
};

/// A TCP server speaking the length-prefixed frame protocol. Frames above
/// kMaxFramePayload poison their connection. The party endpoints
/// (net/server.h) and the test-side tampering proxy derive from it and add
/// only a constructor: their handler owns all of their serving state, since
/// the loop thread runs it until the destructor here has joined it.
class FrameServer {
 public:
  FrameServer(FrameServerOptions options, FrameHandler handler);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens and spawns the event-loop thread.
  Status Start();

  /// The bound port (valid after Start; resolves an ephemeral request).
  uint16_t port() const { return port_; }

  /// Signals the loop to exit, joins it and closes the listening socket;
  /// idempotent. Open connections are closed without flushing, and a
  /// later dial to the port is refused.
  void Stop();

  /// True while the event loop runs: from Start until Stop.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Loop-lifetime counters, readable from any thread.
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for protocol violations (poisoned frame streams —
  /// e.g. a lying length prefix); the guard the fuzzer exercises.
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

  /// The server itself: perfbench (net_cold.cc) reads protocol_errors()
  /// through this name. Other callers use the counters directly.
  const FrameServer& frame_server() const { return *this; }

 private:
  /// A queued response frame: its own header, the shared payload.
  struct OutFrame {
    uint8_t header[kFrameHeaderBytes];
    SharedPayload payload;

    size_t size() const { return kFrameHeaderBytes + payload->size(); }
  };

  struct Conn {
    UniqueFd fd;
    FrameDecoder decoder;
    std::deque<OutFrame> out;  ///< frames awaiting the socket, in order
    size_t out_sent = 0;       ///< bytes of out.front() already written
    bool writable_armed = false;

    explicit Conn(int raw_fd) : fd(raw_fd) {}
  };

  void Loop();
  void AcceptAll();
  /// Reads until EAGAIN; dispatches complete frames. False = drop the conn.
  bool HandleReadable(Conn* conn);
  /// Flushes what the socket accepts; arms/disarms EPOLLOUT. False = drop.
  bool HandleWritable(Conn* conn);
  void CloseConn(int fd);
  Status UpdateEpoll(Conn* conn);

  FrameServerOptions options_;
  FrameHandler handler_;
  UniqueFd listen_fd_;
  UniqueFd epoll_fd_;
  UniqueFd wake_fd_;  ///< eventfd: Stop() pokes the loop out of epoll_wait
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace sae::net

#endif  // SAE_NET_EVENT_LOOP_H_
