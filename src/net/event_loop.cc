// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the epoll frame server (net/event_loop.h).

#include "net/event_loop.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::net {

namespace {

// iovec entries per sendmsg: two per frame (header, payload).
constexpr size_t kMaxIov = 64;

// Ready events taken per epoll_wait.
constexpr int kMaxEvents = 256;

}  // namespace

FrameServer::FrameServer(FrameServerOptions options, FrameHandler handler)
    : options_(options), handler_(std::move(handler)) {}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Start() {
  SAE_ASSIGN_OR_RETURN(int lfd, ListenTcp(options_.port));
  listen_fd_ = UniqueFd(lfd);
  SAE_RETURN_NOT_OK(SetNonBlocking(lfd));
  SAE_ASSIGN_OR_RETURN(port_, LocalPort(lfd));

  epoll_fd_ = UniqueFd(::epoll_create1(0));
  if (!epoll_fd_.valid()) return Status::IoError("epoll_create1 failed");
  wake_fd_ = UniqueFd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) return Status::IoError("eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = lfd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, lfd, &ev) != 0) {
    return Status::IoError("epoll_ctl(listen) failed");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    return Status::IoError("epoll_ctl(wake) failed");
  }

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void FrameServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_fd_.valid()) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wake_fd_.get(), &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void FrameServer::Loop() {
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t mask = events[i].events;
      if (fd == wake_fd_.get()) {
        uint64_t drain;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_.get(), &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_.get()) {
        AcceptAll();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      bool keep = true;
      if (mask & (EPOLLHUP | EPOLLERR)) keep = false;
      if (keep && (mask & EPOLLIN)) keep = HandleReadable(conn);
      if (keep && (mask & EPOLLOUT)) keep = HandleWritable(conn);
      if (!keep) CloseConn(fd);
    }
  }
  conns_.clear();
  running_.store(false, std::memory_order_release);
}

void FrameServer::AcceptAll() {
  for (;;) {
    int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: drained. Anything else: leave it for the next wakeup.
      return;
    }
    if (!SetNonBlocking(fd).ok() || !SetNoDelay(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // conn's UniqueFd closes it
    }
    conns_.emplace(fd, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool FrameServer::HandleReadable(Conn* conn) {
  uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) return false;  // peer closed
    if (!conn->decoder.Feed(buf, size_t(n))) {
      // Poisoned stream (lying length prefix): drop the connection without
      // ever having allocated the declared payload.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (size_t(n) < sizeof(buf)) break;  // likely drained
  }
  std::vector<uint8_t> request;
  while (conn->decoder.Next(&request)) {
    std::vector<SharedPayload> responses;
    handler_(std::move(request), &responses);
    for (SharedPayload& payload : responses) {
      OutFrame frame;
      EncodeU32(frame.header, uint32_t(payload->size()));
      frame.payload = std::move(payload);
      conn->out.push_back(std::move(frame));
    }
    served_.fetch_add(1, std::memory_order_relaxed);
  }
  return HandleWritable(conn);
}

bool FrameServer::HandleWritable(Conn* conn) {
  while (!conn->out.empty()) {
    // Gather header + payload of as many queued frames as fit, skipping
    // what a short write already flushed; the payloads are sent from the
    // shared buffers themselves.
    iovec iov[kMaxIov];
    size_t n_iov = 0;
    size_t skip = conn->out_sent;
    for (auto it = conn->out.begin();
         it != conn->out.end() && n_iov + 2 <= kMaxIov; ++it) {
      if (skip < kFrameHeaderBytes) {
        iov[n_iov++] = {it->header + skip, kFrameHeaderBytes - skip};
        skip = 0;
      } else {
        skip -= kFrameHeaderBytes;
      }
      if (skip < it->payload->size()) {
        iov[n_iov++] = {const_cast<uint8_t*>(it->payload->data()) + skip,
                        it->payload->size() - skip};
      }
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = ::sendmsg(conn->fd.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    // Retire fully written frames; remember how far into the next one the
    // socket got.
    size_t written = size_t(n);
    while (written > 0) {
      size_t rest = conn->out.front().size() - conn->out_sent;
      if (written < rest) {
        conn->out_sent += written;
        break;
      }
      written -= rest;
      conn->out.pop_front();
      conn->out_sent = 0;
    }
  }
  bool want_write = !conn->out.empty();
  if (want_write != conn->writable_armed) {
    conn->writable_armed = want_write;
    if (!UpdateEpoll(conn).ok()) return false;
  }
  return true;
}

Status FrameServer::UpdateEpoll(Conn* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->writable_armed ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev) != 0) {
    return Status::IoError("epoll_ctl(mod) failed");
  }
  return Status::OK();
}

void FrameServer::CloseConn(int fd) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(fd);  // UniqueFd closes the socket
}

}  // namespace sae::net
