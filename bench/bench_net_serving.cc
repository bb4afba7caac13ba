// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Networked serving-tier load generator: drives many concurrent SAE
// clients — each a pair of sockets running the paper's parallel SP+TE
// fan-out — against real TCP servers, verifies every single answer, and
// reports sustained q/s with p50/p99/p999 latency.
//
// Each load thread runs an epoll engine over its share of the logical
// clients, so a thousand-plus concurrent connections don't need a
// thousand threads: a client writes its QueryRequest to SP and TE
// back-to-back (the round trips overlap on the wire), waits for both
// responses, runs the full client-side check (core::Client::VerifyAnswer),
// records the latency, and immediately issues its next query.
//
// Env knobs:
//   SAE_NET_CLIENTS      logical clients (2 sockets each; default 512)
//   SAE_NET_THREADS      load-generator threads (default 4)
//   SAE_NET_DURATION_MS  measured window per run (default 2000)
//   SAE_NET_RECORDS      dataset cardinality (default 10000)
//   SAE_BENCH_JSON       output file (default BENCH_net.json)
//
// A malicious-SP probe runs after the load phase: the SP's answer cache is
// poisoned in process, and a networked client served the poisoned entry
// must reject it — the run fails otherwise.

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adversary.h"
#include "core/client.h"
#include "core/messages.h"
#include "core/service_provider.h"
#include "core/trusted_entity.h"
#include "dbms/query.h"
#include "net/client_transport.h"
#include "net/server.h"
#include "net/socket.h"
#include "util/macros.h"
#include "util/random.h"

using namespace sae;

namespace {

constexpr size_t kRecordSize = 64;

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  long v = std::atol(env);
  return v > 0 ? size_t(v) : fallback;
}

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One direction of a logical client: a nonblocking socket plus its frame
// decoder and pending-write buffer.
struct ConnState {
  net::UniqueFd fd;
  net::FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  bool write_armed = false;
};

struct ClientState {
  ConnState sp;
  ConnState te;
  dbms::QueryRequest request;
  std::vector<uint8_t> answer_bytes;
  std::vector<uint8_t> vt_bytes;
  bool have_answer = false;
  bool have_vt = false;
  Clock::time_point issued;
};

struct ThreadResult {
  std::vector<double> latencies_ms;
  uint64_t completed = 0;
  uint64_t verify_failures = 0;
  uint64_t io_failures = 0;
};

dbms::QueryRequest RandomRequest(Rng* rng, uint32_t max_key) {
  uint32_t extent = std::max<uint32_t>(max_key / 200, 10);
  uint32_t lo = uint32_t(rng->NextBounded(max_key - extent));
  uint32_t hi = lo + extent;
  switch (rng->NextBounded(7)) {
    case 0: return dbms::QueryRequest::Scan(lo, hi);
    case 1: return dbms::QueryRequest::Point(lo);
    case 2: return dbms::QueryRequest::Count(lo, hi);
    case 3: return dbms::QueryRequest::Sum(lo, hi);
    case 4: return dbms::QueryRequest::Min(lo, hi);
    case 5: return dbms::QueryRequest::Max(lo, hi);
    default: return dbms::QueryRequest::TopK(lo, hi, 5);
  }
}

// The epoll engine driving `n_clients` closed-loop clients for
// `duration_ms`. Returns per-query latencies and failure counts.
class LoadEngine {
 public:
  LoadEngine(uint16_t sp_port, uint16_t te_port, size_t n_clients,
             uint64_t published_epoch, uint64_t seed)
      : sp_port_(sp_port), te_port_(te_port), codec_(kRecordSize),
        published_epoch_(published_epoch), rng_(seed) {
    clients_.resize(n_clients);
  }

  ThreadResult Run(double duration_ms, uint32_t max_key) {
    ThreadResult result;
    epoll_fd_ = net::UniqueFd(::epoll_create1(0));
    SAE_CHECK(epoll_fd_.valid());
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (!Connect(i)) {
        result.io_failures++;
        return result;  // a bench box that can't connect is fatal anyway
      }
    }
    max_key_ = max_key;
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < clients_.size(); ++i) IssueQuery(i, &result);

    std::vector<epoll_event> events(256);
    while (MsSince(start) < duration_ms) {
      int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                           int(events.size()), 50);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int e = 0; e < n; ++e) {
        size_t idx = size_t(events[e].data.u64 >> 1);
        bool is_te = (events[e].data.u64 & 1) != 0;
        ClientState& client = clients_[idx];
        ConnState& conn = is_te ? client.te : client.sp;
        if (events[e].events & (EPOLLHUP | EPOLLERR)) {
          result.io_failures++;
          continue;
        }
        if (events[e].events & EPOLLOUT) Flush(&conn, idx, is_te);
        if (events[e].events & EPOLLIN) {
          if (!Drain(&conn, idx, is_te, &result)) result.io_failures++;
        }
      }
    }
    result.latencies_ms = std::move(latencies_);
    return result;
  }

 private:
  bool Connect(size_t idx) {
    auto sp_fd = net::ConnectTcp({.port = sp_port_});
    auto te_fd = net::ConnectTcp({.port = te_port_});
    if (!sp_fd.ok() || !te_fd.ok()) return false;
    clients_[idx].sp.fd = net::UniqueFd(sp_fd.value());
    clients_[idx].te.fd = net::UniqueFd(te_fd.value());
    if (!net::SetNonBlocking(clients_[idx].sp.fd.get()).ok()) return false;
    if (!net::SetNonBlocking(clients_[idx].te.fd.get()).ok()) return false;
    return Arm(idx, /*is_te=*/false, /*add=*/true) &&
           Arm(idx, /*is_te=*/true, /*add=*/true);
  }

  bool Arm(size_t idx, bool is_te, bool add) {
    ConnState& conn = is_te ? clients_[idx].te : clients_[idx].sp;
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.write_armed ? EPOLLOUT : 0u);
    ev.data.u64 = (uint64_t(idx) << 1) | (is_te ? 1u : 0u);
    return ::epoll_ctl(epoll_fd_.get(), add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD,
                       conn.fd.get(), &ev) == 0;
  }

  void IssueQuery(size_t idx, ThreadResult* result) {
    ClientState& client = clients_[idx];
    client.request = RandomRequest(&rng_, max_key_);
    client.have_answer = client.have_vt = false;
    client.answer_bytes.clear();
    client.vt_bytes.clear();
    client.issued = Clock::now();
    std::vector<uint8_t> request_bytes =
        core::SerializeQueryRequest(client.request);
    net::AppendFrame(&client.sp.out, request_bytes.data(),
                     request_bytes.size());
    net::AppendFrame(&client.te.out, request_bytes.data(),
                     request_bytes.size());
    Flush(&client.sp, idx, /*is_te=*/false);
    Flush(&client.te, idx, /*is_te=*/true);
    (void)result;
  }

  void Flush(ConnState* conn, size_t idx, bool is_te) {
    while (conn->out_pos < conn->out.size()) {
      ssize_t n = ::send(conn->fd.get(), conn->out.data() + conn->out_pos,
                         conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: wait for EPOLLOUT
      }
      conn->out_pos += size_t(n);
    }
    if (conn->out_pos == conn->out.size()) {
      conn->out.clear();
      conn->out_pos = 0;
    }
    bool want_write = !conn->out.empty();
    if (want_write != conn->write_armed) {
      conn->write_armed = want_write;
      Arm(idx, is_te, /*add=*/false);
    }
  }

  bool Drain(ConnState* conn, size_t idx, bool is_te, ThreadResult* result) {
    uint8_t buf[16 * 1024];
    for (;;) {
      ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      if (n == 0) return false;
      if (!conn->decoder.Feed(buf, size_t(n))) return false;
      if (size_t(n) < sizeof(buf)) break;
    }
    std::vector<uint8_t> frame;
    while (conn->decoder.Next(&frame)) {
      ClientState& client = clients_[idx];
      if (is_te) {
        client.vt_bytes = std::move(frame);
        client.have_vt = true;
      } else {
        client.answer_bytes = std::move(frame);
        client.have_answer = true;
      }
      if (client.have_answer && client.have_vt) {
        Complete(idx, result);
        IssueQuery(idx, result);
      }
    }
    return true;
  }

  void Complete(size_t idx, ThreadResult* result) {
    ClientState& client = clients_[idx];
    double latency = MsSince(client.issued);
    auto message = core::DeserializeQueryAnswer(client.answer_bytes, codec_);
    auto vt = core::DeserializeVt(client.vt_bytes);
    if (!message.ok() || !vt.ok()) {
      result->verify_failures++;
      return;
    }
    Status verdict = core::Client::VerifyAnswer(
        client.request, message.value().answer, message.value().witness,
        vt.value(), message.value().epoch, published_epoch_, codec_);
    if (!verdict.ok()) {
      result->verify_failures++;
      return;
    }
    result->completed++;
    latencies_.push_back(latency);
  }

  uint16_t sp_port_;
  uint16_t te_port_;
  storage::RecordCodec codec_;
  uint64_t published_epoch_;
  Rng rng_;
  uint32_t max_key_ = 0;
  net::UniqueFd epoll_fd_;
  std::vector<ClientState> clients_;
  std::vector<double> latencies_;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  size_t at = size_t(p * double(sorted->size() - 1));
  return (*sorted)[at];
}

}  // namespace

int main() {
  size_t n_clients = EnvSize("SAE_NET_CLIENTS", 512);
  size_t n_threads = EnvSize("SAE_NET_THREADS", 4);
  size_t duration_ms = EnvSize("SAE_NET_DURATION_MS", 2000);
  size_t n_records = EnvSize("SAE_NET_RECORDS", 10'000);
  if (n_threads > n_clients) n_threads = n_clients;

  // Build and load the parties in process, then put them behind TCP.
  storage::RecordCodec codec(kRecordSize);
  std::vector<storage::Record> dataset;
  dataset.reserve(n_records);
  for (uint64_t id = 1; id <= n_records; ++id) {
    dataset.push_back(codec.MakeRecord(id, uint32_t(id)));
  }
  core::ServiceProvider sp(core::ServiceProviderOptions{
      .record_size = kRecordSize, .answer_cache = {}});
  core::TrustedEntity te(core::TrustedEntityOptions{
      .record_size = kRecordSize, .xb_options = {}, .vt_cache = {}});
  SAE_CHECK_OK(sp.LoadDataset(dataset));
  SAE_CHECK_OK(te.LoadDataset(dataset));
  sp.SetEpoch(1);
  te.SetEpoch(1);

  net::SpServer sp_server(&sp);
  net::TeServer te_server(&te);
  net::OwnerServer owner_server([] { return uint64_t(1); });
  SAE_CHECK_OK(sp_server.Start());
  SAE_CHECK_OK(te_server.Start());
  SAE_CHECK_OK(owner_server.Start());

  std::printf(
      "# networked SAE serving: %zu clients (%zu connections), %zu load "
      "threads, %zu records, %zu ms window\n",
      n_clients, 2 * n_clients, n_threads, n_records, duration_ms);

  // Fetch the published epoch over the wire once — it is constant during
  // the load window (no updates run concurrently).
  net::ClientTransport owner_link({.port = owner_server.port()});
  auto published = net::FetchEpoch(&owner_link);
  SAE_CHECK(published.ok());

  std::vector<ThreadResult> results(n_threads);
  std::vector<std::thread> threads;
  Clock::time_point t0 = Clock::now();
  for (size_t t = 0; t < n_threads; ++t) {
    size_t share = n_clients / n_threads + (t < n_clients % n_threads);
    threads.emplace_back([&, t, share] {
      LoadEngine engine(sp_server.port(), te_server.port(), share,
                        published.value(), /*seed=*/0x5AE'0000 + t);
      results[t] = engine.Run(double(duration_ms), uint32_t(n_records));
    });
  }
  for (auto& thread : threads) thread.join();
  double wall_ms = MsSince(t0);

  std::vector<double> latencies;
  uint64_t completed = 0, verify_failures = 0, io_failures = 0;
  for (const ThreadResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    completed += r.completed;
    verify_failures += r.verify_failures;
    io_failures += r.io_failures;
  }
  std::sort(latencies.begin(), latencies.end());
  double qps = completed / (wall_ms / 1000.0);
  double p50 = Percentile(&latencies, 0.50);
  double p99 = Percentile(&latencies, 0.99);
  double p999 = Percentile(&latencies, 0.999);

  std::printf("# completed %llu queries in %.0f ms (all verified)\n",
              (unsigned long long)completed, wall_ms);
  std::printf("%10s %12s %10s %10s %10s\n", "q/s", "verified", "p50(ms)",
              "p99(ms)", "p999(ms)");
  std::printf("%10.0f %12llu %10.3f %10.3f %10.3f\n", qps,
              (unsigned long long)completed, p50, p99, p999);
  SAE_CHECK(verify_failures == 0);
  SAE_CHECK(io_failures == 0);

  // Malicious-SP probe: poison the SP's answer cache in process; the
  // networked client it then serves must reject the poisoned plan.
  dbms::QueryRequest probe_request =
      dbms::QueryRequest::Scan(1, uint32_t(n_records));
  SAE_CHECK(adversary::PoisonCache(&sp, probe_request).ok());
  net::NetSaeClient probe(net::NetSaeClientOptions{
      .sp = {.port = sp_server.port()},
      .te = {.port = te_server.port()},
      .owner = {.port = owner_server.port()},
      .record_size = kRecordSize});
  auto poisoned = probe.Query(probe_request);
  SAE_CHECK(!poisoned.ok());
  SAE_CHECK(poisoned.status().code() == StatusCode::kVerificationFailure);
  std::printf("# malicious-SP probe: rejected (%s)\n",
              poisoned.status().ToString().c_str());

  uint64_t accepted = sp_server.connections_accepted() +
                      te_server.connections_accepted();

  const char* json_path = std::getenv("SAE_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_net.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"net_serving\",\n"
                 "  \"clients\": %zu,\n"
                 "  \"connections\": %llu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"records\": %zu,\n"
                 "  \"duration_ms\": %.0f,\n"
                 "  \"qps\": %.1f,\n"
                 "  \"completed\": %llu,\n"
                 "  \"verify_failures\": %llu,\n"
                 "  \"p50_ms\": %.3f,\n"
                 "  \"p99_ms\": %.3f,\n"
                 "  \"p999_ms\": %.3f,\n"
                 "  \"poisoned_rejected\": true\n"
                 "}\n",
                 n_clients, (unsigned long long)accepted, n_threads,
                 n_records, wall_ms, qps, (unsigned long long)completed,
                 (unsigned long long)verify_failures, p50, p99, p999);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path);
  }

  sp_server.Stop();
  te_server.Stop();
  owner_server.Stop();
  return 0;
}
