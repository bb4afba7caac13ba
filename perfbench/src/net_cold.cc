// Copyright (c) saedb authors. Licensed under the MIT license.
//
// sae-net-cold: the SAE SP, TE and owner behind net::SpServer, TeServer and
// OwnerServer on 127.0.0.1. One generator thread runs 2 logical clients
// (an SP and a TE connection each) and pipelines requests. Every request
// is distinct (so every answer cache is bypassed), and each answer goes
// through core::Client::VerifyAnswer against the owner's published epoch.
//
// The window has three phases:
//  1. open-loop Poisson arrivals at a fixed nominal rate: open_p50_ms and
//     open_p99_ms from the due time, how late the generator ran, and
//     peak_rss_mb after this fixed amount of work;
//  2. closed loop, 4 requests in flight: query_qps, query_p50_ms and
//     query_p99_ms as medians over time blocks;
//  3. a binary search over a fixed ladder of rates 5% apart for
//     sustained_qps, the highest rate whose p99 stays within 10 ms without
//     a growing backlog.
// Of the latency figures only query_p50_ms is gated: on a shared VM the
// tails, and the throughput that follows them, track host stalls more
// than the program (README).

#include <errno.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>

#include "core/client.h"
#include "core/messages.h"
#include "core/service_provider.h"
#include "core/trusted_entity.h"
#include "net/client_transport.h"
#include "net/server.h"
#include "net/socket.h"
#include "workloads.h"

namespace perfbench {

using sae::dbms::QueryRequest;

namespace {

// Fixed absolute rates. The nominal rate sits near a third of the
// sustained rate measured on the reference host (README: at half of it the
// p99 spread too widely run to run); the ladder's rungs are 5% apart.
constexpr double kNominalRate = 1000.0;
constexpr double kLadderBase = 1000.0;
constexpr int kLadderRungs = 40;  // 1000 .. 6700 q/s
constexpr int kPipelineDepth = 4;  // closed loop: 2 in flight per client
constexpr int kClosedBlocks = 10;  // p50/p99/qps are medians over these
constexpr double kP99LimitMs = 10.0;
constexpr size_t kMinProbeSamples = 1100;
constexpr double kProbeWarmSeconds = 0.2;  // settles each probe's rate
constexpr double kProbeMaxQueueSeconds = 0.05;  // abort: 5x the p99 limit
constexpr uint64_t kOracleEvery = 32;
constexpr double kDrainSeconds = 5.0;
constexpr int kConnections = 4;  // 2 logical clients x (SP, TE)

struct Req {
  QueryRequest query;
  double due_us = 0, sent_us = 0, sp_us = 0, te_us = 0, done_us = 0;
  double decode_us = 0, verify_us = 0;
  bool sp = false, te = false, done = false, accepted = false, check = false;
  size_t sp_bytes = 0, te_bytes = 0;
  std::vector<uint8_t> sp_frame, te_frame;
};

struct Conn {
  sae::net::UniqueFd fd;
  sae::net::FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  bool write_armed = false;
  std::deque<size_t> inflight;  // request indices, in send order
};

class Generator {
 public:
  Generator(uint16_t sp_port, uint16_t te_port, uint64_t published,
            const Oracle* oracle, Report* report, uint64_t seed)
      : sp_port_(sp_port), te_port_(te_port), published_(published),
        oracle_(oracle), report_(report), codec_(kRecordSize),
        gen_(seed * 15485863 + 11), arrivals_(seed * 32452843 + 5),
        sampler_(seed * 49979687 + 13) {}

  bool Connect() {
    epoll_ = sae::net::UniqueFd(::epoll_create1(0));
    for (int i = 0; i < kConnections; ++i) {
      bool te = (i & 1) != 0;
      auto fd = sae::net::ConnectTcp({.port = te ? te_port_ : sp_port_});
      if (!fd.ok()) return false;
      conns_[i].fd = sae::net::UniqueFd(fd.value());
      if (!sae::net::SetNonBlocking(fd.value()).ok()) return false;
      (void)sae::net::SetNoDelay(fd.value());
      if (!Arm(i, true)) return false;
    }
    return true;
  }

  /// Issues Poisson arrivals at `rate` for `seconds`, then waits for every
  /// answer (up to kDrainSeconds). Returns the [first, last) request range
  /// and false when the drain timed out, the transport broke, or more than
  /// `max_outstanding` requests were in flight (issuing stops early: the
  /// backlog is growing).
  bool RunPhase(double rate, double seconds, size_t* first, size_t* last,
                size_t max_outstanding = SIZE_MAX) {
    *first = reqs_.size();
    double start = NowUs();
    double end = start + seconds * 1e6;
    double next = start + Gap(rate);
    bool ok = true;
    for (;;) {
      double now = NowUs();
      while (next <= now && next < end) {
        Issue(next);
        next += Gap(rate);
      }
      // One completion at a time, so due requests go out between them.
      if (!ready_.empty()) {
        Complete(&reqs_[ready_.front()]);
        ready_.pop_front();
        continue;
      }
      if (outstanding_ > max_outstanding) {
        ok = false;
        end = next;  // stop issuing; the drain below still runs
      }
      bool issuing = next < end;
      if (!issuing && outstanding_ == 0) break;
      if (broken_ || (!issuing && now > end + kDrainSeconds * 1e6)) {
        ok = false;
        break;
      }
      int timeout_ms = 5;
      if (issuing) {
        double wait_us = next - NowUs();
        timeout_ms = wait_us > 2000 ? int(wait_us / 1000) - 1 : 0;
      }
      Poll(timeout_ms);
    }
    *last = reqs_.size();
    CheckSampled();
    return ok;
  }

  /// Closed loop: keeps `depth` requests in flight (spread over both
  /// logical clients) for `seconds`; each completion issues the next
  /// request. Latency runs from the issue time.
  bool RunClosed(int depth, double seconds, size_t* first, size_t* last) {
    *first = reqs_.size();
    double end = NowUs() + seconds * 1e6;
    for (int i = 0; i < depth; ++i) Issue(NowUs());
    while (outstanding_ > 0 && !broken_) {
      if (!ready_.empty()) {
        Complete(&reqs_[ready_.front()]);
        ready_.pop_front();
        if (NowUs() < end) Issue(NowUs());
        continue;
      }
      if (NowUs() > end + kDrainSeconds * 1e6) break;
      Poll(0);
    }
    *last = reqs_.size();
    CheckSampled();
    return outstanding_ == 0 && !broken_;
  }

  /// Waits (bounded) for stragglers of a failed phase.
  void Drain(double seconds) {
    double end = NowUs() + seconds * 1e6;
    while (outstanding_ > 0 && !broken_ && NowUs() < end) {
      Poll(5);
      for (; !ready_.empty(); ready_.pop_front()) {
        Complete(&reqs_[ready_.front()]);
      }
    }
    CheckSampled();
  }

  std::vector<Req>& reqs() { return reqs_; }
  size_t oracle_checked() const { return checked_; }
  bool broken() const { return broken_; }

 private:
  double Gap(double rate) {
    double u = arrivals_.NextDouble();
    return -std::log(1.0 - u) / rate * 1e6;
  }

  bool Arm(int i, bool add) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conns_[i].write_armed ? EPOLLOUT : 0u);
    ev.data.u64 = uint64_t(i);
    return ::epoll_ctl(epoll_.get(), add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD,
                       conns_[i].fd.get(), &ev) == 0;
  }

  void Issue(double due_us) {
    size_t idx = reqs_.size();
    reqs_.emplace_back();
    Req& r = reqs_.back();
    r.query = gen_.Next();
    r.due_us = due_us;
    r.check = sampler_.NextBounded(kOracleEvery) == 0;
    std::vector<uint8_t> bytes = sae::core::SerializeQueryRequest(r.query);
    int client = int(idx % 2);
    for (int leg = 0; leg < 2; ++leg) {
      Conn& c = conns_[2 * client + leg];
      sae::net::AppendFrame(&c.out, bytes.data(), bytes.size());
      c.inflight.push_back(idx);
      Flush(2 * client + leg);
    }
    reqs_[idx].sent_us = NowUs();
    ++outstanding_;
  }

  void Flush(int i) {
    Conn& c = conns_[i];
    while (c.out_pos < c.out.size()) {
      ssize_t n = ::send(c.fd.get(), c.out.data() + c.out_pos,
                         c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) broken_ = true;
        break;
      }
      c.out_pos += size_t(n);
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    bool want = !c.out.empty();
    if (want != c.write_armed) {
      c.write_armed = want;
      Arm(i, false);
    }
  }

  void Poll(int timeout_ms) {
    epoll_event events[kConnections];
    int n = ::epoll_wait(epoll_.get(), events, kConnections, timeout_ms);
    for (int e = 0; e < n; ++e) {
      int i = int(events[e].data.u64);
      if (events[e].events & (EPOLLHUP | EPOLLERR)) broken_ = true;
      if (events[e].events & EPOLLOUT) Flush(i);
      if (events[e].events & EPOLLIN) Receive(i);
    }
  }

  void Receive(int i) {
    Conn& c = conns_[i];
    for (;;) {
      ssize_t n = ::recv(c.fd.get(), buf_.data(), buf_.size(), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) broken_ = true;
        break;
      }
      if (n == 0 || !c.decoder.Feed(buf_.data(), size_t(n))) {
        broken_ = true;
        break;
      }
      if (size_t(n) < buf_.size()) break;
    }
    std::vector<uint8_t> frame;
    bool te = (i & 1) != 0;
    while (c.decoder.Next(&frame)) {
      if (c.inflight.empty()) {
        broken_ = true;
        return;
      }
      size_t idx = c.inflight.front();
      c.inflight.pop_front();
      Req& r = reqs_[idx];
      if (te) {
        r.te = true;
        r.te_us = NowUs();
        r.te_bytes = frame.size();
        r.te_frame = std::move(frame);
      } else {
        r.sp = true;
        r.sp_us = NowUs();
        r.sp_bytes = frame.size();
        r.sp_frame = std::move(frame);
      }
      if (r.sp && r.te) ready_.push_back(idx);
    }
  }

  void Complete(Req* r) {
    double t0 = NowUs();
    auto message = sae::core::DeserializeQueryAnswer(r->sp_frame, codec_);
    auto vt = sae::core::DeserializeVt(r->te_frame);
    double t1 = NowUs();
    sae::Status verdict =
        !message.ok() ? message.status()
        : !vt.ok()    ? vt.status()
                      : sae::core::Client::VerifyAnswer(
                         r->query, message.value().answer,
                         message.value().witness, vt.value(),
                         message.value().epoch, published_, codec_);
    r->done_us = NowUs();
    r->decode_us = t1 - t0;
    r->verify_us = r->done_us - t1;
    r->done = true;
    r->accepted = verdict.ok();
    --outstanding_;
    std::vector<uint8_t>().swap(r->te_frame);  // release, not just clear
    if (r->accepted && r->check) {
      sampled_.push_back(size_t(r - reqs_.data()));  // checked after the phase
    } else {
      std::vector<uint8_t>().swap(r->sp_frame);
    }
  }

  /// Compares the sampled accepted answers against the oracle, outside the
  /// timed phase, and releases their frames.
  void CheckSampled() {
    for (size_t idx : sampled_) {
      Req& r = reqs_[idx];
      auto message = sae::core::DeserializeQueryAnswer(r.sp_frame, codec_);
      std::string bad =
          message.ok() ? oracle_->Check(r.query, message.value().answer,
                                        message.value().witness)
                       : "sampled answer no longer decodes";
      if (!bad.empty()) report_->Wrong(bad);
      std::vector<uint8_t>().swap(r.sp_frame);
    }
    checked_ += sampled_.size();
    sampled_.clear();
  }

  uint16_t sp_port_, te_port_;
  uint64_t published_;
  const Oracle* oracle_;
  Report* report_;
  sae::storage::RecordCodec codec_;
  RequestGen gen_;
  sae::Rng arrivals_;
  sae::Rng sampler_;
  sae::net::UniqueFd epoll_;
  Conn conns_[kConnections];
  std::vector<Req> reqs_;
  std::deque<size_t> ready_;    // both legs in, awaiting verification
  std::vector<size_t> sampled_;  // accepted, awaiting the oracle check
  size_t checked_ = 0;
  size_t outstanding_ = 0;
  bool broken_ = false;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(256 * 1024);
};

/// Restricts the calling thread to CPUs [first, last] (threads it starts
/// inherit the mask). No-op on hosts with fewer CPUs.
void PinCallingThread(int first, int last) {
  if (last >= CPU_SETSIZE || sysconf(_SC_NPROCESSORS_ONLN) <= last) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// The parties behind TCP: SP and TE loaded in process, then served.
struct Deployment {
  std::unique_ptr<sae::core::ServiceProvider> sp;
  std::unique_ptr<sae::core::TrustedEntity> te;
  std::unique_ptr<sae::net::SpServer> sp_server;
  std::unique_ptr<sae::net::TeServer> te_server;
  std::unique_ptr<sae::net::OwnerServer> owner_server;

  bool Start(const std::vector<Record>& data) {
    sp = std::make_unique<sae::core::ServiceProvider>();
    te = std::make_unique<sae::core::TrustedEntity>();
    if (!sp->LoadDataset(data).ok() || !te->LoadDataset(data).ok()) {
      return false;
    }
    sp->SetEpoch(1);
    te->SetEpoch(1);
    // The servers' event loops get CPUs 1-3; the generator keeps CPU 0,
    // so load generation never competes with the system under test.
    PinCallingThread(1, 3);
    sp_server = std::make_unique<sae::net::SpServer>(sp.get());
    te_server = std::make_unique<sae::net::TeServer>(te.get());
    owner_server =
        std::make_unique<sae::net::OwnerServer>([] { return uint64_t(1); });
    bool started = sp_server->Start().ok() && te_server->Start().ok() &&
                   owner_server->Start().ok();
    PinCallingThread(0, 0);
    return started;
  }
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (sp_server) sp_server->Stop();
    if (te_server) te_server->Stop();
    if (owner_server) owner_server->Stop();
  }
};

struct PhaseStats {
  std::vector<double> latency_ms;  // accepted, in issue order
  std::vector<Sample> samples;     // the same, keyed by due time
  uint64_t issued = 0, failed = 0;
};

PhaseStats Collect(const std::vector<Req>& reqs, size_t first, size_t last) {
  PhaseStats p;
  for (size_t i = first; i < last; ++i) {
    ++p.issued;
    if (reqs[i].done && reqs[i].accepted) {
      double ms = (reqs[i].done_us - reqs[i].due_us) / 1000.0;
      p.latency_ms.push_back(ms);
      p.samples.push_back({reqs[i].due_us, ms});
    } else {
      ++p.failed;
    }
  }
  return p;
}

}  // namespace

Report RunNetCold(const Args& args, const std::vector<Record>& data) {
  Report rep;
  Oracle oracle(&data);

  // Setup: load both parties, start the three servers, connect, fetch the
  // owner's epoch and warm the pools with a short phase at nominal rate.
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Generator> gen;
  uint64_t published = 0;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    gen.reset();
    dep.reset();
    Clock::time_point t0 = Clock::now();
    dep = std::make_unique<Deployment>();
    if (!dep->Start(data)) {
      rep.fatal = "server start failed";
      return rep;
    }
    sae::net::ClientTransport owner({.port = dep->owner_server->port()});
    auto epoch = sae::net::FetchEpoch(&owner);
    if (!epoch.ok()) {
      rep.fatal = "owner epoch fetch failed";
      return rep;
    }
    published = epoch.value();
    gen = std::make_unique<Generator>(dep->sp_server->port(),
                                      dep->te_server->port(), published,
                                      &oracle, &rep, args.seed);
    size_t a, b;
    if (!gen->Connect() || !gen->RunPhase(kNominalRate, 0.25, &a, &b)) {
      rep.fatal = "warm-up failed";
      return rep;
    }
    setups.push_back(MsSince(t0) / 1000.0);
  }

  // Open-loop phase at the fixed nominal rate: latency from due time.
  double nominal_s = std::max(args.seconds / 4, kMinProbeSamples / kNominalRate);
  size_t n0, n1;
  if (!gen->RunPhase(kNominalRate, nominal_s, &n0, &n1)) {
    gen->Drain(kDrainSeconds);
  }
  PhaseStats nominal = Collect(gen->reqs(), n0, n1);
  rep.ops.attempted += nominal.issued;
  rep.ops.failed += nominal.failed;
  Latency open = Summarize(nominal.latency_ms);
  std::vector<double> lag;
  for (size_t i = n0; i < n1; ++i) {
    lag.push_back((gen->reqs()[i].sent_us - gen->reqs()[i].due_us) / 1000.0);
  }
  rep.E2e("open_p50_ms", open.p50, "ms");
  rep.E2e("open_p99_ms", open.p99, "ms");
  rep.Info("nominal_rate", kNominalRate, "1/s");
  rep.Info("generator_lag_p99_ms", QuantileOf(lag, 0.99), "ms");
  // The serving footprint after a fixed amount of work at a fixed rate:
  // the closed loop and the ladder run as fast as the host allows, and
  // how much memory the allocator keeps then follows the host's speed.
  double rss_mb = PeakRssMb();

  // Closed-loop pipelined phase, the numbers BENCHMARK.json gates:
  // kPipelineDepth requests in flight, latency from issue, block medians.
  auto closed = [&](double seconds, size_t* c0, size_t* c1) {
    double t = NowUs();
    if (!gen->RunClosed(kPipelineDepth, seconds, c0, c1)) {
      gen->Drain(kDrainSeconds);
    }
    PhaseStats p = Collect(gen->reqs(), *c0, *c1);
    rep.ops.attempted += p.issued;
    rep.ops.failed += p.failed;
    return SummarizeBlocks(p.samples, t, t + seconds * 1e6, kClosedBlocks);
  };
  size_t c0, c1;
  BlockSummary lat = closed(args.seconds / 2, &c0, &c1);
  double auth = 0;
  for (size_t i = c0; i < c1; ++i) auth += double(gen->reqs()[i].te_bytes);
  rep.E2e("query_qps", lat.qps, "1/s");
  rep.E2e("query_p50_ms", lat.p50, "ms");
  rep.E2e("query_p99_ms", lat.p99, "ms");
  rep.E2e("auth_bytes_per_query", Ratio(auth, double(c1 - c0)), "bytes");
  rep.E2e("setup_s", QuantileOf(setups, 0.5), "s");
  rep.Info("query_samples", double(lat.samples), "count");

  if (!args.trace) {
    // The ladder: each probe long enough for a reportable p99. A failed
    // probe is repeated once before the rung counts as failed, so one
    // stall of the host does not cut the search short.
    double probe_s_min = args.seconds / 20;
    auto probe = [&](double rate) {
      double secs = std::max(probe_s_min, double(kMinProbeSamples) / rate);
      size_t a, b;
      double judged_from = NowUs() + kProbeWarmSeconds * 1e6;
      size_t cap = std::max<size_t>(64, size_t(rate * kProbeMaxQueueSeconds));
      bool drained =
          gen->RunPhase(rate, kProbeWarmSeconds + secs, &a, &b, cap);
      if (!drained) gen->Drain(kDrainSeconds);
      size_t m = a;
      while (m < b && gen->reqs()[m].due_us < judged_from) ++m;
      PhaseStats p = Collect(gen->reqs(), m, b);
      ProbeVerdict v = JudgeProbe(p.latency_ms, p.issued, p.failed,
                                  kP99LimitMs);
      if (!drained && v.pass) {
        v.pass = false;
        v.why = "backlog growing (aborted)";
      }
      char line[160];
      std::snprintf(line, sizeof(line),
                    "ladder probe %.0f q/s: %s, p99 %.2f ms", rate,
                    v.pass ? "pass" : v.why.c_str(), v.p99_ms);
      rep.notes.push_back(line);
      // A probe's requests are operations too; a refused or dropped one
      // is a failure (overload that merely misses the limit is not).
      for (size_t i = a; i < b; ++i) {
        const Req& r = gen->reqs()[i];
        if (r.done && !r.accepted) {
          rep.ops.Fail();
        } else {
          rep.ops.Ok();
        }
      }
      return v.pass;
    };
    int best = HighestPassingRung(0, kLadderRungs - 1, [&](int rung) {
      if (gen->broken()) return false;
      double rate = LadderRate(kLadderBase, rung);
      return probe(rate) || probe(rate);
    });
    rep.E2e("sustained_qps", best >= 0 ? LadderRate(kLadderBase, best) : 0.0,
            "1/s");
  }

  if (args.trace) {
    // Traced closed-loop window; every request's legs become spans.
    size_t t0, t1;
    auto sp_cache0 = dep->sp->answer_cache_stats();
    auto te_cache0 = dep->te->vt_cache_stats();
    auto digest0 = dep->te->xb_tree().digest_cache_stats();
    BlockSummary traced_lat = closed(args.seconds, &t0, &t1);
    PhaseStats traced = Collect(gen->reqs(), t0, t1);
    auto hit = [](const auto& a, const auto& b) {
      return Ratio(double(b.hits - a.hits),
                   double(b.hits - a.hits + b.misses - a.misses));
    };
    rep.Layer("core.sp_answer_hit_ratio",
              hit(sp_cache0, dep->sp->answer_cache_stats()), "ratio");
    rep.Layer("core.te_vt_hit_ratio",
              hit(te_cache0, dep->te->vt_cache_stats()), "ratio");
    rep.Layer("xbtree.digest_cache_hit_ratio",
              hit(digest0, dep->te->xb_tree().digest_cache_stats()), "ratio");
    std::vector<double> sp_rtt, te_rtt;
    double te_last = 0, accepted = 0, decode = 0, verify = 0, hashed = 0;
    for (size_t i = t0; i < t1; ++i) {
      const Req& r = gen->reqs()[i];
      if (!r.accepted) continue;
      ++accepted;
      sp_rtt.push_back((r.sp_us - r.sent_us) / 1000.0);
      te_rtt.push_back((r.te_us - r.sent_us) / 1000.0);
      te_last += r.te_us > r.sp_us ? 1 : 0;
      decode += r.decode_us / 1000.0;
      verify += r.verify_us / 1000.0;
      hashed += double(r.sp_bytes);
      int64_t root = int64_t(rep.spans.size());
      rep.spans.push_back({"query", i, -1, r.due_us, r.done_us});
      rep.spans.push_back({"net.sp_leg", i, root, r.sent_us, r.sp_us});
      rep.spans.push_back({"net.te_leg", i, root, r.sent_us, r.te_us});
      double d0 = r.done_us - r.verify_us - r.decode_us;
      rep.spans.push_back({"core.decode", i, root, d0, d0 + r.decode_us});
      rep.spans.push_back(
          {"core.verify", i, root, r.done_us - r.verify_us, r.done_us});
    }
    // Quiescent replay of the first traced requests against the same SP
    // and TE objects (the servers are idle now): the per-layer split of
    // the server-side work.
    QueryCounters rc;
    SpanLog log;
    size_t replayed = 0;
    sae::core::SaeClientMemo memo{sae::core::AnswerCacheOptions::Disabled()};
    sae::storage::RecordCodec codec(kRecordSize);
    for (size_t i = t0; i < t1 && replayed < 1000; ++i, ++replayed) {
      sae::dbms::QueryAnswer answer;
      std::vector<Record> witness;
      (void)TracedSaeQuery(*dep->sp, *dep->te, &memo, gen->reqs()[i].query,
                           published, codec,
                           sae::core::TrustedEntity::Options{}.scheme,
                           (uint64_t(9) << 40) | replayed, &log, &rc,
                           &answer, &witness);
    }
    double rq = double(replayed), aq = accepted;
    std::vector<double> self = SelfTimesUs(log.spans());
    double plan = SelfMsPerRequest(log.spans(), self, "dbms.plan", rq);
    double token = SelfMsPerRequest(log.spans(), self, "xbtree.token", rq);
    double enc_a =
        SelfMsPerRequest(log.spans(), self, "core.encode_answer", rq);
    double encode =
        enc_a + SelfMsPerRequest(log.spans(), self, "core.encode_vt", rq);
    double sp_mean = Mean(sp_rtt), te_mean = Mean(te_rtt);
    rep.Layer("dbms.plan_ms", plan, "ms");
    rep.Layer("btree.index_accesses_per_query",
              Ratio(double(rc.index_accesses), rq), "count");
    rep.Layer("storage.heap_accesses_per_query",
              Ratio(double(rc.heap_accesses), rq), "count");
    rep.Layer("storage.sp_pool_miss_ratio",
              Ratio(double(rc.pool_misses), double(rc.pool_accesses)),
              "ratio");
    rep.Layer("xbtree.token_ms", token, "ms");
    rep.Layer("xbtree.accesses_per_query", Ratio(double(rc.te_accesses), rq),
              "count");
    rep.Layer("core.verify_ms", Ratio(verify, aq), "ms");
    rep.Layer("crypto.hashed_bytes_per_query", Ratio(hashed, aq), "bytes");
    rep.Layer("core.encode_ms", encode, "ms");
    rep.Layer("core.decode_ms", Ratio(decode, aq), "ms");
    rep.Layer("net.sp_rtt_ms", sp_mean, "ms");
    rep.Layer("net.te_rtt_ms", te_mean, "ms");
    rep.Layer("net.te_last_share", Ratio(te_last, aq), "ratio");
    rep.Layer("net.sp_overhead_ms", sp_mean - plan - enc_a, "ms");
    rep.Layer("net.generator_lag_p99_ms", QuantileOf(lag, 0.99), "ms");
    rep.Info("replayed_queries", rq, "count");
    MergeSpans(&rep.spans, std::move(log.spans()));
    ReportAttribution(&rep,
                      std::max(sp_mean, te_mean) + Ratio(decode, aq) +
                          Ratio(verify, aq),
                      lat.p50, traced_lat.p50);
  }
  rep.Layer("net.protocol_errors",
            double(dep->sp_server->frame_server().protocol_errors() +
                   dep->te_server->frame_server().protocol_errors()),
            "count");
  if (!args.trace) rep.layer.clear();
  if (gen->broken()) rep.notes.push_back("generator transport broke");
  rep.Info("oracle_checked", double(gen->oracle_checked()), "count");
  gen.reset();
  dep.reset();
  rep.E2e("peak_rss_mb", rss_mb, "MB");
  rep.Info("failed_share", rep.ops.FailedShare(), "ratio");
  return rep;
}

}  // namespace perfbench
