// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The SAE deployment as four real processes on localhost: a data owner, a
// service provider, a trusted entity and a client, talking TCP through the
// serving tier (src/net/) with the golden-pinned wire messages as frame
// payloads.
//
//   $ ./examples/example_networked_deployment            # all four, forked
//   $ ./examples/example_networked_deployment sp 7001    # one party, manual
//                                                        # (Ctrl-C stops it)
//
// The walkthrough: the DO ships the dataset to SP and TE (epoch 1), then an
// insert (epoch 2), and serves its published epoch; the client waits for
// epoch 2 and runs every verified operator. Then a tampering proxy (a
// network adversary, src/adversary) goes up in front of the SP port: the
// SP stays honest, the proxy rewrites its answers, and the client must
// reject the poisoned plan it relays. Finally SIGTERM stops the three
// serving parties, which exit cleanly. Exit status 0 means every check
// passed in every process.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "adversary/tampering_proxy.h"
#include "core/client.h"
#include "core/messages.h"
#include "core/service_provider.h"
#include "core/trusted_entity.h"
#include "dbms/query.h"
#include "net/client_transport.h"
#include "net/server.h"
#include "util/status.h"

using namespace sae;

namespace {

constexpr size_t kRecordSize = 64;
constexpr size_t kRecords = 500;
constexpr uint32_t kInsertKey = 777;  // off the 10-grid, so uniquely findable

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Set by SIGTERM / SIGINT: a serving party stops and exits cleanly.
volatile sig_atomic_t g_stop = 0;

void OnStopSignal(int) { g_stop = 1; }

void WaitForStopSignal() {
  while (g_stop == 0) SleepMs(20);
}

std::vector<storage::Record> MakeDataset() {
  storage::RecordCodec codec(kRecordSize);
  std::vector<storage::Record> out;
  for (uint64_t id = 1; id <= kRecords; ++id) {
    out.push_back(codec.MakeRecord(id, uint32_t(id * 10)));
  }
  return out;
}

// Retries an operation until it succeeds or ~5 s pass — parties come up in
// arbitrary order, so first contacts must tolerate a listener that is not
// there yet.
template <typename Fn>
Status Retry(Fn&& fn) {
  Status last = Status::IoError("never attempted");
  for (int attempt = 0; attempt < 100; ++attempt) {
    last = fn();
    if (last.ok()) return last;
    SleepMs(50);
  }
  return last;
}

// --- party processes ------------------------------------------------------------

int RunSp(uint16_t port) {
  core::ServiceProvider sp(core::ServiceProviderOptions{
      .record_size = kRecordSize, .answer_cache = {}});
  net::SpServer server(&sp, {.port = port});
  if (!server.Start().ok()) return 1;
  std::printf("[sp]     pid %d serving on port %u\n", getpid(),
              server.port());
  WaitForStopSignal();
  server.Stop();
  std::printf("[sp]     served %llu frames, exiting\n",
              (unsigned long long)server.frames_served());
  return 0;
}

int RunTe(uint16_t port) {
  core::TrustedEntity te(core::TrustedEntityOptions{
      .record_size = kRecordSize, .xb_options = {}, .vt_cache = {}});
  net::TeServer server(&te, {.port = port});
  if (!server.Start().ok()) return 1;
  std::printf("[te]     pid %d serving on port %u\n", getpid(),
              server.port());
  WaitForStopSignal();
  server.Stop();
  std::printf("[te]     served %llu frames, exiting\n",
              (unsigned long long)server.frames_served());
  return 0;
}

int RunDo(uint16_t owner_port, uint16_t sp_port, uint16_t te_port) {
  storage::RecordCodec codec(kRecordSize);
  std::vector<storage::Record> dataset = MakeDataset();

  net::ClientTransport sp_link({.port = sp_port});
  net::ClientTransport te_link({.port = te_port});

  // Epoch 1: the initial outsourcing — one Records frame + the notice.
  std::vector<uint8_t> records = core::SerializeRecords(dataset, codec);
  std::vector<uint8_t> notice1 = core::SerializeEpochNotice(1);
  if (!Retry([&] { return net::CallExpectAck(&sp_link, records); }).ok())
    return 1;
  if (!Retry([&] { return net::CallExpectAck(&te_link, records); }).ok())
    return 1;
  if (!net::CallExpectAck(&sp_link, notice1).ok()) return 1;
  if (!net::CallExpectAck(&te_link, notice1).ok()) return 1;
  std::printf("[do]     pid %d outsourced %zu records at epoch 1\n",
              getpid(), dataset.size());

  // Epoch 2: one insert, shipped to both parties, then published.
  storage::Record extra = codec.MakeRecord(kRecords + 1, kInsertKey);
  std::vector<uint8_t> insert = core::SerializeRecords({extra}, codec);
  std::vector<uint8_t> notice2 = core::SerializeEpochNotice(2);
  if (!net::CallExpectAck(&sp_link, insert).ok()) return 1;
  if (!net::CallExpectAck(&te_link, insert).ok()) return 1;
  if (!net::CallExpectAck(&sp_link, notice2).ok()) return 1;
  if (!net::CallExpectAck(&te_link, notice2).ok()) return 1;
  std::printf("[do]     inserted key %u, published epoch 2\n", kInsertKey);

  // Serve the published epoch until told to stop.
  net::OwnerServer server([] { return uint64_t(2); }, {.port = owner_port});
  if (!server.Start().ok()) return 1;
  std::printf("[do]     epoch endpoint on port %u\n", server.port());
  WaitForStopSignal();
  server.Stop();
  std::printf("[do]     exiting\n");
  return 0;
}

int RunClient(uint16_t sp_port, uint16_t te_port, uint16_t owner_port) {
  net::NetSaeClient client(net::NetSaeClientOptions{
      .sp = {.port = sp_port},
      .te = {.port = te_port},
      .owner = {.port = owner_port},
      .record_size = kRecordSize});

  // Wait until the DO has published epoch 2 (load + insert both applied).
  Status ready = Retry([&] {
    auto epoch = client.PublishedEpoch();
    if (!epoch.ok()) return epoch.status();
    return epoch.value() >= 2
               ? Status::OK()
               : Status::StaleEpoch("owner still at epoch 1");
  });
  if (!ready.ok()) {
    std::printf("[client] owner never reached epoch 2: %s\n",
                ready.ToString().c_str());
    return 1;
  }

  // Every operator, end to end over TCP, every answer verified.
  std::vector<std::pair<const char*, dbms::QueryRequest>> requests = {
      {"scan", dbms::QueryRequest::Scan(100, 2000)},
      {"point", dbms::QueryRequest::Point(kInsertKey)},
      {"count", dbms::QueryRequest::Count(100, 2000)},
      {"sum", dbms::QueryRequest::Sum(100, 2000)},
      {"min", dbms::QueryRequest::Min(100, 2000)},
      {"max", dbms::QueryRequest::Max(100, 2000)},
      {"top-k", dbms::QueryRequest::TopK(100, 2000, 5)},
  };
  for (const auto& [name, request] : requests) {
    auto verified = client.Query(request);
    if (!verified.ok()) {
      std::printf("[client] %s FAILED verification: %s\n", name,
                  verified.status().ToString().c_str());
      return 1;
    }
    std::printf("[client] %-6s verified (witness %zu records, epoch %llu)\n",
                name, verified.value().witness.size(),
                (unsigned long long)verified.value().published_epoch);
  }

  // The inserted record must be visible and verified at epoch 2.
  auto inserted = client.Query(dbms::QueryRequest::Point(kInsertKey));
  if (!inserted.ok() || inserted.value().witness.size() != 1) {
    std::printf("[client] inserted record not served/verified\n");
    return 1;
  }

  // Network adversary: a tampering proxy in front of the SP port rewrites
  // the honest SP's answers. Verification must reject what it relays.
  adversary::TamperingProxy proxy({.port = sp_port}, kRecordSize);
  if (!proxy.Start().ok()) return 1;
  net::NetSaeClient victim(net::NetSaeClientOptions{
      .sp = {.port = proxy.port()},
      .te = {.port = te_port},
      .owner = {.port = owner_port},
      .record_size = kRecordSize});
  auto poisoned = victim.Query(dbms::QueryRequest::Scan(100, 2000));
  proxy.Stop();
  if (poisoned.ok() ||
      poisoned.status().code() != StatusCode::kVerificationFailure) {
    std::printf("[client] poisoned plan was NOT rejected!\n");
    return 1;
  }
  std::printf("[client] poisoned plan via proxy rejected: %s\n",
              poisoned.status().ToString().c_str());
  std::printf("[client] every check passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string role = argc > 1 ? argv[1] : "all";
  // Installed before any fork, so every party inherits it: SIGTERM (or
  // Ctrl-C in the manual mode) stops a party cleanly.
  struct sigaction stop_action {};
  stop_action.sa_handler = OnStopSignal;
  sigaction(SIGTERM, &stop_action, nullptr);
  sigaction(SIGINT, &stop_action, nullptr);
  auto port_arg = [&](int i, uint16_t fallback) {
    return argc > i ? uint16_t(std::atoi(argv[i])) : fallback;
  };

  if (role == "sp") return RunSp(port_arg(2, 0));
  if (role == "te") return RunTe(port_arg(2, 0));
  if (role == "do")
    return RunDo(port_arg(2, 0), port_arg(3, 0), port_arg(4, 0));
  if (role == "client")
    return RunClient(port_arg(2, 0), port_arg(3, 0), port_arg(4, 0));
  if (role != "all") {
    std::fprintf(stderr,
                 "usage: %s [all | sp PORT | te PORT |"
                 " do OWNER_PORT SP_PORT TE_PORT |"
                 " client SP_PORT TE_PORT OWNER_PORT]\n",
                 argv[0]);
    return 2;
  }

  // Four processes on localhost: fork SP, TE and DO, run the client here.
  // Ports derive from the parent pid so parallel CI jobs don't collide.
  uint16_t base = uint16_t(20000 + (getpid() * 7) % 40000);
  uint16_t sp_port = base, te_port = base + 1, owner_port = base + 2;
  std::printf("launching four-party deployment on ports %u/%u/%u\n", sp_port,
              te_port, owner_port);

  struct Child {
    const char* name;
    pid_t pid;
  };
  std::vector<Child> children;
  auto spawn = [&](const char* name, auto&& fn) {
    std::fflush(stdout);  // don't duplicate buffered parent output into forks
    pid_t pid = fork();
    if (pid == 0) {
      int rc = fn();
      std::fflush(stdout);  // stdout may be a fully-buffered pipe under CI
      _exit(rc);
    }
    children.push_back({name, pid});
  };
  spawn("sp", [&] { return RunSp(sp_port); });
  spawn("te", [&] { return RunTe(te_port); });
  spawn("do", [&] { return RunDo(owner_port, sp_port, te_port); });

  int client_rc = RunClient(sp_port, te_port, owner_port);

  // Stop the three serving parties; each must exit cleanly.
  bool all_ok = client_rc == 0;
  for (const Child& child : children) kill(child.pid, SIGTERM);
  for (const Child& child : children) {
    int wstatus = 0;
    waitpid(child.pid, &wstatus, 0);
    bool ok = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    if (!ok) {
      std::printf("party '%s' exited abnormally (status %d)\n", child.name,
                  wstatus);
      all_ok = false;
    }
  }
  std::printf(all_ok ? "networked deployment: ALL CHECKS PASSED\n"
                     : "networked deployment: FAILURES\n");
  return all_ok ? 0 : 1;
}
