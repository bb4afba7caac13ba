// Copyright (c) saedb authors. Licensed under the MIT license.
//
// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Runs one workload (sae-net-cold, sae-hot-read, sae-durable-mixed,
// tom-durable-mixed), prints a human-readable report, and writes
// <out-dir>/result-<workload>-<seed>-t<trace>.json carrying a host
// descriptor, every metric with its unit, the operation tally and any
// correctness violation. A traced run also writes its spans to
// <out-dir>/spans-<workload>-<seed>.csv. Exit status: 0 when every accepted
// answer and acknowledged update checked out, 1 on a correctness
// violation, 2 on bad arguments, 3 when set-up failed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "common.h"
#include "crypto/backend.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteMetrics(std::ostream& out, const char* key,
                  const std::vector<Metric>& metrics) {
  out << "  " << Quote(key) << ": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << Quote(metrics[i].name)
        << ": {\"value\": " << Num(metrics[i].value)
        << ", \"unit\": " << Quote(metrics[i].unit) << "}";
  }
  out << "\n  }";
}

void WriteResult(const std::string& path, const Args& args,
                 const Report& report) {
  const sae::crypto::Backend& backend = sae::crypto::Backend::Instance();
  std::ofstream out(path);
  out << "{\n  \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu\": " << Quote(CpuModel())
      << ", \"hash_kernel\": " << Quote(backend.hash_kernel())
      << ", \"modexp_kernel\": " << Quote(backend.modexp_kernel())
      << ", \"compiler\": " << Quote(__VERSION__)
      << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE) << "},\n"
      << "  \"run\": {\"workload\": " << Quote(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"records\": " << kRecords << ", \"record_bytes\": " << kRecordSize
      << ", \"client_threads\": " << kClientThreads << "},\n"
      << "  \"correct\": " << (report.ops.wrong == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << report.ops.attempted
      << ",\n  \"failed\": " << report.ops.failed
      << ",\n  \"failed_share\": " << Num(report.ops.FailedShare()) << ",\n";
  WriteMetrics(out, "end_to_end", report.e2e);
  out << ",\n";
  WriteMetrics(out, "per_layer", report.layer);
  out << ",\n";
  WriteMetrics(out, "info", report.info);
  out << ",\n  \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    out << (i ? ", " : "") << Quote(report.errors[i]);
  }
  out << "],\n  \"notes\": [";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    out << (i ? ", " : "") << Quote(report.notes[i]);
  }
  out << "]\n}\n";
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "index,name,request,parent,start_us,end_us\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.name << ',' << s.request << ',' << s.parent << ','
        << Num(s.start_us) << ',' << Num(s.end_us) << '\n';
  }
}

void PrintSection(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (std::isfinite(m.value)) {
      std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-36s %14s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
    }
  }
}

// Every per-layer metric a traced run reports. A layer the workload does
// not exercise reads 0 (e.g. net.* in process, storage.checkpoint_* on the
// read-only workloads).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"dbms.plan_ms", "ms"},
    {"btree.index_accesses_per_query", "count"},
    {"storage.heap_accesses_per_query", "count"},
    {"storage.sp_pool_miss_ratio", "ratio"},
    {"xbtree.token_ms", "ms"},
    {"xbtree.accesses_per_query", "count"},
    {"xbtree.digest_cache_hit_ratio", "ratio"},
    {"mbtree.plan_ms", "ms"},
    {"mbtree.digest_cache_hit_ratio", "ratio"},
    {"core.verify_ms", "ms"},
    {"crypto.hashed_bytes_per_query", "bytes"},
    {"core.encode_ms", "ms"},
    {"core.decode_ms", "ms"},
    {"core.sp_answer_hit_ratio", "ratio"},
    {"core.te_vt_hit_ratio", "ratio"},
    {"core.client_memo_hit_ratio", "ratio"},
    {"core.update_p50_ms", "ms"},
    {"core.update_p99_ms", "ms"},
    {"storage.wal_records_per_sync", "count"},
    {"storage.barriers_per_update", "count"},
    {"storage.checkpoint_bytes_per_update", "bytes"},
    {"storage.checkpoints_full", "count"},
    {"storage.checkpoints_delta", "count"},
    {"storage.checkpoint_busy_ms", "ms"},
    {"storage.pending_checkpoints_max", "count"},
    {"storage.recovery_open_ms", "ms"},
    {"storage.wal_tail_records", "count"},
    {"core.recovery_rebuild_ms", "ms"},
    {"net.sp_rtt_ms", "ms"},
    {"net.te_rtt_ms", "ms"},
    {"net.te_last_share", "ratio"},
    {"net.sp_overhead_ms", "ms"},
    {"net.generator_lag_p99_ms", "ms"},
    {"net.protocol_errors", "count"},
    {"trace.layer_sum_ms", "ms"},
    {"trace.untraced_p50_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// Puts the per-layer metrics in canonical order, adding the layers the
/// workload does not exercise as 0.
void CompleteLayers(Report* report) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kLayerMetrics) {
    Metric m{name, 0.0, unit};
    for (const Metric& got : report->layer) {
      if (got.name == name) m = got;
    }
    ordered.push_back(m);
  }
  for (const Metric& got : report->layer) {
    bool known = false;
    for (const auto& entry : kLayerMetrics) known |= got.name == entry.first;
    if (!known) report->info.push_back(got);
  }
  report->layer = std::move(ordered);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  using Runner = Report (*)(const Args&, const std::vector<Record>&);
  const std::map<std::string, Runner> runners = {
      {"sae-net-cold", RunNetCold},
      {"sae-hot-read", RunHotRead},
      {"sae-durable-mixed", RunSaeDurableMixed},
      {"tom-durable-mixed", RunTomDurableMixed},
  };
  auto it = runners.find(args.workload);
  if (it == runners.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<Record> data = MakeDataset(args.seed);
  Report report = it->second(args, data);
  if (args.trace) CompleteLayers(&report);

  std::printf("# %s seed=%llu seconds=%.1f trace=%d records=%zu x %zu B\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace ? 1 : 0, kRecords, kRecordSize);
  PrintSection("end-to-end:", report.e2e);
  PrintSection("per-layer:", report.layer);
  PrintSection("other:", report.info);
  std::printf("operations: attempted %llu, failed %llu (failed_share %.6f), "
              "wrong %llu\n",
              (unsigned long long)report.ops.attempted,
              (unsigned long long)report.ops.failed, report.ops.FailedShare(),
              (unsigned long long)report.ops.wrong);
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& error : report.errors) {
    std::printf("CORRECTNESS VIOLATION: %s\n", error.c_str());
  }
  if (!report.fatal.empty()) {
    std::printf("SETUP FAILED: %s\n", report.fatal.c_str());
  }

  std::string stem = args.workload + "-" + std::to_string(args.seed);
  WriteResult(args.out_dir + "/result-" + stem + "-t" +
                  (args.trace ? "1" : "0") + ".json",
              args, report);
  if (args.trace) {
    WriteSpans(args.out_dir + "/spans-" + stem + ".csv", report.spans);
  }
  std::fflush(stdout);
  if (!report.fatal.empty()) return 3;
  return report.ops.wrong == 0 ? 0 : 1;
}
