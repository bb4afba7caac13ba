// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Self-tests of the benchmark's reducers (reducers.h) on synthetic inputs:
// the percentile reporting rule, failed-share accounting, span self time
// and the sustained-rate ladder rule with its growing-backlog detector.
// run.py runs this before every measurement; exit status 1 on a failure.

#include <cmath>
#include <cstdio>
#include <vector>

#include "reducers.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

void TestPercentiles() {
  // p99 of 1..1000: rank 990, ten samples beyond -> reportable.
  Expect(Near(Quantile(Ramp(1000), 0.99), 990), "p99 of 1..1000 is 990");
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  // 999 samples leave only 9 beyond rank 990: not reportable.
  Expect(std::isnan(Quantile(Ramp(999), 0.99)), "p99 of 999 samples withheld");
  Expect(!TailReportable(999, 0.99) && TailReportable(1000, 0.99),
         "p99 needs 1000 samples");
  Expect(TailReportable(100, 0.9) && !TailReportable(99, 0.9),
         "p90 needs 100 samples");
  // The median needs one sample, and is the lower middle for even n.
  Expect(Near(Quantile({7.0}, 0.5), 7.0), "median of one sample");
  Expect(Near(Quantile(Ramp(4), 0.5), 2.0), "median of 1..4 is 2");
  Expect(std::isnan(Quantile({}, 0.5)), "median of nothing withheld");
  // Order of input does not matter for QuantileOf.
  Expect(Near(QuantileOf({5, 1, 4, 2, 3}, 0.5), 3.0), "unsorted median");
}

void TestBlocks() {
  // 4 blocks of 1 s; block 2 stalls (latency 50 ms, half the samples).
  std::vector<Sample> samples;
  for (int b = 0; b < 4; ++b) {
    int n = b == 2 ? 1000 : 2000;
    for (int i = 0; i < n; ++i) {
      double t = b * 1e6 + (i + 0.5) * (1e6 / n);
      samples.push_back({t, b == 2 ? 50.0 : 1.0 + (i % 100) * 0.01});
    }
  }
  BlockSummary s = SummarizeBlocks(samples, 0, 4e6, 4);
  Expect(s.samples == 7000, "every sample lands in a block");
  Expect(Near(s.qps, 2000), "median block throughput ignores the stall");
  Expect(s.p99 < 2.0, "median block p99 ignores the stall");
  Expect(Near(s.p50, 1.49), "median block p50");
  // Too few samples per block: the tail is withheld, not invented.
  BlockSummary few = SummarizeBlocks(samples, 0, 4e6, 40);
  Expect(std::isnan(few.p99), "p99 withheld when no block has 1000 samples");
}

void TestFailedShare() {
  OpTally t;
  Expect(Near(t.FailedShare(), 0.0), "empty tally has share 0");
  for (int i = 0; i < 99; ++i) t.Ok();
  t.Fail();
  Expect(t.attempted == 100 && t.failed == 1, "tally counts");
  Expect(Near(t.FailedShare(), 0.01), "1 of 100 failed");
  OpTally recovery;
  recovery.Fail();  // a failed crash recovery is one failed operation
  t += recovery;
  Expect(t.attempted == 101 && t.failed == 2, "merged tallies add");
  Expect(t.wrong == 0, "failures are not wrong answers");
}

void TestSelfTime() {
  // root [0,100]; children [10,30] and [20,50] overlap -> cover 40;
  // a grandchild inside the first child; a child sticking out is clipped.
  std::vector<Span> spans = {
      {"root", 1, -1, 0, 100},  {"a", 1, 0, 10, 30}, {"b", 1, 0, 20, 50},
      {"a.inner", 1, 1, 12, 18}, {"late", 1, 0, 90, 120},
  };
  std::vector<double> self = SelfTimesUs(spans);
  Expect(Near(self[0], 100 - 40 - 10), "root self = 100 - union(children)");
  Expect(Near(self[1], 20 - 6), "child self excludes grandchild");
  Expect(Near(self[2], 30), "leaf self = duration");
  Expect(Near(self[3], 6), "grandchild self");
  Expect(Near(self[4], 30), "clipped child keeps its own duration");
  // Without overlap, the self times of a tree add up to the root span.
  std::vector<Span> tree = {{"root", 2, -1, 0, 10}, {"c", 2, 0, 2, 5},
                            {"d", 2, 0, 6, 7}};
  std::vector<double> ts = SelfTimesUs(tree);
  Expect(Near(ts[0] + ts[1] + ts[2], 10), "self times of a tree add up");
}

void TestLadder() {
  // Flat latencies: no backlog. Linearly growing: backlog.
  std::vector<double> flat(2000, 2.0), growing;
  for (int i = 0; i < 2000; ++i) growing.push_back(1.0 + i * 0.004);
  Expect(!BacklogGrowing(flat), "flat latencies are not a backlog");
  Expect(BacklogGrowing(growing), "latency rising 1 -> 9 ms is a backlog");
  // Doubling but under 1 ms absolute is noise, not a backlog.
  std::vector<double> tiny;
  for (int i = 0; i < 2000; ++i) tiny.push_back(i < 1000 ? 0.2 : 0.5);
  Expect(!BacklogGrowing(tiny), "sub-ms drift is not a backlog");

  ProbeVerdict ok = JudgeProbe(flat, 2000, 0, 10.0);
  Expect(ok.pass, "flat 2 ms probe passes");
  ProbeVerdict slow = JudgeProbe(std::vector<double>(2000, 12.0), 2000, 0, 10.0);
  Expect(!slow.pass && slow.why == "p99 above limit", "12 ms probe fails");
  ProbeVerdict back = JudgeProbe(growing, 2000, 0, 10.0);
  Expect(!back.pass && back.why == "backlog growing",
         "growing backlog fails even under the limit");
  ProbeVerdict few = JudgeProbe(std::vector<double>(500, 1.0), 500, 0, 10.0);
  Expect(!few.pass, "a probe without a reportable p99 fails");
  ProbeVerdict lost = JudgeProbe(flat, 2001, 0, 10.0);
  Expect(!lost.pass, "a never-completed request fails the probe");
  ProbeVerdict refused = JudgeProbe(flat, 2000, 1, 10.0);
  Expect(!refused.pass, "a refused request fails the probe");

  // Rungs are 5% apart, i.e. within the 10% the ladder rule allows.
  Expect(LadderRate(100, 1) / LadderRate(100, 0) <= 1.10, "rung step <= 10%");
  // Binary search finds the highest passing rung of a monotone ladder.
  for (int cap = -1; cap < 32; ++cap) {
    int probes = 0;
    int best = HighestPassingRung(0, 31, [&](int r) {
      ++probes;
      return r <= cap;
    });
    Expect(best == cap, "ladder finds the capacity rung");
    Expect(probes <= 6, "ladder search is logarithmic");
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestBlocks();
  TestFailedShare();
  TestSelfTime();
  TestLadder();
  if (failures == 0) std::printf("perfbench selftest: all reducer checks passed\n");
  return failures == 0 ? 0 : 1;
}
