// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit tests for the simulation utilities: cost model, stopwatch, network
// model.

#include <gtest/gtest.h>

#include <thread>

#include "sim/cost_model.h"
#include "sim/network.h"

namespace sae::sim {
namespace {

TEST(CostModelTest, PaperDefaultChargesTenMsPerAccess) {
  CostModel model;
  EXPECT_DOUBLE_EQ(model.AccessCostMs(0), 0.0);
  EXPECT_DOUBLE_EQ(model.AccessCostMs(1), 10.0);
  EXPECT_DOUBLE_EQ(model.AccessCostMs(123), 1230.0);
}

TEST(CostModelTest, CustomRate) {
  CostModel model{2.5};
  EXPECT_DOUBLE_EQ(model.AccessCostMs(4), 10.0);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double elapsed = watch.ElapsedMs();
  EXPECT_GE(elapsed, 15.0);
  EXPECT_LT(elapsed, 500.0);  // generous upper bound for slow CI
  watch.Restart();
  EXPECT_LT(watch.ElapsedMs(), elapsed);
}

TEST(NetworkTest, ZeroLatencyLinkIsPureBandwidth) {
  NetworkModel net{0.0, 8.0};  // 1 byte per microsecond
  EXPECT_NEAR(net.TransferMs(1'000'000), 1000.0, 1e-6);
}

TEST(NetworkTest, SaeResponseNeverBelowEitherPath) {
  NetworkModel net{5.0, 8.0};
  for (double sp : {1.0, 50.0, 400.0}) {
    for (double te : {1.0, 50.0, 400.0}) {
      double response = SaeResponseMs(net, sp, te, 1000, 21, 9, 0.0);
      EXPECT_GE(response, net.TransferMs(9) + sp + net.TransferMs(1000) - 1e-9);
      EXPECT_GE(response, net.TransferMs(9) + te + net.TransferMs(21) - 1e-9);
    }
  }
}

}  // namespace
}  // namespace sae::sim
