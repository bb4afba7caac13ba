// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Tests for the extensions beyond the paper's core: the network/response-time
// model.

#include <gtest/gtest.h>

#include "sim/network.h"

namespace sae {
namespace {

TEST(NetworkModelTest, TransferCombinesLatencyAndBandwidth) {
  sim::NetworkModel net{10.0, 8.0};  // 10ms, 8 Mbit/s = 1000 bytes/ms
  EXPECT_DOUBLE_EQ(net.TransferMs(0), 10.0);
  EXPECT_NEAR(net.TransferMs(1000), 11.0, 1e-9);
  EXPECT_NEAR(net.TransferMs(100000), 110.0, 1e-9);
}

TEST(NetworkModelTest, SaeTakesSlowerOfParallelPaths) {
  sim::NetworkModel net{10.0, 8.0};
  // SP path dominates.
  double r1 = sim::SaeResponseMs(net, 100.0, 1.0, 1000, 21, 9, 0.5);
  EXPECT_NEAR(r1, (10 + 0.009) + 100 + (10 + 1.0) + 0.5, 1e-2);
  // TE path dominates when the SP is instant.
  double r2 = sim::SaeResponseMs(net, 0.0, 500.0, 0, 21, 9, 0.5);
  EXPECT_NEAR(r2, (10 + 0.009) + 500 + (10 + 0.021) + 0.5, 1e-2);
}

TEST(NetworkModelTest, TomPaysForVoBytes) {
  sim::NetworkModel net{10.0, 8.0};
  double slim = sim::TomResponseMs(net, 50.0, 1000, 0, 9, 0.5);
  double bulky = sim::TomResponseMs(net, 50.0, 1000, 10000, 9, 0.5);
  EXPECT_NEAR(bulky - slim, 10.0, 1e-9);  // 10 KB at 1 B/us
}

TEST(NetworkModelTest, SaeBeatsTomWhenVoDominates) {
  // Same processing, same result size; TOM additionally ships a 10 KB VO,
  // SAE a 21-byte token on a parallel path.
  sim::NetworkModel net{20.0, 8.0};
  double sae = sim::SaeResponseMs(net, 80.0, 30.0, 50000, 21, 9, 1.0);
  double tom = sim::TomResponseMs(net, 80.0, 50000, 10000, 9, 1.0);
  EXPECT_LT(sae, tom);
}

}  // namespace
}  // namespace sae
