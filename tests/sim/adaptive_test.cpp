// Tests for minimally-adaptive per-hop routing.
#include <gtest/gtest.h>

#include "delivery_recorder.hpp"
#include "patterns/applications.hpp"
#include "patterns/permutation.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "trace/harness.hpp"
#include "xgft/route.hpp"

namespace sim {
namespace {

using xgft::Topology;

TEST(Adaptive, DeliversAcrossTheTree) {
  const Topology topo(xgft::xgft2(4, 4, 4));
  Network net(topo, SimConfig{});
  const MsgId m = net.addMessageAdaptive(0, 15, 64 * 1024);
  net.release(m, 0);
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().segmentsDelivered, 64u);
}

TEST(Adaptive, SwitchLocalTrafficNeverClimbs) {
  // Source and destination under one switch: the segment must turn down at
  // level 1, so no root wire ever gets busy.
  const Topology topo(xgft::xgft2(4, 4, 4));
  Network net(topo, SimConfig{});
  const MsgId m = net.addMessageAdaptive(0, 1, 16 * 1024);
  net.release(m, 0);
  net.run();
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(net.wireBusyNs(net.globalPort(1, 0, 4 + p)), 0u)
        << "up port " << p;
  }
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Adaptive, SpreadsLoadOverAllUpPorts) {
  // A single long message adapts across every root uplink because each
  // segment sees the previous one still queued/serializing.
  const Topology topo(xgft::xgft2(4, 4, 4));
  SimConfig cfg;
  cfg.headerBytes = 0;
  Network net(topo, cfg);
  const MsgId m = net.addMessageAdaptive(0, 15, 64 * 1024);
  net.release(m, 0);
  net.run();
  std::uint32_t usedUpPorts = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    if (net.wireBusyNs(net.globalPort(1, 0, 4 + p)) > 0) ++usedUpPorts;
  }
  EXPECT_GE(usedUpPorts, 2u);
}

TEST(Adaptive, SelfMessagesDeliverInstantly) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  DeliveryRecorder rec;
  net.setSink(&rec);
  const MsgId m = net.addMessageAdaptive(5, 5, 1024);
  net.release(m, 100);
  net.run();
  EXPECT_EQ(rec.timeOf(m), 100u);
}

TEST(Adaptive, DeterministicReplay) {
  const Topology topo(xgft::xgft2(8, 8, 4));
  const auto runOnce = [&]() {
    Network net(topo, SimConfig{});
    for (std::uint32_t s = 0; s < 64; ++s) {
      net.release(net.addMessageAdaptive(s, 63 - s, 16 * 1024), 0);
    }
    net.run();
    return net.stats().lastDeliveryNs;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST(Adaptive, AvoidsTheCgCongruencePathology) {
  // Adaptive routing reacts to the queues the Eq. (2) congruence creates,
  // so it must clearly beat D-mod-k on CG phase 5.
  const Topology topo(xgft::karyNTree(16, 2));
  patterns::PhasedPattern phase5;
  phase5.numRanks = 128;
  phase5.phases.push_back(
      trace::scaleMessages(patterns::cgD128(), 1.0 / 16).phases[4]);
  const double reference = static_cast<double>(
      trace::runCrossbarReference(phase5).makespanNs);
  const double adaptive =
      static_cast<double>(
          trace::runApp(topo, trace::Adaptive{}, phase5).makespanNs) /
      reference;
  const double dmodk =
      static_cast<double>(
          trace::runApp(topo, *routing::makeDModK(topo), phase5)
              .makespanNs) /
      reference;
  EXPECT_GT(dmodk, 6.0);
  EXPECT_LT(adaptive, dmodk / 2.0);
}

TEST(Adaptive, ConservesSegmentsUnderHeavyContention) {
  const Topology topo(xgft::xgft2(8, 8, 2));
  Network net(topo, SimConfig{});
  std::uint64_t expected = 0;
  for (std::uint32_t s = 0; s < 64; ++s) {
    for (std::uint32_t k = 1; k <= 2; ++k) {
      const xgft::NodeIndex d = (s + k * 8) % 64;
      net.release(net.addMessageAdaptive(s, d, 8 * 1024), 0);
      expected += 8;
    }
  }
  net.run();
  EXPECT_EQ(net.stats().segmentsDelivered, expected);
}

TEST(Adaptive, NicStripingFollowsTheSequenceNumberAcrossSlotReuse) {
  // On a w1 = 2 tree adaptive messages stripe over the two NIC ports by
  // add order.  Sent one after another, each reuses the slot its
  // predecessor freed, yet the ports must still alternate.
  const Topology topo(xgft::Params({4, 4}, {2, 2}));
  Network net(topo, SimConfig{});
  for (std::uint32_t k = 0; k < 6; ++k) {
    const std::uint32_t nic = net.globalPort(0, 0, k % 2);
    const std::uint32_t idle = net.globalPort(0, 0, 1 - k % 2);
    const TimeNs nicBefore = net.wireBusyNs(nic);
    const TimeNs idleBefore = net.wireBusyNs(idle);
    net.release(net.addMessageAdaptive(0, 5, 1024), net.now());
    net.run();
    EXPECT_GT(net.wireBusyNs(nic), nicBefore) << "message " << k;
    EXPECT_EQ(net.wireBusyNs(idle), idleBefore) << "message " << k;
  }
}

TEST(Adaptive, HarnessRunsEndToEnd) {
  const Topology topo(xgft::xgft2(8, 8, 4));
  const auto app =
      trace::scaleMessages(patterns::wrfHalo(8, 8, 64 * 1024), 0.5);
  const trace::RunResult r = trace::runApp(topo, trace::Adaptive{}, app);
  EXPECT_GT(r.makespanNs, 0u);
  EXPECT_EQ(r.stats.messagesDelivered, app.phases[0].size());
}

}  // namespace
}  // namespace sim
