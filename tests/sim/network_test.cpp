// Tests for the event-driven network simulator: exact serialization
// arithmetic, flow control, fairness, conservation and determinism.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "delivery_recorder.hpp"
#include "route_sets.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "xgft/route.hpp"

namespace sim {
namespace {

using xgft::Topology;

SimConfig zeroLatencyConfig() {
  SimConfig cfg;
  cfg.headerBytes = 0;
  cfg.switchLatencyNs = 0;
  cfg.linkLatencyNs = 0;
  return cfg;
}

TEST(Config, SerializationArithmetic) {
  SimConfig cfg;  // 2 Gbit/s, 8 B header.
  cfg.headerBytes = 0;
  EXPECT_EQ(cfg.serializationNs(1024), 4096u);  // 1 KB at 2 Gb/s.
  EXPECT_EQ(cfg.serializationNs(8), 32u);       // One flit = 32 ns.
  cfg.headerBytes = 8;
  EXPECT_EQ(cfg.serializationNs(1024), 4128u);
  cfg.linkGbps = 4.0;
  cfg.headerBytes = 0;
  EXPECT_EQ(cfg.serializationNs(1024), 2048u);
}

TEST(Network, SelfMessageDeliversInstantly) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  DeliveryRecorder rec;
  net.setSink(&rec);
  const MsgId m = addRouted(net, 3, 3, 1 << 20, xgft::Route{});
  net.release(m, 500);
  net.run();
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_EQ(rec.timeOf(m), 500u);
}

TEST(Network, SingleSegmentLatencyIsExact) {
  // Host -> switch -> host (same first-level switch), one 1 KB segment:
  // 2 serializations + 2 link latencies + 1 switch traversal.
  const Topology topo(xgft::xgft2(4, 4, 2));
  SimConfig cfg;
  cfg.headerBytes = 0;
  cfg.switchLatencyNs = 100;
  cfg.linkLatencyNs = 20;
  Network net(topo, cfg);
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 1024, router->route(0, 1));
  net.release(m, 0);
  net.run();
  EXPECT_EQ(rec.timeOf(m), 4096u + 20 + 100 + 4096 + 20);
}

TEST(Network, TwoLevelPathLatency) {
  // Host -> sw -> root -> sw -> host: 4 serializations, 4 link latencies,
  // 3 switch traversals.
  const Topology topo(xgft::xgft2(4, 4, 2));
  SimConfig cfg;
  cfg.headerBytes = 0;
  cfg.switchLatencyNs = 100;
  cfg.linkLatencyNs = 20;
  Network net(topo, cfg);
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  ASSERT_EQ(topo.ncaLevel(0, 15), 2u);
  const MsgId m = addRouted(net, 0, 15, 1024, router->route(0, 15));
  net.release(m, 0);
  net.run();
  EXPECT_EQ(rec.timeOf(m), 4u * 4096 + 4u * 20 + 3u * 100);
}

TEST(Network, PipeliningOverlapsSegments) {
  // A 16-segment message over 2 hops: segments pipeline, so the total is
  // roughly 16 serializations on the bottleneck link plus one extra
  // serialization + per-hop costs for the last segment's tail.
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, zeroLatencyConfig());
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 16 * 1024, router->route(0, 1));
  net.release(m, 0);
  net.run();
  EXPECT_EQ(rec.timeOf(m), 16u * 4096 + 4096);
}

TEST(Network, EndpointContentionSerializes) {
  // Two senders, one destination: the destination's down-link serializes
  // both messages; total = 2 message times (+ pipeline tail).
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, zeroLatencyConfig());
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Bytes bytes = 8 * 1024;
  const MsgId a = addRouted(net, 0, 2, bytes, router->route(0, 2));
  const MsgId b = addRouted(net, 1, 2, bytes, router->route(1, 2));
  net.release(a, 0);
  net.release(b, 0);
  net.run();
  const TimeNs last = std::max(rec.timeOf(a), rec.timeOf(b));
  // 16 segments of 4096 ns share the final link; +1 pipeline fill.
  EXPECT_GE(last, 16u * 4096);
  EXPECT_LE(last, 17u * 4096);
}

TEST(Network, RoundRobinInterleavesConcurrentMessages) {
  // One sender, two destinations: both messages progress together (RR per
  // segment), so they complete within one segment of each other.
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, zeroLatencyConfig());
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Bytes bytes = 8 * 1024;
  const MsgId a = addRouted(net, 0, 1, bytes, router->route(0, 1));
  const MsgId b = addRouted(net, 0, 2, bytes, router->route(0, 2));
  net.release(a, 0);
  net.release(b, 0);
  net.run();
  const TimeNs ta = rec.timeOf(a);
  const TimeNs tb = rec.timeOf(b);
  // Round robin keeps them within two segments of each other (message `a`
  // gets a one-segment head start before `b` is released).
  EXPECT_LE(ta > tb ? ta - tb : tb - ta, 2u * 4096 + 1);
  // And neither finished before the shared injection link pushed 16
  // segments.
  EXPECT_GE(std::min(ta, tb), 15u * 4096);
}

TEST(Network, ConservationAcrossRandomTraffic) {
  const Topology topo(xgft::xgft2(8, 8, 3));
  Network net(topo, SimConfig{});
  const routing::RouterPtr router = routing::makeRandom(topo, 5);
  std::uint64_t expectedSegments = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const xgft::NodeIndex s = (i * 13) % 64;
    const xgft::NodeIndex d = (i * 29 + 7) % 64;
    if (s == d) continue;
    const Bytes bytes = 1 + (i * 977) % 5000;
    expectedSegments += (bytes + 1023) / 1024;
    const MsgId m = addRouted(net, s, d, bytes, router->route(s, d));
    net.release(m, (i % 7) * 100);
  }
  net.run();
  EXPECT_EQ(net.stats().segmentsInjected, expectedSegments);
  EXPECT_EQ(net.stats().segmentsDelivered, expectedSegments);
}

TEST(Network, BufferBoundsAreRespected) {
  const Topology topo(xgft::xgft2(8, 8, 1));  // Heavy contention at 1 root.
  SimConfig cfg;
  cfg.inputBufferSegments = 2;
  cfg.outputBufferSegments = 3;
  Network net(topo, cfg);
  const routing::RouterPtr router = routing::makeDModK(topo);
  for (xgft::NodeIndex s = 0; s < 32; ++s) {
    const xgft::NodeIndex d = 63 - s;
    const MsgId m = addRouted(net, s, d, 32 * 1024, router->route(s, d));
    net.release(m, 0);
  }
  net.run();
  EXPECT_LE(net.stats().maxInputQueueDepth, 2u);
  EXPECT_LE(net.stats().maxOutputQueueDepth, 3u);
  EXPECT_EQ(net.stats().messagesDelivered, 32u);
}

TEST(Network, DeterministicReplay) {
  const Topology topo(xgft::xgft2(8, 8, 4));
  const routing::RouterPtr router = routing::makeRandom(topo, 11);
  const auto runOnce = [&]() {
    Network net(topo, SimConfig{});
    for (std::uint32_t i = 0; i < 100; ++i) {
      const xgft::NodeIndex s = (i * 7) % 64;
      const xgft::NodeIndex d = (i * 31 + 3) % 64;
      if (s == d) continue;
      net.release(addRouted(net, s, d, 10000, router->route(s, d)), 0);
    }
    net.run();
    return net.stats().lastDeliveryNs;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST(Network, ReleaseValidation) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  EXPECT_THROW(net.release(0, 0), std::out_of_range);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 100, router->route(0, 1));
  net.release(m, 0);
  net.run();
  // The completed message's slot was recycled: its handle is stale.
  EXPECT_THROW(net.release(m, net.now()), std::out_of_range);
  const MsgId live = addRouted(net, 0, 1, 100, router->route(0, 1));
  EXPECT_THROW(net.release(live, net.now() - 1), std::invalid_argument);
}

TEST(Network, AddMessageValidatesRoutes) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  xgft::Route bad;  // Too short for an inter-switch pair.
  EXPECT_THROW(addRouted(net, 0, 15, 100, bad), std::invalid_argument);
}

TEST(Network, SinkSeesNoDeliveryBeforeCompletion) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 100, router->route(0, 1));
  net.release(m, 0);
  net.run(/*until=*/1);
  EXPECT_TRUE(rec.deliveries.empty());
  net.run();
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_GT(rec.timeOf(m), 0u);
}

TEST(Network, ZeroByteMessageStillTravels) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 5, 0, router->route(0, 5));
  net.release(m, 0);
  net.run();
  // One header-only segment crosses the network.
  EXPECT_EQ(net.stats().segmentsDelivered, 1u);
}

TEST(Network, WireBusyAccounting) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, zeroLatencyConfig());
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 4 * 1024, router->route(0, 1));
  net.release(m, 0);
  net.run();
  // The host's injection wire was busy exactly 4 segments long.
  const std::uint32_t hostPort = net.globalPort(0, 0, 0);
  EXPECT_EQ(net.wireBusyNs(hostPort), 4u * 4096);
}

TEST(Network, PartialSegmentsSerializeForTheirPayload) {
  // 1.5 KB: a full segment, then a 512-byte one that holds the wire half
  // as long; each segment carries its own serialization time.
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, zeroLatencyConfig());
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 1536, router->route(0, 1));
  net.release(m, 0);
  net.run();
  EXPECT_EQ(net.wireBusyNs(net.globalPort(0, 0, 0)), 4096u + 2048u);
  EXPECT_EQ(net.stats().segmentsDelivered, 2u);
}

TEST(Network, SegmentSerializationTimeMustFit32Bits) {
  // A segment stores its serialization time in 32 bits: 1032 bytes at
  // 1e-6 Gbit/s take 8.3 s, past 2^32 ns; at 2e-6 Gbit/s 4.1 s still fit.
  const Topology topo(xgft::xgft2(4, 4, 2));
  SimConfig slow;
  slow.linkGbps = 1e-6;
  try {
    const Network net(topo, slow);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("32-bit per-segment time"),
              std::string::npos)
        << e.what();
  }
  slow.linkGbps = 2e-6;
  EXPECT_NO_THROW(Network(topo, slow));
}

TEST(Network, RunUntilPausesAndResumes) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, zeroLatencyConfig());
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 64 * 1024, router->route(0, 1));
  net.release(m, 0);
  net.run(/*until=*/10000);
  EXPECT_LE(net.now(), 10000u);
  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Network, SegmentCountOverflowThrowsInsteadOfWrapping) {
  // A message so large its segment count exceeds the 32-bit counter must
  // be rejected with a clear message, not silently truncated modulo 2^32
  // (2^42 bytes / 1 KB segments = 2^32 segments, one past the counter).
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  try {
    (void)addRouted(net, 0, 1, Bytes{1} << 42, router->route(0, 1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("32-bit segment counter"),
              std::string::npos)
        << e.what();
  }
  // Nothing was registered: the id space is untouched by the failed add.
  EXPECT_THROW(net.release(0, 0), std::out_of_range);
  // The largest representable segment count is still accepted.
  const MsgId ok =
      addRouted(net, 0, 1, (Bytes{1} << 42) - 1024, router->route(0, 1));
  EXPECT_EQ(ok, 0u);
}

TEST(Network, OversizedTopologyPortSpaceThrows) {
  // The flat event core indexes ports with 32-bit ids; a topology that
  // cannot fit must be rejected at Network construction, before the wiring
  // arrays are sized from the overflowed count.  XGFT(1; 2^16; 2^16) has
  // only 131072 nodes (cheap to build) but 2^33 ports — the guard fires
  // before any port array is allocated.
  const xgft::Params params({1u << 16}, {1u << 16});
  const Topology big(params);
  try {
    Network net(big, SimConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("port"), std::string::npos)
        << e.what();
  }
}

TEST(Network, StrandedTrafficThrowsOnDrainNotHangs) {
  // Degenerate flow control: zero-capacity output buffers make every
  // switch hop unpassable, so a released message parks forever in the
  // first input buffer.  run() must detect the stranding when the event
  // queue drains and throw, not return silently or hang.
  const Topology topo(xgft::xgft2(4, 4, 2));
  SimConfig cfg;
  cfg.outputBufferSegments = 0;
  Network net(topo, cfg);
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const MsgId m = addRouted(net, 0, 1, 1024, router->route(0, 1));
  net.release(m, 0);
  try {
    net.run();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("undelivered released message"),
              std::string::npos)
        << e.what();
  }
  // The message entered the network but never completed.
  EXPECT_EQ(net.stats().segmentsInjected, 1u);
  EXPECT_EQ(net.stats().segmentsDelivered, 0u);
  EXPECT_TRUE(rec.deliveries.empty());
}

TEST(Network, UnreleasedTrafficIsNotStranded) {
  // Drainage only audits released messages: registering without releasing
  // is legal and run() returns cleanly.
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  (void)addRouted(net, 0, 1, 1024, router->route(0, 1));
  EXPECT_NO_THROW(net.run());
}

TEST(Network, AddMessageSetValidatesItsArguments) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  DeliveryRecorder rec;
  net.setSink(&rec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const RouteSet set = RouteSet::one(2, router->choice(0, 9, 2));
  // The empty set is only for local (src == dst) messages, and vice versa.
  EXPECT_THROW((void)net.addMessageSet(0, 9, 100, RouteSet{}),
               std::invalid_argument);
  EXPECT_THROW((void)net.addMessageSet(3, 3, 100, set),
               std::invalid_argument);
  // Local messages with the empty set are fine.
  const MsgId local = net.addMessageSet(4, 4, 100, RouteSet{});
  net.release(local, 10);
  net.run();
  EXPECT_EQ(rec.timeOf(local), 10u);
}

TEST(Network, CallbacksFireInOrder) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  std::vector<int> order;
  net.scheduleCallback(200, [&]() { order.push_back(2); });
  net.scheduleCallback(100, [&]() { order.push_back(1); });
  net.scheduleCallback(200, [&]() { order.push_back(3); });  // Same time:
  net.run();                                                 // insertion order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace sim
