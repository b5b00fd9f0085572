// Tests for the NetworkStats validity contract documented in network.hpp:
// every field is meaningful at any run(until) boundary (not only after a
// full drain), all fields are monotone non-decreasing across resumes, the
// chopped totals equal a one-shot run's, and an attached sampling probe
// changes none of it.
#include <gtest/gtest.h>

#include <vector>

#include "obs/recorder.hpp"
#include "route_sets.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "xgft/topology.hpp"

namespace sim {
namespace {

using xgft::Topology;

/// Every host but 0 sends to host 0, released now.
void injectHotspot(Network& net, const Topology& topo,
                   const routing::Router& router) {
  for (xgft::NodeIndex s = 1; s < topo.numHosts(); ++s) {
    const MsgId m = addRouted(net, s, 0, 32 * 1024, router.route(s, 0));
    net.release(m, net.now());
  }
}

/// Runs @p net in fixed-size time slices until all 15 hotspot messages are
/// delivered (plus one unbounded run for trailing wire-free events),
/// snapshotting stats at every boundary.
std::vector<NetworkStats> runChopped(Network& net, TimeNs slice) {
  std::vector<NetworkStats> snapshots;
  for (TimeNs until = slice; net.stats().messagesDelivered < 15;
       until += slice) {
    net.run(until);
    snapshots.push_back(net.stats());
  }
  net.run();
  snapshots.push_back(net.stats());
  return snapshots;
}

void expectMonotone(const std::vector<NetworkStats>& snapshots) {
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    const NetworkStats& prev = snapshots[i - 1];
    const NetworkStats& cur = snapshots[i];
    EXPECT_GE(cur.segmentsInjected, prev.segmentsInjected) << "slice " << i;
    EXPECT_GE(cur.segmentsDelivered, prev.segmentsDelivered) << "slice " << i;
    EXPECT_GE(cur.messagesDelivered, prev.messagesDelivered) << "slice " << i;
    EXPECT_GE(cur.eventsProcessed, prev.eventsProcessed) << "slice " << i;
    EXPECT_GE(cur.lastDeliveryNs, prev.lastDeliveryNs) << "slice " << i;
    EXPECT_GE(cur.maxOutputQueueDepth, prev.maxOutputQueueDepth)
        << "slice " << i;
    EXPECT_GE(cur.maxInputQueueDepth, prev.maxInputQueueDepth)
        << "slice " << i;
  }
}

TEST(NetworkStats, MonotoneAcrossResumesAndFinalEqualsOneShot) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);

  Network oneShot(topo, SimConfig{});
  injectHotspot(oneShot, topo, *router);
  oneShot.run();
  const NetworkStats full = oneShot.stats();

  Network chopped(topo, SimConfig{});
  injectHotspot(chopped, topo, *router);
  const std::vector<NetworkStats> snapshots = runChopped(chopped, 10'000);
  ASSERT_GT(snapshots.size(), 3u) << "slice too coarse to exercise resumes";
  expectMonotone(snapshots);

  const NetworkStats& last = snapshots.back();
  EXPECT_EQ(last.segmentsInjected, full.segmentsInjected);
  EXPECT_EQ(last.segmentsDelivered, full.segmentsDelivered);
  EXPECT_EQ(last.messagesDelivered, full.messagesDelivered);
  EXPECT_EQ(last.eventsProcessed, full.eventsProcessed);
  EXPECT_EQ(last.lastDeliveryNs, full.lastDeliveryNs);
  EXPECT_EQ(last.maxOutputQueueDepth, full.maxOutputQueueDepth);
  EXPECT_EQ(last.maxInputQueueDepth, full.maxInputQueueDepth);
}

TEST(NetworkStats, MidRunSnapshotsAreCoherent) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  injectHotspot(net, topo, *router);
  for (const NetworkStats& s : runChopped(net, 10'000)) {
    // Conservation holds at every boundary, not only after the drain.
    EXPECT_LE(s.segmentsDelivered, s.segmentsInjected);
    EXPECT_LE(s.messagesDelivered, 15u);
    EXPECT_LE(s.lastDeliveryNs, net.now());
  }
}

TEST(NetworkStats, SamplingProbeDoesNotDisturbPartialRuns) {
  // The kSample queue event must neither count as a processed event nor
  // change where run(until) stops.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);

  Network plain(topo, SimConfig{});
  injectHotspot(plain, topo, *router);
  const std::vector<NetworkStats> bare = runChopped(plain, 10'000);

  obs::RecorderConfig cfg;
  cfg.samplePeriodNs = 777;  // Misaligned with both events and slices.
  obs::Recorder rec(cfg);
  Network observed(topo, SimConfig{});
  observed.setProbe(&rec);
  injectHotspot(observed, topo, *router);
  const std::vector<NetworkStats> probed = runChopped(observed, 10'000);

  ASSERT_EQ(bare.size(), probed.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].eventsProcessed, probed[i].eventsProcessed)
        << "slice " << i;
    EXPECT_EQ(bare[i].segmentsDelivered, probed[i].segmentsDelivered)
        << "slice " << i;
    EXPECT_EQ(bare[i].lastDeliveryNs, probed[i].lastDeliveryNs)
        << "slice " << i;
  }
  EXPECT_GT(rec.series().size(), 0u);
}

// ---- Idle stretches (markIdle / sinceMark / advanceIdle) -------------------

/// One message 1 -> 2, released now: a stretch with shallow queues.
void injectSingle(Network& net, const routing::Router& router) {
  const MsgId m = addRouted(net, 1, 2, 32 * 1024, router.route(1, 2));
  net.release(m, net.now());
}

/// Every wire's busy time.
std::vector<TimeNs> busyOf(const Network& net) {
  std::vector<TimeNs> busy;
  for (std::uint32_t g = 0; g < net.numGlobalPorts(); ++g) {
    busy.push_back(net.wireBusyNs(g));
  }
  return busy;
}

void expectSameStats(const NetworkStats& a, const NetworkStats& b) {
  EXPECT_EQ(a.segmentsInjected, b.segmentsInjected);
  EXPECT_EQ(a.segmentsDelivered, b.segmentsDelivered);
  EXPECT_EQ(a.messagesDelivered, b.messagesDelivered);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.lastDeliveryNs, b.lastDeliveryNs);
  EXPECT_EQ(a.maxOutputQueueDepth, b.maxOutputQueueDepth);
  EXPECT_EQ(a.maxInputQueueDepth, b.maxInputQueueDepth);
  EXPECT_EQ(a.segmentsRerouted, b.segmentsRerouted);
  EXPECT_EQ(a.segmentsStranded, b.segmentsStranded);
  EXPECT_EQ(a.messagesDropped, b.messagesDropped);
  EXPECT_EQ(a.linkDownNs, b.linkDownNs);
}

TEST(NetworkStats, AdvancingAnIdleNetworkEqualsSimulatingTheStretch) {
  // The hotspot, read as a delta on a network of its own, stands in for
  // simulating it after the single message: same clock, counters, queue
  // maxima (the hotspot's are the deeper) and wire busy times.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);

  Network full(topo, SimConfig{});
  injectSingle(full, *router);
  full.run();
  injectHotspot(full, topo, *router);
  full.run();

  Network recorded(topo, SimConfig{});
  recorded.markIdle();
  injectHotspot(recorded, topo, *router);
  recorded.run();
  const IdleDelta hotspot = recorded.sinceMark();
  EXPECT_EQ(hotspot.durationNs, recorded.now());
  EXPECT_EQ(hotspot.messagesDelivered, 15u);
  EXPECT_LT(hotspot.busy.size(), recorded.numGlobalPorts());

  Network advanced(topo, SimConfig{});
  injectSingle(advanced, *router);
  advanced.run();
  const NetworkStats before = advanced.stats();
  ASSERT_LT(before.maxInputQueueDepth, hotspot.maxInputQueueDepth);
  advanced.advanceIdle(hotspot);
  EXPECT_EQ(advanced.now(), full.now());
  expectSameStats(advanced.stats(), full.stats());
  EXPECT_EQ(busyOf(advanced), busyOf(full));
  expectMonotone({before, advanced.stats()});
  EXPECT_TRUE(advanced.idle());
}

TEST(NetworkStats, AMarkedStretchKeepsItsOwnHighWaterMarks) {
  // After the hotspot, the single message's stretch reads its own shallow
  // maxima and the same delta as on a fresh network, while stats() keeps
  // the hotspot's maxima throughout.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);

  Network fresh(topo, SimConfig{});
  fresh.markIdle();
  injectSingle(fresh, *router);
  fresh.run();
  const IdleDelta alone = fresh.sinceMark();

  Network net(topo, SimConfig{});
  injectHotspot(net, topo, *router);
  net.run();
  const NetworkStats hot = net.stats();
  net.markIdle();
  injectSingle(net, *router);
  std::vector<NetworkStats> snapshots = {hot};
  for (TimeNs until = net.now() + 5'000; !net.idle(); until += 5'000) {
    net.run(until);
    snapshots.push_back(net.stats());
  }
  expectMonotone(snapshots);
  EXPECT_EQ(net.stats().maxInputQueueDepth, hot.maxInputQueueDepth);
  EXPECT_EQ(net.stats().maxOutputQueueDepth, hot.maxOutputQueueDepth);

  const IdleDelta single = net.sinceMark();
  EXPECT_LT(single.maxInputQueueDepth, hot.maxInputQueueDepth);
  EXPECT_EQ(single.durationNs, alone.durationNs);
  EXPECT_EQ(single.segmentsInjected, alone.segmentsInjected);
  EXPECT_EQ(single.segmentsDelivered, alone.segmentsDelivered);
  EXPECT_EQ(single.messagesDelivered, alone.messagesDelivered);
  EXPECT_EQ(single.eventsProcessed, alone.eventsProcessed);
  EXPECT_EQ(single.maxOutputQueueDepth, alone.maxOutputQueueDepth);
  EXPECT_EQ(single.maxInputQueueDepth, alone.maxInputQueueDepth);
  ASSERT_EQ(single.busy.size(), alone.busy.size());
  for (std::size_t i = 0; i < single.busy.size(); ++i) {
    EXPECT_EQ(single.busy[i].port, alone.busy[i].port);
    EXPECT_EQ(single.busy[i].ns, alone.busy[i].ns);
  }
}

TEST(NetworkStats, AWireBusyFor2To32NsOrMoreTakesOneEntryPerChunk) {
  // At 2 Mbit/s a full segment serializes in 4.128 ms, so 1,100 of them
  // keep each wire of the route busy for 4.54 s, past 2^32 ns.
  SimConfig slow;
  slow.linkGbps = 0.002;
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network recorded(topo, slow);
  recorded.markIdle();
  const MsgId m = addRouted(recorded, 1, 2, 1'100 * 1024, router->route(1, 2));
  recorded.release(m, 0);
  recorded.run();
  const IdleDelta delta = recorded.sinceMark();
  ASSERT_EQ(delta.busy.size(), 4u);  // Two wires, two chunks each.
  EXPECT_EQ(delta.busy[0].port, delta.busy[1].port);
  EXPECT_EQ(delta.busy[0].ns, 0xffffffffu);

  Network advanced(topo, slow);
  advanced.advanceIdle(delta);
  EXPECT_EQ(busyOf(advanced), busyOf(recorded));
  EXPECT_GT(advanced.wireBusyNs(delta.busy[0].port), 0xffffffffull);
}

TEST(NetworkStats, IdleStretchCallsCheckTheirPreconditions) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  EXPECT_THROW((void)net.sinceMark(), std::logic_error);  // No mark yet.
  injectSingle(net, *router);
  EXPECT_FALSE(net.idle());  // Released, not delivered.
  EXPECT_THROW(net.markIdle(), std::logic_error);
  EXPECT_THROW(net.advanceIdle(IdleDelta{}), std::logic_error);
  net.run(1'000);
  EXPECT_THROW(net.markIdle(), std::logic_error);  // Segments in flight.
  net.run();
  EXPECT_TRUE(net.idle());
  net.markIdle();
  EXPECT_THROW((void)net.sinceMark(), std::logic_error);  // Nothing delivered.

  // A probe would miss the skipped events.
  obs::Recorder rec(obs::RecorderConfig{});
  net.setProbe(&rec);
  EXPECT_THROW(net.advanceIdle(IdleDelta{}), std::logic_error);
}

}  // namespace
}  // namespace sim
