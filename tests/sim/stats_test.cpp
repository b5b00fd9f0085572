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

void injectHotspot(Network& net, const Topology& topo,
                   const routing::Router& router) {
  for (xgft::NodeIndex s = 1; s < topo.numHosts(); ++s) {
    const MsgId m = addRouted(net, s, 0, 32 * 1024, router.route(s, 0));
    net.release(m, 0);
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

}  // namespace
}  // namespace sim
