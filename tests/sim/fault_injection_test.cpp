// Tests for mid-run link fault injection in the event core: the
// kLinkDown/kLinkUp events under all three FaultPolicies, down-time
// accounting across run(until) resumes, scheduling validation, probe hook
// counts, the drain conversion that keeps faulted runs from hanging or
// throwing, and the recycling of dropped messages' slots.
#include <gtest/gtest.h>

#include <vector>

#include "delivery_recorder.hpp"
#include "route_sets.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "sim/probe.hpp"
#include "xgft/params.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace sim {
namespace {

using xgft::Topology;

/// Counts every fault-related hook invocation.
class FaultProbe : public Probe {
 public:
  void onLinkDown(xgft::LinkId, TimeNs) override { ++downs; }
  void onLinkUp(xgft::LinkId, TimeNs) override { ++ups; }
  void onSegmentStranded(std::uint32_t, std::uint32_t, TimeNs) override {
    ++stranded;
  }
  void onSegmentRerouted(std::uint32_t, std::uint32_t, std::uint32_t,
                         TimeNs) override {
    ++rerouted;
  }
  std::uint64_t downs = 0;
  std::uint64_t ups = 0;
  std::uint64_t stranded = 0;
  std::uint64_t rerouted = 0;
};

/// Makespan of the healthy single-message run, for picking mid-flight
/// fault instants.
TimeNs healthyMakespan(const Topology& topo, const routing::Router& router,
                       xgft::NodeIndex s, xgft::NodeIndex d, Bytes bytes) {
  Network net(topo, SimConfig{});
  const MsgId m = addRouted(net, s, d, bytes, router.route(s, d));
  net.release(m, 0);
  net.run();
  return net.stats().lastDeliveryNs;
}

TEST(FaultInjection, WaitPolicyResumesOnRestore) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::LinkId hostLink = topo.upLink(0, 0, 0);

  Network net(topo, SimConfig{});
  DeliveryRecorder rec;
  net.setSink(&rec);
  net.setFaultPolicy(FaultPolicy::kWait);
  net.scheduleLinkDown(0, hostLink);
  net.scheduleLinkUp(50'000, hostLink);
  const MsgId m = addRouted(net, 0, 1, 4096, router->route(0, 1));
  net.release(m, 0);
  net.run();

  // The message waited out the outage and then delivered normally.
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_EQ(net.stats().segmentsStranded, 0u);
  EXPECT_GE(rec.timeOf(m), 50'000u);
  EXPECT_EQ(net.stats().linkDownNs, 50'000u);
  EXPECT_FALSE(net.linkIsDown(hostLink));
}

TEST(FaultInjection, WaitPolicyWithoutRestoreConvertsToDropsOnDrain) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  net.setFaultPolicy(FaultPolicy::kWait);
  net.scheduleLinkDown(0, topo.upLink(0, 0, 0));
  const MsgId m = addRouted(net, 0, 1, 4096, router->route(0, 1));
  net.release(m, 0);
  // Faulted runs report instead of throwing: the waiting message converts
  // to a drop when the queue drains with the link still down.
  EXPECT_NO_THROW(net.run());
  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  EXPECT_EQ(net.stats().messagesDropped, 1u);
  EXPECT_TRUE(net.linkIsDown(topo.upLink(0, 0, 0)));
}

TEST(FaultInjection, StrandPolicyDropsMidFlightTraffic) {
  // w2 = 1: the level-1 switch has a single up-link, so ascending traffic
  // meeting it dead has no alternative.
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Bytes bytes = 64 * 1024;
  const TimeNs mid = healthyMakespan(topo, *router, 0, 4, bytes) / 2;
  ASSERT_GT(mid, 0u);

  Network net(topo, SimConfig{});
  FaultProbe probe;
  net.setProbe(&probe);
  net.setFaultPolicy(FaultPolicy::kStrand);
  net.scheduleLinkDown(mid, topo.upLink(1, 0, 0));
  const MsgId m = addRouted(net, 0, 4, bytes, router->route(0, 4));
  net.release(m, 0);
  EXPECT_NO_THROW(net.run());

  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  EXPECT_EQ(net.stats().messagesDropped, 1u);
  EXPECT_GE(net.stats().segmentsStranded, 1u);
  EXPECT_EQ(net.stats().segmentsRerouted, 0u);
  EXPECT_EQ(probe.stranded, net.stats().segmentsStranded);
  EXPECT_EQ(probe.downs, 1u);
  (void)m;
}

TEST(FaultInjection, ReroutePolicyDeliversViaTheSiblingUpPort) {
  // w2 = 2: the scheme's chosen up-link dies, the sibling survives, and
  // every ascending segment escapes through it (minimally adaptive).
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::Route route = router->route(0, 4);
  const auto channels = xgft::channelsOf(topo, 0, 4, route);
  ASSERT_EQ(channels.size(), 4u);
  const xgft::LinkId deadUplink = channels[1].link;  // The L1 ascent.

  Network net(topo, SimConfig{});
  DeliveryRecorder rec;
  net.setSink(&rec);
  FaultProbe probe;
  net.setProbe(&probe);
  net.setFaultPolicy(FaultPolicy::kReroute);
  net.scheduleLinkDown(0, deadUplink);
  const MsgId m = addRouted(net, 0, 4, 32 * 1024, route);
  net.release(m, 0);
  net.run();

  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_EQ(net.stats().segmentsStranded, 0u);
  EXPECT_GE(net.stats().segmentsRerouted, 1u);
  EXPECT_EQ(probe.rerouted, net.stats().segmentsRerouted);
  EXPECT_GT(rec.timeOf(m), 0u);
}

TEST(FaultInjection, RerouteAtAnInputHeadReportsTheSequenceNumber) {
  // Two switch-local messages complete first and free their slots, so the
  // next message reuses slot 0 under sequence number 2.  Its route's
  // level-1 up-link is already dead when its segment reaches the switch's
  // input, so the escape happens at the input head — and the hook must
  // name the message by its sequence number, like every other hook.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::Route route = router->route(0, 4);
  const xgft::LinkId deadUplink = xgft::channelsOf(topo, 0, 4, route)[1].link;

  class SeqProbe : public Probe {
   public:
    void onSegmentRerouted(std::uint32_t, std::uint32_t, std::uint32_t msg,
                           TimeNs) override {
      seen.push_back(msg);
    }
    std::vector<std::uint32_t> seen;
  } probe;
  Network net(topo, SimConfig{});
  net.setProbe(&probe);
  net.setFaultPolicy(FaultPolicy::kReroute);
  for (const xgft::NodeIndex d : {1u, 2u}) {
    net.release(addRouted(net, 0, d, 1024, router->route(0, d)), net.now());
    net.run();
  }
  ASSERT_EQ(net.stats().messagesDelivered, 2u);
  net.scheduleLinkDown(net.now(), deadUplink);
  const MsgId m = addRouted(net, 0, 4, 1024, route);
  ASSERT_EQ(m, 0u);  // The recycled slot, which differs from the seq.
  net.release(m, net.now());
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 3u);
  ASSERT_EQ(probe.seen.size(), 1u);
  EXPECT_EQ(probe.seen[0], 2u);
}

TEST(FaultInjection, ReroutePolicyStrandsWhenNoUpPortSurvives) {
  // w2 = 1: reroute has no live alternative, so it degrades to strand.
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Bytes bytes = 64 * 1024;
  const TimeNs mid = healthyMakespan(topo, *router, 0, 4, bytes) / 2;

  Network net(topo, SimConfig{});
  net.setFaultPolicy(FaultPolicy::kReroute);
  net.scheduleLinkDown(mid, topo.upLink(1, 0, 0));
  const MsgId m = addRouted(net, 0, 4, bytes, router->route(0, 4));
  net.release(m, 0);
  EXPECT_NO_THROW(net.run());
  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  EXPECT_EQ(net.stats().messagesDropped, 1u);
  EXPECT_GE(net.stats().segmentsStranded, 1u);
  (void)m;
}

TEST(FaultInjection, DownTimeAccruesAcrossPartialRunBoundaries) {
  // The satellite edge case: a timed plan whose restore fires only after
  // several run(until) resumes.  linkDownNs must be meaningful (and
  // monotone) at every boundary, not only at the end.
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::LinkId hostLink = topo.upLink(0, 0, 0);

  Network net(topo, SimConfig{});
  DeliveryRecorder rec;
  net.setSink(&rec);
  net.setFaultPolicy(FaultPolicy::kWait);
  net.scheduleLinkDown(10'000, hostLink);
  net.scheduleLinkUp(200'000, hostLink);
  const MsgId m = addRouted(net, 0, 1, 4096, router->route(0, 1));
  net.release(m, 20'000);  // Released mid-outage; waits for the restore.

  // The clock sits at the last processed event, so down-time folds up to
  // there at each boundary (monotone, never forgotten between resumes).
  net.run(50'000);  // Processes down@10k and the 20k release.
  EXPECT_TRUE(net.linkIsDown(hostLink));
  EXPECT_EQ(net.stats().linkDownNs, 10'000u);
  net.run(120'000);  // No events in (20k, 120k]: still down, no double count.
  EXPECT_TRUE(net.linkIsDown(hostLink));
  EXPECT_EQ(net.stats().linkDownNs, 10'000u);
  net.run();
  EXPECT_FALSE(net.linkIsDown(hostLink));
  EXPECT_EQ(net.stats().linkDownNs, 190'000u);
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_GE(rec.timeOf(m), 200'000u);
}

TEST(FaultInjection, DroppedMessagesGiveTheirSlotsBack) {
  // Under both eager policies a dead up-link (w2 = 1: no escape) strands
  // two mid-flight messages.  Once their surviving segments drain and the
  // NICs skip what is left, both slots are free: new traffic reuses them
  // and the pool does not grow.
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Bytes bytes = 64 * 1024;
  const TimeNs mid = healthyMakespan(topo, *router, 0, 4, bytes) / 2;
  for (const FaultPolicy policy :
       {FaultPolicy::kStrand, FaultPolicy::kReroute}) {
    SCOPED_TRACE(static_cast<int>(policy));
    Network net(topo, SimConfig{});
    net.setFaultPolicy(policy);
    net.scheduleLinkDown(mid, topo.upLink(1, 0, 0));
    net.release(addRouted(net, 0, 4, bytes, router->route(0, 4)), 0);
    net.release(addRouted(net, 1, 5, bytes, router->route(1, 5)), 0);
    net.run();
    ASSERT_EQ(net.stats().messagesDropped, 2u);
    EXPECT_EQ(net.messageSlots(), 2u);
    // Switch-local traffic never meets the dead link.
    net.release(addRouted(net, 0, 1, 4096, router->route(0, 1)), net.now());
    net.release(addRouted(net, 2, 3, 4096, router->route(2, 3)), net.now());
    net.run();
    EXPECT_EQ(net.stats().messagesDelivered, 2u);
    EXPECT_EQ(net.messageSlots(), 2u);
  }
}

TEST(FaultInjection, DrainDropFreesItsSlotWhenTheNicSkipsIt) {
  // kWait with no restore: the drain converts the waiting message to a
  // drop, but it still sits on its dead NIC's active list, so the slot
  // stays taken.  A later restore lets the NIC skip it, which frees it.
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::LinkId hostLink = topo.upLink(0, 0, 0);
  Network net(topo, SimConfig{});
  net.setFaultPolicy(FaultPolicy::kWait);
  net.scheduleLinkDown(0, hostLink);
  net.release(addRouted(net, 0, 1, 4096, router->route(0, 1)), 0);
  net.run();
  ASSERT_EQ(net.stats().messagesDropped, 1u);
  net.scheduleLinkUp(net.now(), hostLink);
  net.run();
  net.release(addRouted(net, 0, 1, 4096, router->route(0, 1)), net.now());
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().messagesDropped, 1u);
  EXPECT_EQ(net.messageSlots(), 1u);
}

TEST(FaultInjection, TransitionsAreIdempotentAndProbeSeesEachOnce) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  Network net(topo, SimConfig{});
  FaultProbe probe;
  net.setProbe(&probe);
  const xgft::LinkId link = topo.upLink(1, 0, 0);
  net.scheduleLinkDown(0, link);
  net.scheduleLinkDown(0, link);  // Duplicate: no-op at processing time.
  net.scheduleLinkUp(100, link);
  net.scheduleLinkUp(100, link);
  net.run();
  EXPECT_EQ(probe.downs, 1u);
  EXPECT_EQ(probe.ups, 1u);
  EXPECT_EQ(net.stats().linkDownNs, 100u);  // Counted once, not twice.
}

TEST(FaultInjection, SchedulingValidatesLinkAndTime) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  Network net(topo, SimConfig{});
  EXPECT_THROW(net.scheduleLinkDown(0, topo.numLinks()),
               std::invalid_argument);
  EXPECT_THROW(net.scheduleLinkUp(0, topo.numLinks() + 5),
               std::invalid_argument);
  // Once the clock has advanced past t (by processing an event), a
  // transition in the past is rejected.
  net.scheduleLinkDown(1'000, 0);
  net.run();
  EXPECT_THROW(net.scheduleLinkUp(500, 0), std::invalid_argument);
}

TEST(FaultInjection, HealthyRunsKeepFaultCountersZero) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    const xgft::NodeIndex d = (s + 5) % topo.numHosts();
    net.release(addRouted(net, s, d, 8192, router->route(s, d)), 0);
  }
  net.run();
  EXPECT_EQ(net.stats().segmentsRerouted, 0u);
  EXPECT_EQ(net.stats().segmentsStranded, 0u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_EQ(net.stats().linkDownNs, 0u);
}

}  // namespace
}  // namespace sim
