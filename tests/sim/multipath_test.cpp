// Tests for per-segment multipath spraying (the packet-granular randomized
// routing extension).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "delivery_recorder.hpp"
#include "patterns/applications.hpp"
#include "patterns/permutation.hpp"
#include "route_sets.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "sim/probe.hpp"
#include "trace/harness.hpp"
#include "xgft/rng.hpp"
#include "xgft/route.hpp"

namespace sim {
namespace {

using xgft::Topology;

std::vector<xgft::Route> allRoutes(const Topology& topo, xgft::NodeIndex s,
                                   xgft::NodeIndex d) {
  std::vector<xgft::Route> routes;
  for (xgft::Count c = 0; c < topo.numNcas(s, d); ++c) {
    routes.push_back(routeViaNca(topo, s, d, c));
  }
  return routes;
}

/// Logs every wire a segment starts on, with the message it belongs to.
class WireLog : public Probe {
 public:
  void onWireBusy(std::uint32_t gport, std::uint32_t msg, TimeNs,
                  TimeNs) override {
    busy.emplace_back(gport, msg);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> busy;
};

TEST(Multipath, RequiresAtLeastOneRoute) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  RouteSets sets;
  EXPECT_THROW(sets.add(net, 0, 15, 100, {}, SprayPolicy::kRoundRobin),
               std::invalid_argument);
}

TEST(Multipath, SprayedMessageDeliversAllSegments) {
  const Topology topo(xgft::xgft2(4, 4, 4));
  RouteSets sets;
  Network net(topo, SimConfig{});
  const MsgId m = sets.add(net, 0, 15, 64 * 1024, allRoutes(topo, 0, 15),
                           SprayPolicy::kRoundRobin);
  net.release(m, 0);
  net.run();
  EXPECT_EQ(net.stats().segmentsDelivered, 64u);
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Multipath, RoundRobinUsesEveryRoute) {
  // With 4 candidate roots and RR spraying, all 4 root up-links of the
  // source switch carry traffic.
  const Topology topo(xgft::xgft2(4, 4, 4));
  SimConfig cfg;
  cfg.headerBytes = 0;
  RouteSets sets;
  Network net(topo, cfg);
  const MsgId m = sets.add(net, 0, 15, 64 * 1024, allRoutes(topo, 0, 15),
                           SprayPolicy::kRoundRobin);
  net.release(m, 0);
  net.run();
  for (std::uint32_t p = 0; p < 4; ++p) {
    // Level-1 switch 0, up ports start at m1 = 4.
    const std::uint32_t gport = net.globalPort(1, 0, 4 + p);
    EXPECT_EQ(net.wireBusyNs(gport), 16u * 4096) << "up port " << p;
  }
}

TEST(Multipath, RandomPolicyIsDeterministicPerSeed) {
  const Topology topo(xgft::xgft2(4, 4, 4));
  const auto runOnce = [&](std::uint64_t seed) {
    RouteSets sets;
    Network net(topo, SimConfig{});
    const MsgId m = sets.add(net, 0, 15, 64 * 1024, allRoutes(topo, 0, 15),
                             SprayPolicy::kRandom, seed);
    net.release(m, 0);
    net.run();
    return net.stats().lastDeliveryNs;
  };
  EXPECT_EQ(runOnce(7), runOnce(7));
}

TEST(Multipath, FirstHopMustMatch) {
  // On a tree with w1 = 2 hosts have two NIC ports; routes differing in
  // up[0] are rejected.
  const Topology topo(xgft::Topology(xgft::Params({4, 4}, {2, 2})));
  Network net(topo, SimConfig{});
  std::vector<xgft::Route> routes = allRoutes(topo, 0, 15);
  ASSERT_GE(routes.size(), 2u);
  ASSERT_NE(routes[0].up[0], routes[1].up[0]);  // Choice varies up[0] first.
  EXPECT_THROW(
      RouteSets().add(net, 0, 15, 1024, routes, SprayPolicy::kRoundRobin),
      std::invalid_argument);
}

TEST(Multipath, SprayedPermutationBeatsWorstStaticChoice) {
  // All flows forced through one root vs sprayed over all roots: spraying
  // must be far faster.
  const Topology topo(xgft::xgft2(8, 8, 8));
  const patterns::Permutation perm = patterns::shiftPermutation(64, 8);
  const auto makespan = [&](bool sprayed) {
    RouteSets sets;
    Network net(topo, SimConfig{});
    for (patterns::Rank s = 0; s < 64; ++s) {
      const xgft::NodeIndex d = perm(s);
      MsgId m = 0;
      if (sprayed) {
        m = sets.add(net, s, d, 32 * 1024, allRoutes(topo, s, d),
                     SprayPolicy::kRoundRobin);
      } else {
        m = addRouted(net, s, d, 32 * 1024, routeViaNca(topo, s, d, 0));
      }
      net.release(m, 0);
    }
    net.run();
    return net.stats().lastDeliveryNs;
  };
  EXPECT_LT(makespan(true) * 3, makespan(false));
}

TEST(Multipath, OutOfOrderSegmentsReassemble) {
  // Force out-of-order arrival deterministically: two candidate routes,
  // one pre-congested by a long blocking message, round-robin spraying.
  // Even-indexed segments crawl behind the blocker while odd ones race
  // ahead, so delivery order != injection order; the adapter's reassembly
  // must still complete the message exactly once, after its slowest
  // segment.
  const Topology topo(xgft::xgft2(4, 4, 2));
  SimConfig cfg;
  cfg.headerBytes = 0;
  RouteSets sets;
  Network net(topo, cfg);
  DeliveryRecorder rec;
  net.setSink(&rec);
  std::vector<xgft::Route> routes = allRoutes(topo, 0, 15);
  ASSERT_EQ(routes.size(), 2u);
  // Blocker: saturates root 0's down path toward host 15's switch.
  const MsgId blocker =
      addRouted(net, 1, 14, 64 * 1024, routeViaNca(topo, 1, 14, 0));
  const MsgId sprayed =
      sets.add(net, 0, 15, 8 * 1024, routes, SprayPolicy::kRoundRobin);
  net.release(blocker, 0);
  net.release(sprayed, 0);
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 2u);
  EXPECT_EQ(net.stats().segmentsDelivered, 64u + 8u);
  // The sprayed message is gated by its congested even segments: it cannot
  // have finished at the uncontended single-route time.
  Network clean(topo, cfg);
  DeliveryRecorder cleanRec;
  clean.setSink(&cleanRec);
  const MsgId alone =
      sets.add(clean, 0, 15, 8 * 1024, routes, SprayPolicy::kRoundRobin);
  clean.release(alone, 0);
  clean.run();
  EXPECT_GT(rec.timeOf(sprayed), cleanRec.timeOf(alone));
}

TEST(Multipath, RandomSprayFollowsTheSequenceNumberAcrossSlotReuse) {
  // Sent one after another, each message reuses the slot its predecessor
  // freed.  Spraying must still key on the add order: segment i of the
  // k-th message takes the route hashMix(seed, k, i) picks, and the probe
  // names the message k.
  const Topology topo(xgft::xgft2(4, 4, 4));
  const std::vector<xgft::Route> routes = allRoutes(topo, 0, 15);
  ASSERT_EQ(routes.size(), 4u);
  constexpr std::uint64_t kSeed = 7;
  constexpr std::uint32_t kSegments = 4;
  RouteSets sets;
  Network net(topo, SimConfig{});
  WireLog log;
  net.setProbe(&log);
  for (std::uint32_t k = 0; k < 6; ++k) {
    log.busy.clear();
    const MsgId m = sets.add(net, 0, 15, kSegments * 1024, routes,
                             SprayPolicy::kRandom, kSeed);
    net.release(m, net.now());
    net.run();
    // Leaf 0's up-port wires (local ports 4..7) show each segment's route;
    // an idle fabric starts them in injection order.
    std::vector<std::uint32_t> upPorts;
    for (const auto& [gport, msg] : log.busy) {
      const Network::PortOwner& owner = net.portOwnerOf(gport);
      if (owner.level != 1 || owner.node != 0 || owner.localPort < 4) continue;
      EXPECT_EQ(msg, k);
      upPorts.push_back(owner.localPort - 4);
    }
    ASSERT_EQ(upPorts.size(), kSegments) << "message " << k;
    for (std::uint32_t i = 0; i < kSegments; ++i) {
      const xgft::Route& picked =
          routes[xgft::hashMix(kSeed, k, i) % routes.size()];
      EXPECT_EQ(upPorts[i], picked.up[1]) << "message " << k << " segment "
                                          << i;
    }
  }
}

TEST(Multipath, MaxPathsAboveRouteCountUsesEveryRouteOnce) {
  // spray.maxPaths far above numNcas: the replayer must enumerate each of
  // the n NCA routes exactly once (no duplicates, no out-of-range choice)
  // and behave identically to maxPaths == n.
  const Topology topo(xgft::xgft2(4, 4, 4));  // numNcas == 4 per pair.
  const auto app = trace::scaleMessages(
      patterns::wrfHalo(4, 4, 64 * 1024), 0.5);
  const auto runWith = [&](std::uint32_t maxPaths) {
    trace::SprayConfig spray;
    spray.enabled = true;
    spray.maxPaths = maxPaths;
    return trace::runAppSprayed(topo, app, spray);
  };
  const trace::RunResult wide = runWith(64);
  const trace::RunResult exact = runWith(4);
  EXPECT_EQ(wide.makespanNs, exact.makespanNs);
  EXPECT_EQ(wide.stats.eventsProcessed, exact.stats.eventsProcessed);
  EXPECT_EQ(wide.stats.segmentsDelivered, exact.stats.segmentsDelivered);
  EXPECT_EQ(wide.stats.messagesDelivered, app.phases[0].size());
}

TEST(Multipath, MaxPathsOfOneDegeneratesToSingleRoute) {
  // The boundary below: spraying with maxPaths == 1 selects one seeded
  // route per pair and still delivers everything.
  const Topology topo(xgft::xgft2(4, 4, 4));
  const auto app = trace::scaleMessages(
      patterns::wrfHalo(4, 4, 64 * 1024), 0.5);
  trace::SprayConfig spray;
  spray.enabled = true;
  spray.maxPaths = 1;
  const trace::RunResult r = trace::runAppSprayed(topo, app, spray);
  EXPECT_GT(r.makespanNs, 0u);
  EXPECT_EQ(r.stats.messagesDelivered, app.phases[0].size());
}

TEST(Multipath, HarnessSprayRunsEndToEnd) {
  const Topology topo(xgft::xgft2(8, 8, 4));
  const auto app = trace::scaleMessages(
      patterns::wrfHalo(8, 8, 64 * 1024), 0.5);
  trace::SprayConfig spray;
  spray.enabled = true;
  const trace::RunResult r = trace::runAppSprayed(topo, app, spray);
  EXPECT_GT(r.makespanNs, 0u);
  EXPECT_EQ(r.stats.messagesDelivered, app.phases[0].size());
}

}  // namespace
}  // namespace sim
