// Tests for the phase replay engine: release order, phase completion, the
// drain check and construction.
#include "trace/replayer.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../sim/route_sets.hpp"
#include "routing/relabel.hpp"
#include "sim/probe.hpp"
#include "trace/harness.hpp"

namespace trace {
namespace {

using xgft::Topology;

/// @p pattern as a one-phase application.
patterns::PhasedPattern onePhase(const patterns::Pattern& pattern) {
  patterns::PhasedPattern app;
  app.numRanks = pattern.numRanks();
  app.phases.push_back(pattern);
  return app;
}

/// Records the (src, dst) hosts of every released message, in order.
class ReleaseRecorder : public sim::Probe {
 public:
  void onMessageReleased(std::uint32_t /*msg*/, xgft::NodeIndex src,
                         xgft::NodeIndex dst, std::uint64_t /*bytes*/,
                         sim::TimeNs /*t*/) override {
    released.emplace_back(src, dst);
  }

  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> released;
};

TEST(Replayer, ReleasesRankByRankWithTheClosingRankLast) {
  // Phase 0's one delivery closes it at its receiver, rank 1.  The empty
  // phase 1 completes at that instant and keeps rank 1 closing, so phase 2
  // releases ranks 0, 2 and 3, then rank 1, each rank's flows in pattern
  // order.
  const Topology topo(xgft::xgft2(4, 4, 2));
  patterns::PhasedPattern app;
  app.numRanks = 4;
  app.phases.assign(3, patterns::Pattern(4));
  app.phases[0].add(0, 1, 4096);
  for (const auto& [src, dst] : std::vector<std::pair<patterns::Rank,
                                                      patterns::Rank>>{
           {3, 0}, {1, 2}, {0, 2}, {2, 3}, {1, 3}, {0, 3}}) {
    app.phases[2].add(src, dst, 4096);
  }
  sim::Network net(topo, sim::SimConfig{});
  ReleaseRecorder probe;
  net.setProbe(&probe);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(4);
  Replayer replayer(net, app, mapping, *router);
  (void)replayer.run();
  const std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> expected{
      {0, 1}, {0, 2}, {0, 3}, {2, 3}, {3, 0}, {1, 2}, {1, 3}};
  EXPECT_EQ(probe.released, expected);
  const std::vector<sim::TimeNs>& barriers = replayer.barrierTimes();
  ASSERT_EQ(barriers.size(), 3u);
  EXPECT_GT(barriers[0], 0u);
  EXPECT_EQ(barriers[1], barriers[0]);
  EXPECT_GT(barriers[2], barriers[1]);
}

TEST(Replayer, SelfFlowsAreNeverSent) {
  // The network delivers a src == dst message locally, so one that was
  // sent would count.
  const Topology topo(xgft::xgft2(4, 4, 2));
  patterns::Pattern p(4);
  p.add(2, 2, 100);
  p.add(0, 1, 100);
  p.add(3, 3, 100);
  EXPECT_EQ(runApp(topo, *routing::makeDModK(topo), onePhase(p))
                .stats.messagesDelivered,
            1u);
}

TEST(Replayer, SingleExchangeCompletes) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  patterns::Pattern p(16);
  p.add(0, 9, 4096);
  p.add(9, 0, 4096);
  const patterns::PhasedPattern app = onePhase(p);
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(16);
  Replayer replayer(net, app, mapping, *router);
  const sim::TimeNs makespan = replayer.run();
  EXPECT_GT(makespan, 0u);
  EXPECT_EQ(net.stats().messagesDelivered, 2u);
  // The phase completes at its last delivery.
  EXPECT_EQ(makespan, net.stats().lastDeliveryNs);
  EXPECT_EQ(replayer.barrierTimes(), std::vector<sim::TimeNs>{makespan});
}

TEST(Replayer, PhasesDoNotOverlap) {
  // Two identical phases must take (almost exactly) twice one phase.
  const Topology topo(xgft::xgft2(4, 4, 4));
  patterns::Pattern p(16);
  for (patterns::Rank r = 0; r < 16; ++r) p.add(r, (r + 4) % 16, 64 * 1024);
  const routing::RouterPtr router = routing::makeDModK(topo);

  const auto timeOf = [&](std::uint32_t phases) {
    patterns::PhasedPattern app;
    app.numRanks = 16;
    for (std::uint32_t i = 0; i < phases; ++i) app.phases.push_back(p);
    return runApp(topo, *router, app).makespanNs;
  };
  const sim::TimeNs one = timeOf(1);
  const sim::TimeNs two = timeOf(2);
  EXPECT_NEAR(static_cast<double>(two), 2.0 * static_cast<double>(one),
              0.02 * static_cast<double>(one));
}

TEST(Replayer, ADroppedMessageFailsItsPhaseWhenTheNetworkDrains) {
  // w2 = 1: rank 0's one message to rank 4 must climb the only up-link of
  // its level-1 switch, which is down from t = 0, so kStrand drops it.
  // The phase can never complete; the network drains and run() names it.
  const Topology topo(xgft::xgft2(4, 4, 1));
  patterns::Pattern p(8);
  p.add(0, 4, 4096);
  const patterns::PhasedPattern app = onePhase(p);
  sim::Network net(topo, sim::SimConfig{});
  net.setFaultPolicy(sim::FaultPolicy::kStrand);
  net.scheduleLinkDown(0, topo.upLink(1, 0, 0));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(8);
  Replayer replayer(net, app, mapping, *router);
  try {
    (void)replayer.run();
    ADD_FAILURE() << "run() returned with phase 0 unfinished";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("phase 0"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(net.stats().messagesDropped, 1u);
  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  EXPECT_TRUE(replayer.barrierTimes().empty());
}

TEST(Replayer, SingleUse) {
  // The replayer is documented single-use: a second run() must throw
  // (regression: a second run once re-walked consumed state and returned
  // silent garbage) and must leave the first run's results readable.
  const Topology topo(xgft::xgft2(4, 4, 2));
  patterns::Pattern p(4);
  p.add(0, 3, 4096);
  const patterns::PhasedPattern app = onePhase(p);
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(4);
  Replayer replayer(net, app, mapping, *router);
  const sim::TimeNs makespan = replayer.run();
  EXPECT_GT(makespan, 0u);
  EXPECT_THROW(replayer.run(), std::logic_error);
  EXPECT_THROW(replayer.run(), std::logic_error);  // Still, on every retry.
  // The failed re-runs perturbed nothing.
  EXPECT_EQ(replayer.barrierTimes(), std::vector<sim::TimeNs>{makespan});
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Replayer, RejectedConstructionLeavesNoSinkBehind) {
  // A throwing constructor must not leave the network pointing at the
  // destroyed replayer's injection process (regression: the rank-mismatch
  // check used to run after the sink was installed).
  const Topology topo(xgft::xgft2(4, 4, 2));
  patterns::PhasedPattern app;
  app.numRanks = 2;
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping tooSmall = Mapping::sequential(1);
  EXPECT_THROW(Replayer(net, app, tooSmall, *router), std::invalid_argument);
  // Driving the network directly afterwards must not touch a dangling
  // sink.
  const sim::MsgId m = sim::addRouted(net, 0, 1, 1024, router->route(0, 1));
  net.release(m, 0);
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Mapping, SequentialAndValidation) {
  const Mapping m = Mapping::sequential(8);
  EXPECT_EQ(m.numRanks(), 8u);
  EXPECT_EQ(m.hostOf(5), 5u);
  EXPECT_THROW(Mapping::custom({0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Mapping::random(10, 5, 1), std::invalid_argument);
}

TEST(Mapping, RandomIsInjectiveAndDeterministic) {
  const Mapping a = Mapping::random(64, 256, 9);
  const Mapping b = Mapping::random(64, 256, 9);
  std::set<xgft::NodeIndex> hosts;
  for (patterns::Rank r = 0; r < 64; ++r) {
    EXPECT_EQ(a.hostOf(r), b.hostOf(r));
    EXPECT_TRUE(hosts.insert(a.hostOf(r)).second);
    EXPECT_LT(a.hostOf(r), 256u);
  }
}

}  // namespace
}  // namespace trace
