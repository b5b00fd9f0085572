// Tests for the per-phase timing breakdown (Replayer::barrierTimes),
// including the Sec. VII-A per-phase analysis of CG under D-mod-k.
#include <gtest/gtest.h>

#include "patterns/applications.hpp"
#include "routing/colored.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"
#include "trace/replayer.hpp"

namespace trace {
namespace {

using xgft::Topology;

std::vector<sim::TimeNs> phaseDurations(const Topology& topo,
                                        const routing::Router& router,
                                        const patterns::PhasedPattern& app) {
  sim::Network net(topo, sim::SimConfig{});
  const Mapping mapping = Mapping::sequential(app.numRanks);
  Replayer replayer(net, app, mapping, router);
  replayer.run();
  const std::vector<sim::TimeNs>& barriers = replayer.barrierTimes();
  std::vector<sim::TimeNs> durations(barriers.size());
  for (std::size_t i = 0; i < barriers.size(); ++i) {
    durations[i] = barriers[i] - (i == 0 ? 0 : barriers[i - 1]);
  }
  return durations;
}

TEST(PhaseTiming, OneBarrierPerPhase) {
  const Topology topo(xgft::karyNTree(16, 2));
  const auto cg = scaleMessages(patterns::cgD128(), 1.0 / 16);
  const auto durations =
      phaseDurations(topo, *routing::makeDModK(topo), cg);
  ASSERT_EQ(durations.size(), 5u);
}

TEST(PhaseTiming, CgDegradationIsEntirelyInPhase5) {
  // Sec. VII-A: "whatever degradation this application might suffer due to
  // the routing decision exclusively corresponds to the fifth exchange
  // phase" — phases 1-4 are switch-local and identical under both schemes;
  // phase 5 explodes under D-mod-k and not under Colored.
  const Topology topo(xgft::karyNTree(16, 2));
  const auto cg = scaleMessages(patterns::cgD128(), 1.0 / 16);
  const auto dmodk = phaseDurations(topo, *routing::makeDModK(topo), cg);
  const routing::ColoredRouter colored(topo, cg);
  const auto best = phaseDurations(topo, colored, cg);
  for (std::size_t phase = 0; phase < 4; ++phase) {
    EXPECT_EQ(dmodk[phase], best[phase]) << "local phase " << phase;
  }
  // Phase 5: ~7x under D-mod-k (two uplinks for 14 flows), ~1x for Colored.
  EXPECT_GT(static_cast<double>(dmodk[4]),
            5.0 * static_cast<double>(best[4]));
}

TEST(PhaseTiming, LocalPhasesAreRoutingInvariant) {
  const Topology topo(xgft::karyNTree(16, 2));
  const auto cg = scaleMessages(patterns::cgD128(), 1.0 / 16);
  const auto a = phaseDurations(topo, *routing::makeSModK(topo), cg);
  const auto b = phaseDurations(topo, *routing::makeRNcaDown(topo, 3), cg);
  for (std::size_t phase = 0; phase < 4; ++phase) {
    EXPECT_EQ(a[phase], b[phase]);
  }
}

TEST(PhaseTiming, BarrierTimesAreMonotone) {
  const Topology topo(xgft::xgft2(8, 8, 4));
  const auto app = scaleMessages(patterns::wrfHalo(8, 8, 64 * 1024), 0.5);
  sim::Network net(topo, sim::SimConfig{});
  const Mapping mapping = Mapping::sequential(app.numRanks);
  const routing::RouterPtr router = routing::makeDModK(topo);
  Replayer replayer(net, app, mapping, *router);
  const sim::TimeNs makespan = replayer.run();
  const auto& barriers = replayer.barrierTimes();
  ASSERT_FALSE(barriers.empty());
  for (std::size_t i = 1; i < barriers.size(); ++i) {
    EXPECT_LE(barriers[i - 1], barriers[i]);
  }
  EXPECT_EQ(barriers.back(), makespan);
}

}  // namespace
}  // namespace trace
