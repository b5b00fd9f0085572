// Runs the event core under sim::InvariantProbe (invariant_probe.hpp): a
// wire carries one segment at a time, switch buffers stay within their
// sizes, and every delivered message crossed segments x 2L wires for its
// NCA level L.  The runs are the route sources campaign jobs use:
// paper-slim open-loop d-mod-k and Random jobs asking their router per
// message, the same jobs on a links:10 degraded table with a timed outage
// on top, a cg128 replay per table scheme, and spray and adaptive runs,
// open-loop and cg128, on xgft3:8:8:8:4:4:2.  A planted violation of each
// invariant shows the probe fires.
#include "invariant_probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "fault/degraded.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "patterns/source.hpp"
#include "trace/mapping.hpp"
#include "trace/openloop.hpp"
#include "trace/replayer.hpp"
#include "xgft/params.hpp"

namespace sim {
namespace {

constexpr TimeNs kWarmupNs = 50'000;
constexpr TimeNs kMeasureNs = 400'000;

/// The router of table scheme @p scheme on @p topo, built the way the
/// engine builds it (pattern-aware schemes see @p app).
std::shared_ptr<const routing::Router> makeRouter(
    const xgft::Topology& topo, const std::string& scheme,
    const patterns::PhasedPattern& app = {}) {
  core::Scenario sc;
  sc.topo = topo.params();
  sc.routing = scheme;
  return sc.makeRouter(topo, app);
}

void expectClean(const InvariantProbe& probe, const std::string& label) {
  EXPECT_GT(probe.delivered(), 100u) << label;
  EXPECT_GT(probe.wireStarts(), probe.delivered()) << label;
  EXPECT_GT(probe.enqueues(), 0u) << label;
  for (const std::string& v : probe.violations()) {
    ADD_FAILURE() << label << ": " << v;
  }
}

/// One open-loop run at load 0.6 under the probe, routed as @p mode says.
/// @p prepare, when set, installs a fault plan as the engine does.
trace::OpenLoopResult runProbedOpenLoop(
    const xgft::Topology& topo, trace::Routing mode, InvariantProbe& probe,
    std::function<void(Network&, trace::RouteSetResolver&)> prepare = {}) {
  trace::OpenLoopOptions opt;
  opt.warmupNs = kWarmupNs;
  opt.measureNs = kMeasureNs;
  opt.probe = &probe;
  opt.prepare = std::move(prepare);
  patterns::OpenLoopConfig cfg;
  cfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
  cfg.load = 0.6;
  cfg.messageBytes = 4096;
  cfg.stopNs = kWarmupNs + kMeasureNs;
  cfg.seed = 1;
  patterns::OpenLoopSource source(cfg);
  return trace::runOpenLoop(topo, mode, source, opt);
}

/// The per-segment modes as campaign jobs of seed 1 run them.
std::vector<std::pair<std::string, trace::Routing>> perSegmentModes() {
  trace::Spray spray;
  spray.seed = core::deriveSeed(1, "spray");
  return {{"spray", spray}, {"adaptive", trace::Adaptive{}}};
}

/// xgft3:8:8:8:4:4:2: a level-3 pair has 32 NCAs, more than a spray's 16
/// paths, so spraying draws per pair there.
xgft::Topology perSegmentTree() {
  return xgft::Topology(xgft::Params({8, 8, 8}, {4, 4, 2}));
}

TEST(InvariantProbe, OpenLoopJobsInRouterMode) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));  // paper-slim
  for (const char* scheme : {"d-mod-k", "Random"}) {
    InvariantProbe probe;
    const trace::OpenLoopResult r =
        runProbedOpenLoop(topo, *makeRouter(topo, scheme), probe);
    EXPECT_EQ(probe.delivered(), r.stats.messagesDelivered) << scheme;
    expectClean(probe, scheme);
  }
}

TEST(InvariantProbe, OpenLoopJobsSprayedAndAdaptive) {
  const xgft::Topology topo = perSegmentTree();
  for (const auto& [label, mode] : perSegmentModes()) {
    InvariantProbe probe;
    const trace::OpenLoopResult r = runProbedOpenLoop(topo, mode, probe);
    EXPECT_EQ(probe.delivered(), r.stats.messagesDelivered) << label;
    expectClean(probe, label);
  }
}

TEST(InvariantProbe, OpenLoopJobsOnADegradedTableWithATimedOutage) {
  // links:10 fails ~10% of the fabric links from t = 0; on top, a leaf
  // up-link the static set spared fails over the middle of the window, so
  // segments queued behind it are rerouted or stranded and the resolver
  // swaps tables twice.
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  fault::FaultPlan plan =
      fault::makeFaultPlan("links:10", topo, core::deriveSeed(1, "fault"));
  const std::vector<xgft::LinkId> statics = plan.failedAt(0);
  xgft::LinkId outage = topo.upLink(1, 0, 0);
  for (std::uint32_t port = 1;
       std::ranges::find(statics, outage) != statics.end(); ++port) {
    outage = topo.upLink(1, 0, port);
  }
  plan.faults.push_back({outage, kWarmupNs + kMeasureNs / 4,
                         kWarmupNs + kMeasureNs * 3 / 4});
  plan.validate(topo);
  for (const char* scheme : {"d-mod-k", "Random"}) {
    const auto healthy =
        core::CompiledRoutes::compile(makeRouter(topo, scheme));
    const auto degraded =
        fault::compileDegraded(healthy,
                               fault::DegradedTopology(topo, plan.failedAt(0)),
                               fault::UnreachablePolicy::kDrop)
            .table;
    std::shared_ptr<void> installed;
    InvariantProbe probe;
    const trace::OpenLoopResult r = runProbedOpenLoop(
        topo, *degraded, probe,
        [&](Network& net, trace::RouteSetResolver& resolver) {
          fault::InstallOptions io;
          io.applyStatic = false;  // The run starts on the t = 0 table.
          installed =
              fault::installFaultPlan(net, plan, healthy, &resolver, io);
        });
    EXPECT_GT(r.stats.linkDownNs, 0u) << scheme;
    EXPECT_GT(r.stats.segmentsRerouted + r.stats.segmentsStranded, 0u)
        << scheme;
    EXPECT_EQ(probe.delivered(), r.stats.messagesDelivered) << scheme;
    expectClean(probe, scheme);
  }
}

/// cg128 at msg_scale 0.03125.
patterns::PhasedPattern cg128App() {
  core::Scenario sc;
  sc.pattern = "cg128";
  sc.msgScale = 0.03125;
  return sc.makeWorkload();
}

/// Replays @p app on @p topo under the probe, routed as @p mode says.
void expectCleanReplay(const xgft::Topology& topo,
                       const patterns::PhasedPattern& app,
                       trace::Routing mode, const std::string& label) {
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  Network net(topo, SimConfig{});
  InvariantProbe probe;
  net.setProbe(&probe);
  trace::Replayer replayer(net, app, mapping, mode);
  (void)replayer.run();
  EXPECT_EQ(probe.delivered(), net.stats().messagesDelivered) << label;
  expectClean(probe, label);
}

TEST(InvariantProbe, Cg128ReplayOfEveryTableScheme) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const patterns::PhasedPattern app = cg128App();
  const auto names = core::schemeRegistry().names();
  for (const std::string& scheme : *names) {
    if (core::schemeRegistry().at(scheme).mode != core::RouteMode::kTable) {
      continue;
    }
    expectCleanReplay(topo, app, *makeRouter(topo, scheme, app), scheme);
  }
}

TEST(InvariantProbe, Cg128ReplaySprayedAndAdaptive) {
  const xgft::Topology topo = perSegmentTree();
  const patterns::PhasedPattern app = cg128App();
  for (const auto& [label, mode] : perSegmentModes()) {
    expectCleanReplay(topo, app, mode, label);
  }
}

TEST(InvariantProbe, CatchesAPlantedViolationOfEachInvariant) {
  // The hooks are fed by hand: message 0 (1 -> 0, one segment, NCA level
  // 1) is released, its wire starts twice in one serialization, an input
  // buffer reports one segment past its size, and the message is
  // delivered after crossing 3 wires instead of 2.
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  Network net(topo, SimConfig{});
  InvariantProbe probe;
  net.setProbe(&probe);
  const SimConfig& cfg = net.config();
  probe.onMessageReleased(0, 1, 0, cfg.segmentBytes, 0);
  probe.onWireBusy(3, 0, 0, 100);
  probe.onWireBusy(3, 0, 50, 100);
  probe.onSegmentEnqueued(7, /*input=*/true, cfg.inputBufferSegments + 1, 60);
  probe.onWireBusy(5, 0, 200, 100);
  probe.onMessageDelivered(0, 400);
  const std::vector<std::string>& v = probe.violations();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NE(v[0].find("wire 3 started a segment"), std::string::npos) << v[0];
  EXPECT_NE(v[1].find("input buffer of port 7"), std::string::npos) << v[1];
  EXPECT_NE(v[2].find("crossed 3 wires, not 2"), std::string::npos) << v[2];
}

}  // namespace
}  // namespace sim
