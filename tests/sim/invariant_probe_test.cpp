// Runs the event core under sim::InvariantProbe (invariant_probe.hpp): a
// wire carries one segment at a time, switch buffers stay within their
// sizes, and every delivered message crossed segments x 2L wires for its
// NCA level L.  The runs are the route sources campaign jobs use:
// paper-slim open-loop d-mod-k and Random jobs asking their router per
// message, the same jobs on a links:10 degraded table with a timed outage
// on top, and a cg128 replay per table scheme.  A planted violation of
// each invariant shows the probe fires.
#include "invariant_probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
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
#include "trace/trace.hpp"
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

/// One paper-slim open-loop run at load 0.6 under the probe: router mode
/// when @p plan is empty, else on the plan's t = 0 degraded table with the
/// plan installed as the engine installs it.
trace::OpenLoopResult runProbedOpenLoop(const xgft::Topology& topo,
                                        const std::string& scheme,
                                        const fault::FaultPlan& plan,
                                        InvariantProbe& probe) {
  const std::shared_ptr<const routing::Router> router =
      makeRouter(topo, scheme);
  trace::OpenLoopOptions opt;
  opt.warmupNs = kWarmupNs;
  opt.measureNs = kMeasureNs;
  opt.probe = &probe;
  std::shared_ptr<const core::CompiledRoutes> healthy;
  std::shared_ptr<const core::CompiledRoutes> degraded;
  std::shared_ptr<void> installed;
  if (!plan.empty()) {
    healthy = core::CompiledRoutes::compile(router);
    degraded = fault::compileDegraded(
                   healthy, fault::DegradedTopology(topo, plan.failedAt(0)),
                   fault::UnreachablePolicy::kDrop)
                   .table;
    opt.compiled = degraded.get();
    opt.prepare = [&](Network& net, trace::RouteSetResolver& resolver) {
      fault::InstallOptions io;
      io.applyStatic = false;  // The t = 0 table is already opt.compiled.
      installed = fault::installFaultPlan(net, plan, healthy, &resolver, io);
    };
  }
  patterns::OpenLoopConfig cfg;
  cfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
  cfg.load = 0.6;
  cfg.messageBytes = 4096;
  cfg.stopNs = kWarmupNs + kMeasureNs;
  cfg.seed = 1;
  patterns::OpenLoopSource source(cfg);
  return trace::runOpenLoop(topo, *router, source, opt);
}

TEST(InvariantProbe, OpenLoopJobsInRouterMode) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));  // paper-slim
  for (const char* scheme : {"d-mod-k", "Random"}) {
    InvariantProbe probe;
    const trace::OpenLoopResult r =
        runProbedOpenLoop(topo, scheme, {}, probe);
    EXPECT_EQ(probe.delivered(), r.stats.messagesDelivered) << scheme;
    expectClean(probe, scheme);
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
    InvariantProbe probe;
    const trace::OpenLoopResult r =
        runProbedOpenLoop(topo, scheme, plan, probe);
    EXPECT_GT(r.stats.linkDownNs, 0u) << scheme;
    EXPECT_GT(r.stats.segmentsRerouted + r.stats.segmentsStranded, 0u)
        << scheme;
    EXPECT_EQ(probe.delivered(), r.stats.messagesDelivered) << scheme;
    expectClean(probe, scheme);
  }
}

TEST(InvariantProbe, Cg128ReplayOfEveryTableScheme) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  core::Scenario sc;
  sc.topo = topo.params();
  sc.pattern = "cg128";
  sc.msgScale = 0.03125;
  const patterns::PhasedPattern app = sc.makeWorkload();
  const trace::Trace t = trace::traceFromPhases(app);
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  for (const std::string& scheme : *core::schemeRegistry().names()) {
    if (core::schemeRegistry().at(scheme).mode != core::RouteMode::kTable) {
      continue;
    }
    const std::shared_ptr<const routing::Router> router =
        makeRouter(topo, scheme, app);
    Network net(topo, SimConfig{});
    InvariantProbe probe;
    net.setProbe(&probe);
    trace::Replayer replayer(net, t, mapping, *router);
    (void)replayer.run();
    EXPECT_EQ(probe.delivered(), net.stats().messagesDelivered) << scheme;
    expectClean(probe, scheme);
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
