// Tests for the windowed open-loop runner: accepted throughput tracking
// below saturation, the saturation plateau, warmup/drain exclusion,
// run-to-run determinism of the full measurement pipeline, memory that
// follows the messages in flight (or queued, past saturation) rather than
// the run length, table-backed runs that store no routes, and a mid-run
// table swap whose earlier messages keep pointing into the table they were
// resolved through.
#include "trace/openloop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "fault/inject.hpp"
#include "patterns/source.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "sim/probe.hpp"
#include "xgft/topology.hpp"

namespace trace {
namespace {

using xgft::Topology;

patterns::OpenLoopSource makeSource(const Topology& topo, double load,
                                    sim::TimeNs stopNs,
                                    std::uint64_t seed = 1) {
  patterns::OpenLoopConfig cfg;
  cfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
  cfg.load = load;
  cfg.messageBytes = 1024;
  cfg.stopNs = stopNs;
  cfg.seed = seed;
  return patterns::OpenLoopSource(cfg);
}

OpenLoopOptions fastWindows() {
  OpenLoopOptions opt;
  opt.warmupNs = 200'000;
  opt.measureNs = 1'000'000;
  return opt;
}

TEST(OpenLoop, AcceptedTracksOfferedBelowSaturation) {
  const Topology topo(xgft::xgft2(4, 4, 4));  // Full bisection.
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  for (const double load : {0.1, 0.3}) {
    patterns::OpenLoopSource src =
        makeSource(topo, load, opt.warmupNs + opt.measureNs);
    const OpenLoopResult r = runOpenLoop(topo, *router, src, opt);
    // 16 hosts over a 1 ms window is a small sample; the Poisson count
    // fluctuation alone is several percent.
    EXPECT_NEAR(r.acceptedLoad, load, 0.15 * load) << "load " << load;
    EXPECT_GT(r.latency.samples, 100u);
    EXPECT_GE(r.latency.p99Ns, r.latency.p50Ns);
    EXPECT_GE(r.latency.p50Ns, r.latency.minNs);
    EXPECT_GE(r.latency.maxNs, r.latency.p99Ns);
  }
}

TEST(OpenLoop, OverloadSaturatesAndInflatesTail) {
  // Offered 1.5x the link rate cannot be accepted; the network must
  // saturate below 1.0 and the p99 of an overloaded run must dwarf the
  // uncontended one.
  const Topology topo(xgft::xgft2(4, 4, 2));  // Slimmed: saturates early.
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  patterns::OpenLoopSource light =
      makeSource(topo, 0.1, opt.warmupNs + opt.measureNs);
  patterns::OpenLoopSource heavy =
      makeSource(topo, 1.5, opt.warmupNs + opt.measureNs);
  const OpenLoopResult lo = runOpenLoop(topo, *router, light, opt);
  const OpenLoopResult hi = runOpenLoop(topo, *router, heavy, opt);
  EXPECT_LT(hi.acceptedLoad, 1.0);
  EXPECT_GT(hi.acceptedLoad, 0.2);
  EXPECT_GT(hi.latency.p99Ns, 5 * lo.latency.p99Ns);
  // Open loop drains past the horizon: the backlog completes after the
  // sources stop.
  EXPECT_GT(hi.lastDeliveryNs, opt.warmupNs + opt.measureNs);
  // Every injected message is eventually delivered (drain is complete).
  EXPECT_EQ(hi.stats.messagesDelivered,
            hi.windows[0].messages + hi.windows[1].messages +
                hi.windows[2].messages);
}

TEST(OpenLoop, RepeatRunsAreBitIdentical) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  auto once = [&] {
    patterns::OpenLoopSource src =
        makeSource(topo, 0.6, opt.warmupNs + opt.measureNs);
    return runOpenLoop(topo, *router, src, opt);
  };
  const OpenLoopResult a = once();
  const OpenLoopResult b = once();
  EXPECT_EQ(a.stats.eventsProcessed, b.stats.eventsProcessed);
  EXPECT_EQ(a.lastDeliveryNs, b.lastDeliveryNs);
  EXPECT_EQ(a.latency.samples, b.latency.samples);
  EXPECT_EQ(a.latency.p50Ns, b.latency.p50Ns);
  EXPECT_EQ(a.latency.p99Ns, b.latency.p99Ns);
  EXPECT_EQ(a.acceptedLoad, b.acceptedLoad);
}

TEST(OpenLoop, WindowsPartitionDeliveries) {
  const Topology topo(xgft::xgft2(4, 4, 4));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  patterns::OpenLoopSource src =
      makeSource(topo, 0.4, opt.warmupNs + opt.measureNs);
  const OpenLoopResult r = runOpenLoop(topo, *router, src, opt);
  ASSERT_EQ(r.windows.size(), 3u);
  EXPECT_EQ(r.windows[0].beginNs, 0u);
  EXPECT_EQ(r.windows[0].endNs, opt.warmupNs);
  EXPECT_EQ(r.windows[1].beginNs, opt.warmupNs);
  EXPECT_EQ(r.windows[1].endNs, opt.warmupNs + opt.measureNs);
  // Warmup and measurement both saw traffic; the drain tail is short but
  // non-empty at this load (in-flight messages at the horizon).
  EXPECT_GT(r.windows[0].messages, 0u);
  EXPECT_GT(r.windows[1].messages, 0u);
  // Boundary samples: events accumulate across the partial runs.
  EXPECT_GT(r.windows[0].eventsAtEnd, 0u);
  EXPECT_GT(r.windows[1].eventsAtEnd, r.windows[0].eventsAtEnd);
  EXPECT_EQ(r.windows[2].eventsAtEnd, r.stats.eventsProcessed);
  // The measured offered load tracks the configured nominal.
  EXPECT_NEAR(r.offeredLoad, 0.4, 0.06);
  // Latency samples come only from measurement-window injections, so they
  // are bounded by (and close to) the measurement window's deliveries.
  EXPECT_LE(r.latency.samples,
            r.windows[1].messages + r.windows[2].messages);
  EXPECT_GT(r.latency.samples, r.windows[1].messages / 2);
}

TEST(OpenLoop, SpraySourcesAlsoStream) {
  // Per-segment modes run through the same process: spraying an open-loop
  // stream must work and deliver everything.
  const Topology topo(xgft::xgft2(4, 4, 4));
  const routing::RouterPtr router = routing::makeDModK(topo);
  OpenLoopOptions opt = fastWindows();
  opt.spray.enabled = true;
  opt.spray.seed = 3;
  patterns::OpenLoopSource src =
      makeSource(topo, 0.3, opt.warmupNs + opt.measureNs);
  const OpenLoopResult r = runOpenLoop(topo, *router, src, opt);
  EXPECT_NEAR(r.acceptedLoad, 0.3, 0.05);
  EXPECT_GT(r.latency.samples, 0u);
}

/// Tracks the size of the network's message pool.  The pool only grows
/// when a message is added, and every add is followed by its release, so
/// the largest size seen at a release is the pool's final size.
class PoolWatch : public sim::Probe {
 public:
  void onAttach(const sim::Network& net) override { net_ = &net; }
  void onMessageReleased(std::uint32_t, xgft::NodeIndex, xgft::NodeIndex,
                         std::uint64_t, sim::TimeNs) override {
    slots = std::max(slots, net_->messageSlots());
  }
  std::size_t slots = 0;

 private:
  const sim::Network* net_ = nullptr;
};

TEST(OpenLoop, MessagePoolIsSizedByTrafficInFlight) {
  // The load-0.1 d-mod-k job of the loadsweep builtin at msg_scale 0.125
  // on paper-slim, over the engine's default windows: tens of thousands of
  // messages, of which at most a couple of hundred are in flight at once.
  // Completed messages recycle their slots, so the pool stays that small.
  core::Scenario sc;
  sc.topo = xgft::xgft2(16, 16, 10);
  sc.source = "poisson:uniform";
  sc.load = 0.1;
  sc.msgScale = 0.125;
  const Topology topo(sc.topo);
  const routing::RouterPtr router = routing::makeDModK(topo);
  OpenLoopOptions opt;
  PoolWatch watch;
  opt.probe = &watch;
  const std::unique_ptr<patterns::TrafficSource> src =
      sc.makeSource(static_cast<patterns::Rank>(topo.numHosts()), 0,
                    opt.warmupNs + opt.measureNs);
  const OpenLoopResult r = runOpenLoop(topo, *router, *src, opt, sc.sim);
  EXPECT_EQ(r.stats.messagesDelivered, 31'226u);
  EXPECT_GT(watch.slots, 0u);
  EXPECT_LT(watch.slots, 1'000u);
}

TEST(OpenLoop, SaturatedPoolHoldsItsBacklog) {
  // The load-0.9 d-mod-k job of the same sweep, past the saturation knee:
  // open-loop injection does not throttle, so about half of its messages
  // are queued at once.  The pool holds exactly that backlog, one record
  // per live message, however its storage is laid out.
  core::Scenario sc;
  sc.topo = xgft::xgft2(16, 16, 10);
  sc.source = "poisson:uniform";
  sc.load = 0.9;
  sc.msgScale = 0.125;
  const Topology topo(sc.topo);
  const routing::RouterPtr router = routing::makeDModK(topo);
  OpenLoopOptions opt;
  PoolWatch watch;
  opt.probe = &watch;
  const std::unique_ptr<patterns::TrafficSource> src =
      sc.makeSource(static_cast<patterns::Rank>(topo.numHosts()), 0,
                    opt.warmupNs + opt.measureNs);
  const OpenLoopResult r = runOpenLoop(topo, *router, *src, opt, sc.sim);
  EXPECT_EQ(r.stats.messagesDelivered, 280'730u);
  EXPECT_EQ(watch.slots, 147'086u);
}

TEST(OpenLoop, RouterModeRunMatchesTheTableBackedRun) {
  // The resolver hands out the same NCA choice whether it reads a
  // forwarding table or asks the router, so the same open-loop run with
  // and without a table is the same simulation.
  const Topology topo(xgft::xgft2(16, 16, 10));  // paper-slim
  const std::shared_ptr<const routing::Router> router =
      routing::makeRandom(topo, 3);
  const auto table = core::CompiledRoutes::compile(router);
  std::vector<OpenLoopResult> runs;
  for (const bool tabled : {true, false}) {
    OpenLoopOptions opt = fastWindows();
    opt.compiled = tabled ? table.get() : nullptr;
    patterns::OpenLoopSource src =
        makeSource(topo, 0.3, opt.warmupNs + opt.measureNs);
    runs.push_back(runOpenLoop(topo, *router, src, opt));
  }
  EXPECT_GT(runs[0].stats.messagesDelivered, 1'000u);
  EXPECT_EQ(runs[0].stats.eventsProcessed, runs[1].stats.eventsProcessed);
  EXPECT_EQ(runs[0].stats.messagesDelivered, runs[1].stats.messagesDelivered);
  EXPECT_EQ(runs[0].lastDeliveryNs, runs[1].lastDeliveryNs);
  EXPECT_EQ(runs[0].latency.p99Ns, runs[1].latency.p99Ns);
  EXPECT_EQ(runs[0].utilMax, runs[1].utilMax);
}

/// Release and delivery instants per message sequence number.
class LifetimeWatch : public sim::Probe {
 public:
  void onMessageReleased(std::uint32_t msg, xgft::NodeIndex, xgft::NodeIndex,
                         std::uint64_t, sim::TimeNs t) override {
    if (msg >= released.size()) released.resize(msg + 1, kNever);
    released[msg] = t;
  }
  void onMessageDelivered(std::uint32_t msg, sim::TimeNs t) override {
    if (msg >= delivered.size()) delivered.resize(msg + 1, kNever);
    delivered[msg] = t;
  }
  static constexpr sim::TimeNs kNever = ~sim::TimeNs{0};
  std::vector<sim::TimeNs> released;
  std::vector<sim::TimeNs> delivered;
};

TEST(OpenLoop, TimedTableSwapKeepsEarlierMessagesOnTheOldTable) {
  // A timed plan fails one leaf up-link mid-measurement, and the fault
  // installer swaps a degraded table into the resolver at that instant.
  // Messages resolved before the swap keep the healthy table's choices
  // and must still deliver or drop.
  const Topology topo(xgft::xgft2(16, 16, 10));  // paper-slim
  const std::shared_ptr<const routing::Router> router =
      routing::makeDModK(topo);
  const auto healthy = core::CompiledRoutes::compile(router);
  OpenLoopOptions opt = fastWindows();
  const sim::TimeNs downNs = opt.warmupNs + opt.measureNs / 2;
  fault::FaultPlan plan;
  plan.faults.push_back({topo.upLink(1, 0, 0), downNs, fault::kNeverNs});
  opt.compiled = healthy.get();
  std::shared_ptr<void> installed;  // Owns the degraded table.
  opt.prepare = [&](sim::Network& net, RouteSetResolver& resolver) {
    fault::InstallOptions io;
    io.policy = sim::FaultPolicy::kReroute;
    installed = fault::installFaultPlan(net, plan, healthy, &resolver, io);
  };
  LifetimeWatch watch;
  opt.probe = &watch;
  patterns::OpenLoopSource src =
      makeSource(topo, 0.6, opt.warmupNs + opt.measureNs);
  const OpenLoopResult r = runOpenLoop(topo, *router, src, opt);

  // Every released message delivered or dropped; a single dead up-link of
  // ten partitions no pair, so nothing was refused.
  std::uint64_t released = 0;
  std::uint64_t acrossSwap = 0;
  for (std::size_t i = 0; i < watch.released.size(); ++i) {
    if (watch.released[i] == LifetimeWatch::kNever) continue;
    ++released;
    const bool late = i < watch.delivered.size() &&
                      watch.delivered[i] != LifetimeWatch::kNever &&
                      watch.delivered[i] >= downNs;
    if (watch.released[i] < downNs && late) ++acrossSwap;
  }
  EXPECT_EQ(r.stats.messagesDelivered + r.stats.messagesDropped, released);
  EXPECT_GT(r.stats.segmentsRerouted + r.stats.segmentsStranded, 0u);
  EXPECT_GT(acrossSwap, 0u);
}

TEST(OpenLoop, RejectsOversizedSources) {
  const Topology topo(xgft::xgft2(2, 2, 1));  // 4 hosts.
  const routing::RouterPtr router = routing::makeDModK(topo);
  patterns::OpenLoopConfig cfg;
  cfg.numRanks = 16;
  cfg.stopNs = 1'000'000;
  patterns::OpenLoopSource src(cfg);
  EXPECT_THROW((void)runOpenLoop(topo, *router, src, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace trace
