// Tests for degraded-topology routing: the failed-link view, table
// recompilation around failures for every registered table scheme, the
// sibling-survival and full-partition edge cases, and both unreachable
// policies (throw vs. drop — never a hang, never a silent loss).
#include "fault/degraded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "patterns/pattern.hpp"
#include "xgft/params.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace fault {
namespace {

using xgft::Topology;

/// Builds the (table-mode) scheme @p name through the registry, supplying
/// a small workload for pattern-aware schemes (Colored).
std::shared_ptr<const routing::Router> buildScheme(const std::string& name,
                                                   const Topology& topo) {
  core::Scenario scen;
  scen.topo = topo.params();
  scen.routing = name;
  scen.pattern = "ring:8";
  scen.seed = 1;
  const patterns::PhasedPattern app = scen.makeWorkload();
  return scen.makeRouter(topo, app);
}

/// Every ordered pair's compiled route avoids all failed links (unroutable
/// pairs excepted) and is a valid minimal route.
void expectTableAvoidsFailures(const core::CompiledRoutes& table,
                               const DegradedTopology& view,
                               const Topology& topo) {
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
      if (s == d || table.unroutable(s, d)) continue;
      const xgft::Route r = table.route(s, d);
      std::string err;
      ASSERT_TRUE(xgft::validateRoute(topo, s, d, r, &err))
          << s << "->" << d << ": " << err;
      EXPECT_FALSE(view.routeBlocked(s, d, r))
          << s << "->" << d << " still crosses a failed link";
    }
  }
}

TEST(DegradedTopology, ValidatesAndDeduplicatesFailedLinks) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const std::vector<xgft::LinkId> failed = {3, 3, 7};
  const DegradedTopology view(topo, failed);
  EXPECT_EQ(view.numFailed(), 2u);
  EXPECT_TRUE(view.linkFailed(3));
  EXPECT_TRUE(view.linkFailed(7));
  EXPECT_FALSE(view.linkFailed(4));
  const std::vector<xgft::LinkId> bad = {topo.numLinks()};
  EXPECT_THROW(DegradedTopology(topo, bad), std::invalid_argument);
}

TEST(DegradedTopology, RouteBlockedSeesExactlyTheCrossedLinks) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const xgft::Route r = xgft::routeViaNca(topo, 0, 5, 0);
  const auto channels = xgft::channelsOf(topo, 0, 5, r);
  ASSERT_FALSE(channels.empty());
  const std::vector<xgft::LinkId> onPath = {channels[1].link};
  EXPECT_TRUE(DegradedTopology(topo, onPath).routeBlocked(0, 5, r));
  // A link the route does not cross never blocks it.
  std::vector<xgft::LinkId> offPath;
  for (xgft::LinkId l = 0; l < topo.numLinks(); ++l) {
    bool crossed = false;
    for (const xgft::Channel& ch : channels) crossed |= (ch.link == l);
    if (!crossed) {
      offPath.push_back(l);
      break;
    }
  }
  ASSERT_FALSE(offPath.empty());
  EXPECT_FALSE(DegradedTopology(topo, offPath).routeBlocked(0, 5, r));
}

TEST(DegradedRouting, SiblingsKeepEveryPairReachable) {
  // w1 = 2: each host has a second level-1 parent, so killing every
  // up-link of one level-1 switch reroutes around it without losing any
  // pair (the satellite edge case the subsystem must get right).
  const Topology topo(xgft::Params({4, 4}, {2, 2}));
  const FaultPlan plan = makeFaultPlan("uplinks-of:1:0", topo, 1);
  const DegradedTopology view(topo, plan.failedAt(0));
  const DegradedRoutes degraded = compileDegraded(
      buildScheme("d-mod-k", topo), view, UnreachablePolicy::kThrow);
  EXPECT_TRUE(degraded.unreachable.empty());
  expectTableAvoidsFailures(*degraded.table, view, topo);
}

TEST(DegradedRouting, EveryTableSchemeCompilesAroundFailures) {
  const Topology topo(xgft::Params({4, 4}, {2, 2}));
  const FaultPlan plan = makeFaultPlan("links:25", topo, 5);
  const DegradedTopology view(topo, plan.failedAt(0));
  // Which pairs lose all their minimal routes is a property of the failed
  // set, not of the scheme: every table scheme must compile and report the
  // exact same unreachable set, and every surviving route must be clean.
  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> expected;
  bool first = true;
  const auto names = core::schemeRegistry().names();
  for (const std::string& name : *names) {
    if (core::schemeRegistry().at(name).mode != core::RouteMode::kTable) {
      continue;
    }
    SCOPED_TRACE(name);
    const DegradedRoutes degraded = compileDegraded(
        buildScheme(name, topo), view, UnreachablePolicy::kDrop);
    if (first) {
      expected = degraded.unreachable;
      first = false;
    } else {
      EXPECT_EQ(degraded.unreachable, expected);
    }
    expectTableAvoidsFailures(*degraded.table, view, topo);
  }
  EXPECT_FALSE(first);  // At least one table scheme is registered.
}

TEST(DegradedRouting, CompressedLayoutMatchesFlatAroundFailures) {
  // The interval-compressed layout must reproduce the flat degraded table
  // pair-for-pair: same surviving routes, same unreachable set (compressed
  // len-0 runs cover both the diagonal and dropped pairs).
  const Topology topo(xgft::Params({4, 4}, {2, 2}));
  const FaultPlan plan = makeFaultPlan("links:25", topo, 5);
  const DegradedTopology view(topo, plan.failedAt(0));
  for (const char* scheme : {"d-mod-k", "Random"}) {
    SCOPED_TRACE(scheme);
    const DegradedRoutes flat =
        compileDegraded(buildScheme(scheme, topo), view,
                        UnreachablePolicy::kDrop, 1, core::TableLayout::kFlat);
    const DegradedRoutes packed = compileDegraded(
        buildScheme(scheme, topo), view, UnreachablePolicy::kDrop, 2,
        core::TableLayout::kCompressed);
    EXPECT_FALSE(flat.table->compressed());
    ASSERT_TRUE(packed.table->compressed());
    EXPECT_EQ(packed.unreachable, flat.unreachable);
    for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
      for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
        const auto a = flat.table->upPorts(s, d);
        const auto b = packed.table->upPorts(s, d);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << s << " -> " << d;
      }
    }
    expectTableAvoidsFailures(*packed.table, view, topo);
  }
}

TEST(DegradedRouting, HealthyRoutesAreKeptVerbatim) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const auto router = buildScheme("d-mod-k", topo);
  // Fail one level-1 up-link: pairs not crossing it keep the scheme's own
  // choice (the degraded table only deviates where it must).
  const std::vector<xgft::LinkId> failed = {topo.upLink(1, 0, 0)};
  const DegradedTopology view(topo, failed);
  const DegradedRoutes degraded =
      compileDegraded(router, view, UnreachablePolicy::kThrow);
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
      if (s == d) continue;
      const xgft::Route own = router->route(s, d);
      if (!view.routeBlocked(s, d, own)) {
        EXPECT_EQ(degraded.table->route(s, d), own) << s << "->" << d;
      }
    }
  }
}

TEST(DegradedRouting, PartitionedPairThrowsUnderThrowPolicy) {
  // w1 = 1: the host's single up-link is its only way out, so failing all
  // up-links of its level-1 switch partitions that whole subtree from the
  // rest of the tree.
  const Topology topo(xgft::Params({4, 4}, {1, 4}));
  const FaultPlan plan = makeFaultPlan("uplinks-of:1:0", topo, 1);
  const DegradedTopology view(topo, plan.failedAt(0));
  try {
    (void)compileDegraded(buildScheme("d-mod-k", topo), view,
                          UnreachablePolicy::kThrow);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unreachable"), std::string::npos)
        << e.what();
  }
}

TEST(DegradedRouting, PartitionedPairsAreReportedUnderDropPolicy) {
  const Topology topo(xgft::Params({4, 4}, {1, 4}));
  const FaultPlan plan = makeFaultPlan("uplinks-of:1:0", topo, 1);
  const DegradedTopology view(topo, plan.failedAt(0));
  const DegradedRoutes degraded = compileDegraded(
      buildScheme("d-mod-k", topo), view, UnreachablePolicy::kDrop);
  // Hosts 0..3 hang off the dead switch: every pair crossing the cut is
  // unreachable (4 inside x 12 outside, both directions), intra-subtree
  // pairs survive.
  EXPECT_EQ(degraded.unreachable.size(), 2u * 4u * 12u);
  EXPECT_TRUE(degraded.table->unroutable(0, 4));
  EXPECT_TRUE(degraded.table->unroutable(4, 0));
  EXPECT_FALSE(degraded.table->unroutable(0, 1));
  EXPECT_FALSE(degraded.table->unroutable(4, 5));
  // Sorted by (src, dst) and deterministic across thread counts.
  const DegradedRoutes threaded = compileDegraded(
      buildScheme("d-mod-k", topo), view, UnreachablePolicy::kDrop, 4);
  EXPECT_EQ(degraded.unreachable, threaded.unreachable);
}

TEST(DegradedRouting, CompileIsDeterministicAcrossThreadCounts) {
  const Topology topo(xgft::Params({4, 4}, {2, 2}));
  const FaultPlan plan = makeFaultPlan("links:25", topo, 9);
  const DegradedTopology view(topo, plan.failedAt(0));
  const auto a = compileDegraded(buildScheme("Random", topo), view,
                                 UnreachablePolicy::kThrow, 1);
  const auto b = compileDegraded(buildScheme("Random", topo), view,
                                 UnreachablePolicy::kThrow, 4);
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
      if (s == d) continue;
      ASSERT_EQ(a.table->route(s, d), b.table->route(s, d));
    }
  }
}

TEST(DegradedRouting, RequireDegradableRejectsPerSegmentSchemes) {
  EXPECT_EQ(fault::requireDegradable("d-mod-k").mode,
            core::RouteMode::kTable);
  const auto names = core::schemeRegistry().names();
  for (const std::string& name : *names) {
    if (core::schemeRegistry().at(name).mode == core::RouteMode::kTable) {
      continue;
    }
    try {
      (void)requireDegradable(name);
      FAIL() << "expected invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cannot run on a degraded"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("degradable: "), std::string::npos)
          << e.what();
    }
  }
}

TEST(DegradedRouting, CompileRejectsMismatchedInputs) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const Topology other(xgft::xgft2(4, 4, 1));
  const DegradedTopology view(other, std::vector<xgft::LinkId>{});
  EXPECT_THROW(
      (void)compileDegraded(nullptr, view, UnreachablePolicy::kThrow),
      std::invalid_argument);
  EXPECT_THROW((void)compileDegraded(buildScheme("d-mod-k", topo), view,
                                     UnreachablePolicy::kThrow),
               std::invalid_argument);
}

}  // namespace
}  // namespace fault
