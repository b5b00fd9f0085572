// Tests for degraded-topology routing: the failed-link view, the
// clean-ascent mask, patching healthy tables around failures for every
// registered table scheme (pair for pair against the per-pair reference
// rule), the sibling-survival and full-partition edge cases, both
// unreachable policies (throw vs. drop — never a hang, never a silent
// loss), and the timed-plan install that restores the healthy table.
#include "fault/degraded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "patterns/pattern.hpp"
#include "sim/network.hpp"
#include "trace/route_resolver.hpp"
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

/// The healthy table of scheme @p name on @p topo.
std::shared_ptr<const core::CompiledRoutes> healthyTable(
    const std::string& name, const Topology& topo) {
  return core::CompiledRoutes::compile(buildScheme(name, topo), 1);
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

/// The per-pair rule a patched table must reproduce, applied pair by pair
/// without the mask: the router's own route when no failed link blocks it,
/// else the first clean routeViaNca choice, else unreachable.
struct ReferenceDegraded {
  std::vector<std::vector<std::uint32_t>> ascents;  ///< [s * n + d].
  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> unreachable;
};

ReferenceDegraded referenceDegraded(const routing::Router& router,
                                    const DegradedTopology& view) {
  const Topology& topo = router.topology();
  const xgft::Count n = topo.numHosts();
  ReferenceDegraded ref;
  ref.ascents.resize(n * n);
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      if (s == d) continue;
      xgft::Route route = router.route(s, d);
      if (view.routeBlocked(s, d, route)) {
        route.up.clear();
        for (xgft::Count c = 0; c < topo.numNcas(s, d); ++c) {
          xgft::Route alt = xgft::routeViaNca(topo, s, d, c);
          if (!view.routeBlocked(s, d, alt)) {
            route = std::move(alt);
            break;
          }
        }
        if (route.up.empty()) ref.unreachable.emplace_back(s, d);
      }
      ref.ascents[s * n + d] = std::move(route.up);
    }
  }
  return ref;
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
      healthyTable("d-mod-k", topo), view, UnreachablePolicy::kThrow);
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
        healthyTable(name, topo), view, UnreachablePolicy::kDrop);
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

TEST(DegradedRouting, HealthyRoutesAreKeptVerbatim) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const auto router = buildScheme("d-mod-k", topo);
  // Fail one level-1 up-link: pairs not crossing it keep the scheme's own
  // choice (the degraded table only deviates where it must).
  const std::vector<xgft::LinkId> failed = {topo.upLink(1, 0, 0)};
  const DegradedTopology view(topo, failed);
  const DegradedRoutes degraded = compileDegraded(
      core::CompiledRoutes::compile(router), view, UnreachablePolicy::kThrow);
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
    (void)compileDegraded(healthyTable("d-mod-k", topo), view,
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
      healthyTable("d-mod-k", topo), view, UnreachablePolicy::kDrop);
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
      healthyTable("d-mod-k", topo), view, UnreachablePolicy::kDrop, 4);
  EXPECT_EQ(degraded.unreachable, threaded.unreachable);
}

TEST(DegradedRouting, CompileIsDeterministicAcrossThreadCounts) {
  const Topology topo(xgft::Params({4, 4}, {2, 2}));
  const FaultPlan plan = makeFaultPlan("links:25", topo, 9);
  const DegradedTopology view(topo, plan.failedAt(0));
  const auto a = compileDegraded(healthyTable("Random", topo), view,
                                 UnreachablePolicy::kThrow, 1);
  const auto b = compileDegraded(healthyTable("Random", topo), view,
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
  EXPECT_THROW((void)compileDegraded(healthyTable("d-mod-k", topo), view,
                                     UnreachablePolicy::kThrow),
               std::invalid_argument);
}

/// compileDegraded(@p healthy) under both policies equals the per-pair
/// reference @p ref: every ascent and the unreachable list under kDrop, and
/// under kThrow success iff nothing is unreachable, else an error naming
/// the reference's first unreachable pair.
void expectPatchMatchesReference(
    const std::shared_ptr<const core::CompiledRoutes>& healthy,
    const DegradedTopology& view, const ReferenceDegraded& ref) {
  const xgft::Count n = healthy->topology().numHosts();
  const DegradedRoutes got =
      compileDegraded(healthy, view, UnreachablePolicy::kDrop, 2);
  ASSERT_EQ(got.unreachable, ref.unreachable);
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      ASSERT_TRUE(std::ranges::equal(got.table->upPorts(s, d),
                                     ref.ascents[s * n + d]))
          << s << " -> " << d;
    }
  }
  if (ref.unreachable.empty()) {
    EXPECT_NO_THROW(
        (void)compileDegraded(healthy, view, UnreachablePolicy::kThrow, 2));
    return;
  }
  const auto [s, d] = ref.unreachable.front();
  try {
    (void)compileDegraded(healthy, view, UnreachablePolicy::kThrow, 2);
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pair " + std::to_string(s) +
                                         " -> " + std::to_string(d) +
                                         " is unreachable"),
              std::string::npos)
        << e.what();
  }
}

TEST(DegradedRouting, PatchMatchesThePerPairRuleEverywhere) {
  // Every table scheme, on trees with and without sibling parents
  // (w1 = 2 / w1 = 1), a 3-level tree and paper-slim, under light, heavy,
  // switch-wide and partitioning failures: the patch of the healthy table
  // must equal the per-pair reference in every ascent, the unreachable
  // list and the kThrow outcome.
  const std::vector<xgft::Params> topologies = {
      xgft::Params({4, 4}, {2, 2}), xgft::Params({4, 4}, {1, 4}),
      xgft::Params({4, 4, 4}, {2, 2, 2}), xgft::xgft2(16, 16, 10)};
  const auto names = core::schemeRegistry().names();
  for (const xgft::Params& params : topologies) {
    const Topology topo(params);
    for (const std::string& name : *names) {
      if (core::schemeRegistry().at(name).mode != core::RouteMode::kTable) {
        continue;
      }
      const auto router = buildScheme(name, topo);
      const auto healthy = core::CompiledRoutes::compile(router, 1);
      for (const char* spec :
           {"links:5", "links:25", "links:50", "switches:10",
            "uplinks-of:1:0"}) {
        for (const std::uint64_t seed : {1u, 2u}) {
          SCOPED_TRACE(params.toString() + " " + name + " " + spec +
                       " seed " + std::to_string(seed));
          const FaultPlan plan = makeFaultPlan(spec, topo, seed);
          const DegradedTopology view(topo, plan.failedAt(0));
          expectPatchMatchesReference(healthy, view,
                                      referenceDegraded(*router, view));
        }
      }
    }
  }
}

TEST(DegradedRouting, PatchMatchesThePerPairRulePastSixtyFourChoices) {
  // XGFT(3; 4,4,4; 1,8,9): a level-3 pair has 8 x 9 = 72 NCA choices, so a
  // host's level-3 row spans two words, and choices 64..71 are those that
  // leave their level-2 switch through up-port 8.  Besides seeded plans,
  // failing up-ports 0..7 of every level-2 switch leaves only those
  // choices clean, so every level-3 pair's rewrite is found in the second
  // word; with port 8 of one switch failed too, its subtree is cut off.
  const Topology topo(xgft::Params({4, 4, 4}, {1, 8, 9}));
  ASSERT_EQ(topo.ncaChoices(3), 72u);
  std::vector<xgft::LinkId> lowPorts;
  for (xgft::NodeIndex node = 0; node < topo.nodesAtLevel(2); ++node) {
    for (std::uint32_t port = 0; port < 8; ++port) {
      lowPorts.push_back(topo.upLink(2, node, port));
    }
  }
  std::vector<xgft::LinkId> cutOff = lowPorts;
  cutOff.push_back(topo.upLink(2, 0, 8));
  std::vector<std::pair<std::string, std::vector<xgft::LinkId>>> failedSets =
      {{"up-ports 0..7 of level 2", lowPorts},
       {"every level-2 up-port of switch 0", cutOff}};
  for (const char* spec : {"links:25", "links:60", "switches:20"}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      failedSets.emplace_back(
          std::string(spec) + " seed " + std::to_string(seed),
          makeFaultPlan(spec, topo, seed).failedAt(0));
    }
  }
  std::uint64_t pastFirstWord = 0;  // Degraded level-3 choices >= 64.
  const auto names = core::schemeRegistry().names();
  for (const std::string& name : *names) {
    if (core::schemeRegistry().at(name).mode != core::RouteMode::kTable) {
      continue;
    }
    const auto router = buildScheme(name, topo);
    const auto healthy = core::CompiledRoutes::compile(router, 1);
    for (const auto& [label, failed] : failedSets) {
      SCOPED_TRACE(name + " " + label);
      const DegradedTopology view(topo, failed);
      expectPatchMatchesReference(healthy, view,
                                  referenceDegraded(*router, view));
      const DegradedRoutes got =
          compileDegraded(healthy, view, UnreachablePolicy::kDrop);
      for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
        for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
          const core::CompiledRoutes::Entry e = got.table->entry(s, d);
          pastFirstWord += e.level == 3 && e.choice >= 64 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(pastFirstWord, 0u);
}

TEST(CleanAscentMask, BothEndsCleanIffTheRouteIsClean) {
  // The mirror property: the descent to d crosses the links d's own ascent
  // with the same up-ports would climb, so the AND of the two endpoints'
  // bits decides every minimal route of every pair.
  const Topology topo(xgft::Params({4, 4, 4}, {2, 2, 2}));
  for (const char* spec : {"links:25", "switches:10"}) {
    SCOPED_TRACE(spec);
    const FaultPlan plan = makeFaultPlan(spec, topo, 1);
    const DegradedTopology view(topo, plan.failedAt(0));
    ASSERT_GT(view.numFailed(), 0u);
    const CleanAscentMask mask(view);
    std::uint64_t clean = 0;
    std::uint64_t blocked = 0;
    for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
      for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
        if (s == d) continue;
        const std::uint32_t level = topo.ncaLevel(s, d);
        for (xgft::Count c = 0; c < topo.numNcas(s, d); ++c) {
          const bool bits = mask.clean(s, level, c) && mask.clean(d, level, c);
          const bool routeClean =
              !view.routeBlocked(s, d, xgft::routeViaNca(topo, s, d, c));
          ASSERT_EQ(bits, routeClean) << s << " -> " << d << " choice " << c;
          ++(routeClean ? clean : blocked);
        }
      }
    }
    EXPECT_GT(clean, 0u);
    EXPECT_GT(blocked, 0u);
  }
}

TEST(CleanAscentMask, TakesOneBitPerHostLevelAndChoice) {
  // paper-slim, XGFT(2; 16,16; 1,10): 256 hosts x (1 + 10) choices =
  // 2816 bits.
  const Topology topo(xgft::xgft2(16, 16, 10));
  const std::vector<xgft::LinkId> failed = {topo.upLink(1, 0, 0)};
  EXPECT_EQ(CleanAscentMask(DegradedTopology(topo, failed)).bytes(), 352u);
}

TEST(InstallFaultPlan, RestorePutsTheHealthyTableBack) {
  // timed:LINK:DOWN:UP patches one degraded table at DOWN; at UP the
  // failed set is empty again, so the healthy table goes back into the
  // resolver and every pair resolves to its healthy choice again.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const auto router = buildScheme("d-mod-k", topo);
  const auto healthy = core::CompiledRoutes::compile(router);
  const xgft::LinkId link = topo.upLink(1, 0, 0);
  const DegradedTopology down(topo, std::vector<xgft::LinkId>{link});
  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> crossing;
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
      if (s != d && down.routeBlocked(s, d, healthy->route(s, d))) {
        crossing.emplace_back(s, d);
      }
    }
  }
  ASSERT_FALSE(crossing.empty());

  const FaultPlan plan = makeFaultPlan(
      "timed:" + std::to_string(link) + ":1000:2000", topo, 1);
  sim::Network net(topo, sim::SimConfig{});
  trace::RouteSetResolver resolver(net, *healthy);
  const std::shared_ptr<void> installed =
      installFaultPlan(net, plan, healthy, &resolver);
  net.run(1500);
  for (const auto& [s, d] : crossing) {
    const sim::RouteSet during = resolver.setFor(s, d);
    ASSERT_FALSE(during.empty());
    EXPECT_NE(during.choice, healthy->entry(s, d).choice);
    const auto up = topo.ascent(during.level, during.choice);
    EXPECT_FALSE(down.routeBlocked(s, d, xgft::Route{{up.begin(), up.end()}}));
  }
  net.run(2500);
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
      if (s == d) continue;
      const sim::RouteSet after = resolver.setFor(s, d);
      EXPECT_EQ(after.level, healthy->entry(s, d).level) << s << " -> " << d;
      EXPECT_EQ(after.choice, healthy->entry(s, d).choice)
          << s << " -> " << d;
    }
  }
}

TEST(InstallFaultPlan, ResolverNeedsTheHealthyTable) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const auto router = buildScheme("d-mod-k", topo);
  const auto healthy = core::CompiledRoutes::compile(router);
  sim::Network net(topo, sim::SimConfig{});
  trace::RouteSetResolver resolver(net, *healthy);
  EXPECT_THROW((void)installFaultPlan(net, makeFaultPlan("links:25", topo, 1),
                                      nullptr, &resolver),
               std::invalid_argument);
}

}  // namespace
}  // namespace fault
