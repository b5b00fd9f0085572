// Tests for trace::RouteSetResolver and the route form it hands out.
// Hop decode: over 50k SplitMix64 pairs, the output ports every segment
// takes equal xgft::hopsOf of the same route — for a d-mod-k table,
// router-mode d-mod-k at 4096 hosts, router-mode Random and colored, and
// spray sets.  Table mode hands out the table's (level, choice);
// swapping in a degraded table changes later answers while earlier sets
// keep their choices, and only table mode takes a swap.  Router mode: every
// pair resolves to the choice a table of the same router holds, and an
// out-of-range NCA choice is rejected by the router's range check.  Spray
// sets hold min(maxPaths, n) NCA-distinct choices.  Adaptive mode adds
// messages without a route set.
#include "trace/route_resolver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../sim/delivery_recorder.hpp"
#include "fault/degraded.hpp"
#include "patterns/applications.hpp"
#include "routing/colored.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "sim/probe.hpp"
#include "xgft/params.hpp"
#include "xgft/rng.hpp"

namespace trace {
namespace {

struct Fixture {
  explicit Fixture(const xgft::Params& params)
      : topo(params), router(routing::makeDModK(topo)) {}
  xgft::Topology topo;
  std::shared_ptr<const routing::Router> router;
};

/// Every transmission's output gport, per message sequence number: with
/// one segment per message, a message's list is the path it took.
class PathRecorder final : public sim::Probe {
 public:
  void onWireBusy(std::uint32_t gport, std::uint32_t msg, sim::TimeNs,
                  sim::TimeNs) override {
    if (msg >= paths.size()) paths.resize(msg + 1);
    paths[msg].push_back(gport);
  }
  std::vector<std::vector<std::uint32_t>> paths;
};

/// Sends 50k single-segment messages over SplitMix64 pairs, each added by
/// a resolver routing as @p mode says, and checks the gports each one
/// crossed against hopsOf(expected(s, d, seq)) mapped through globalPort.
template <typename Expected>
void expectHopsMatchReference(const xgft::Topology& topo, Routing mode,
                              const std::string& label,
                              const Expected& expected) {
  sim::Network net(topo, sim::SimConfig{});
  PathRecorder recorder;
  net.setProbe(&recorder);
  RouteSetResolver resolver(net, mode);
  struct Sent {
    xgft::NodeIndex s = 0;
    xgft::NodeIndex d = 0;
  };
  std::vector<Sent> sent;
  xgft::Rng rng(42);
  const auto n = static_cast<std::uint64_t>(topo.numHosts());
  for (int i = 0; i < 50'000; ++i) {
    const auto s = static_cast<xgft::NodeIndex>(rng.below(n));
    const auto d = static_cast<xgft::NodeIndex>(rng.below(n));
    const std::optional<sim::MsgId> m =
        resolver.add(s, d, net.config().segmentBytes);
    ASSERT_TRUE(m.has_value());
    net.release(*m, 0);
    sent.push_back({s, d});
  }
  net.run();
  ASSERT_EQ(net.stats().messagesDelivered, sent.size());
  recorder.paths.resize(sent.size());
  for (std::uint32_t seq = 0; seq < sent.size(); ++seq) {
    const auto [s, d] = sent[seq];
    std::vector<std::uint32_t> want;
    for (const xgft::Hop& hop :
         xgft::hopsOf(topo, s, d, expected(s, d, seq))) {
      want.push_back(net.globalPort(hop.level, hop.node, hop.outPort));
    }
    ASSERT_EQ(recorder.paths[seq], want)
        << label << " message " << seq << " (" << s << " -> " << d << ")";
  }
}

TEST(RouteDecode, FlatTableOnPaperSlim) {
  const Fixture f(xgft::xgft2(16, 16, 10));
  const auto table = core::CompiledRoutes::compile(f.router, 1);
  expectHopsMatchReference(
      f.topo, *table, "d-mod-k table",
      [&](xgft::NodeIndex s, xgft::NodeIndex d, std::uint32_t) {
        return f.router->route(s, d);
      });
}

TEST(RouteDecode, RouterModeDModKAt4096Hosts) {
  // The tier whose table (80 MiB) exceeds the engine's budget: its healthy
  // jobs read every choice from the router's per-guide array, and must
  // take the route the scheme's digit arithmetic picks.
  const Fixture f(xgft::Params({16, 16, 16}, {1, 8, 8}));
  const routing::RelabelScheme& scheme =
      dynamic_cast<const routing::RelabelRouter&>(*f.router).scheme();
  expectHopsMatchReference(
      f.topo, *f.router, f.router->name(),
      [&](xgft::NodeIndex s, xgft::NodeIndex d, std::uint32_t) {
        return xgft::routeViaNca(f.topo, s, d,
                                 scheme.choice(f.topo.ncaLevel(s, d), d));
      });
}

TEST(RouteDecode, RouterModeRandom) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const auto router = routing::makeRandom(topo, 3);
  expectHopsMatchReference(
      topo, *router, router->name(),
      [&](xgft::NodeIndex s, xgft::NodeIndex d, std::uint32_t) {
        return router->route(s, d);
      });
}

TEST(RouteDecode, RouterModeColored) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const auto router = routing::makeColored(topo, patterns::cgD128());
  expectHopsMatchReference(
      topo, *router, router->name(),
      [&](xgft::NodeIndex s, xgft::NodeIndex d, std::uint32_t) {
        return router->route(s, d);
      });
}

TEST(RouteDecode, SpraySets) {
  // paper-slim's w2 = 10 gives cross-leaf pairs ten candidate ascents; a
  // seeded random spray picks candidate hashMix(seed, seq, 0) % 10 for a
  // one-segment message, which routeViaNca enumerates independently.
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  Spray spray;
  spray.policy = sim::SprayPolicy::kRandom;
  spray.seed = 7;
  expectHopsMatchReference(
      topo, spray, "spray",
      [&](xgft::NodeIndex s, xgft::NodeIndex d, std::uint32_t seq) {
        const xgft::Count n = topo.numNcas(s, d);
        return xgft::routeViaNca(topo, s, d, xgft::hashMix(7, seq, 0) % n);
      });
}

TEST(RouteSetResolver, TableModeHandsOutTheTablesChoices) {
  const Fixture f(xgft::xgft2(16, 16, 10));  // paper-slim
  const auto table = core::CompiledRoutes::compile(f.router, 1);
  sim::Network net(f.topo, sim::SimConfig{});
  RouteSetResolver resolver(net, *table);
  xgft::Rng rng(42);
  const auto n = static_cast<std::uint64_t>(f.topo.numHosts());
  for (int i = 0; i < 50'000; ++i) {
    const auto s = static_cast<xgft::NodeIndex>(rng.below(n));
    const auto d = static_cast<xgft::NodeIndex>(rng.below(n));
    const sim::RouteSet got = resolver.setFor(s, d);
    ASSERT_EQ(got.count, s == d ? 0u : 1u);
    if (s == d) continue;
    const core::CompiledRoutes::Entry want = table->entry(s, d);
    ASSERT_EQ(got.level, want.level) << "(" << s << ", " << d << ")";
    ASSERT_EQ(got.choice, want.choice) << "(" << s << ", " << d << ")";
    ASSERT_TRUE(std::ranges::equal(f.topo.ascent(got.level, got.choice),
                                   table->upPorts(s, d)));
  }
}

TEST(RouteSetResolver, SetTableSwapsTheTable) {
  const Fixture f(xgft::xgft2(4, 4, 2));
  const auto healthy = core::CompiledRoutes::compile(f.router, 1);
  const auto degraded = healthy->patched(
      [](xgft::NodeIndex s, xgft::NodeIndex d, core::CompiledRoutes::Entry) {
        return !(s == 0 && d == 15);
      },
      [](xgft::NodeIndex, xgft::NodeIndex, core::CompiledRoutes::Entry) {
        return core::CompiledRoutes::kUnroutable;
      });
  sim::Network net(f.topo, sim::SimConfig{});
  RouteSetResolver resolver(net, *healthy);
  const sim::RouteSet before = resolver.setFor(0, 15);
  ASSERT_FALSE(before.empty());
  resolver.setTable(*degraded);
  EXPECT_TRUE(resolver.setFor(0, 15).empty());
  EXPECT_FALSE(resolver.setFor(1, 15).empty());
  EXPECT_FALSE(resolver.setFor(15, 0).empty());
  // A set resolved before the swap keeps the healthy table's choice.
  EXPECT_EQ(before.level, healthy->entry(0, 15).level);
  EXPECT_EQ(before.choice, healthy->entry(0, 15).choice);
  EXPECT_TRUE(std::ranges::equal(f.topo.ascent(before.level, before.choice),
                                 healthy->upPorts(0, 15)));
}

void expectRouterModeMatchesFlatTable(
    const xgft::Topology& topo,
    const std::shared_ptr<const routing::Router>& router) {
  const auto table = core::CompiledRoutes::compile(router, 1);
  sim::Network net(topo, sim::SimConfig{});
  RouteSetResolver onDemand(net, *router);
  const xgft::Count n = topo.numHosts();
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      const sim::RouteSet got = onDemand.setFor(s, d);
      if (s == d) {
        ASSERT_TRUE(got.empty());
        continue;
      }
      ASSERT_EQ(got.count, 1u);
      ASSERT_TRUE(std::ranges::equal(topo.ascent(got.level, got.choice),
                                     table->upPorts(s, d)))
          << router->name() << " (" << s << ", " << d << ")";
    }
  }
}

TEST(RouteSetResolver, RouterModeMatchesAFlatTableRandom) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));  // paper-slim
  expectRouterModeMatchesFlatTable(topo, routing::makeRandom(topo, 3));
}

TEST(RouteSetResolver, RouterModeMatchesAFlatTableColored) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  expectRouterModeMatchesFlatTable(
      topo, routing::makeColored(topo, patterns::cgD128()));
}

/// Claims nothing about its guide and chooses one NCA past every pair's
/// last.
class OutOfRangeRouter final : public routing::Router {
 public:
  using Router::Router;

  [[nodiscard]] xgft::Count choice(routing::NodeIndex /*s*/,
                                   routing::NodeIndex /*d*/,
                                   std::uint32_t level) const override {
    return topology().ncaChoices(level);
  }
  [[nodiscard]] std::string name() const override { return "out-of-range"; }
};

TEST(RouteSetResolver, RouterModeRejectsOutOfRangeChoices) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  const OutOfRangeRouter router(topo);
  sim::Network net(topo, sim::SimConfig{});
  RouteSetResolver resolver(net, router);
  EXPECT_TRUE(resolver.setFor(3, 3).empty());
  try {
    (void)resolver.setFor(0, 15);
    ADD_FAILURE() << "an out-of-range choice was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("routing scheme 'out-of-range': NCA choice 2 ", 0),
              0u)
        << what;
    EXPECT_NE(what.find(" for pair 0 -> 15 is out of range"),
              std::string::npos)
        << what;
  }
}

TEST(RouteSetResolver, SpraySetsAreNcaDistinct) {
  // xgft3:16:16:16:1:8:8: a pair across the roots has 64 NCAs, more than
  // maxPaths = 16, so its set is 16 seeded draws with repeats skipped; a
  // pair below the roots has 8 and takes them all.
  const xgft::Topology topo(xgft::Params({16, 16, 16}, {1, 8, 8}));
  const auto router = routing::makeDModK(topo);
  sim::Network net(topo, sim::SimConfig{});
  const Spray spray;
  RouteSetResolver resolver(net, spray);
  xgft::Rng rng(9);
  const auto n = static_cast<std::uint64_t>(topo.numHosts());
  std::size_t wide = 0;
  for (int i = 0; i < 4'000; ++i) {
    const auto s = static_cast<xgft::NodeIndex>(rng.below(n));
    const auto d = static_cast<xgft::NodeIndex>(rng.below(n));
    if (s == d) continue;
    const sim::RouteSet set = resolver.setFor(s, d);
    const xgft::Count ncas = topo.numNcas(s, d);
    wide += ncas > spray.maxPaths ? 1 : 0;
    ASSERT_EQ(set.count, std::min<xgft::Count>(ncas, spray.maxPaths))
        << "(" << s << ", " << d << ")";
    std::set<std::vector<std::uint32_t>> distinct;
    for (std::uint32_t c = 0; c < set.count; ++c) {
      const auto up = topo.ascent(set.level, set.at(c));
      distinct.emplace(up.begin(), up.end());
      std::string error;
      ASSERT_TRUE(xgft::validateRoute(topo, s, d,
                                      xgft::Route{{up.begin(), up.end()}},
                                      &error))
          << error;
    }
    ASSERT_EQ(distinct.size(), set.count) << "(" << s << ", " << d << ")";
  }
  EXPECT_GT(wide, 3'000u);
}

/// Completion times and final stats of 400 messages resolved on paper-slim
/// through a d-mod-k table (the first 200) and a degraded patch
/// of it (the rest, after a setTable swap).  With @p dropTables the
/// resolver and the last handles to both tables are gone before
/// Network::run, so a message that still read its table would read freed
/// memory (the ASan+UBSan build reports that).
struct TableFreeRun {
  sim::NetworkStats stats;
  std::vector<std::pair<sim::MsgId, sim::TimeNs>> deliveries;
};

TableFreeRun runResolvedThroughTables(bool dropTables) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const std::shared_ptr<const routing::Router> router =
      routing::makeDModK(topo);
  auto healthy = core::CompiledRoutes::compile(router, 1);
  const fault::DegradedTopology view(
      topo, std::vector<xgft::LinkId>{topo.upLink(1, 0, 0),
                                      topo.upLink(1, 3, 2)});
  auto degraded = fault::compileDegraded(healthy, view,
                                         fault::UnreachablePolicy::kDrop)
                      .table;
  sim::Network net(topo, sim::SimConfig{});
  sim::DeliveryRecorder recorder;
  net.setSink(&recorder);
  {
    RouteSetResolver resolver(net, *healthy);
    xgft::Rng rng(5);
    const auto n = static_cast<std::uint64_t>(topo.numHosts());
    for (std::uint32_t i = 0; i < 400; ++i) {
      if (i == 200) resolver.setTable(*degraded);
      const auto s = static_cast<xgft::NodeIndex>(rng.below(n));
      const auto d = static_cast<xgft::NodeIndex>(rng.below(n));
      const std::optional<sim::MsgId> m = resolver.add(s, d, 4 * 1024);
      if (!m) continue;  // Partitioned by the failures.
      net.release(*m, i * 100);
    }
  }
  if (dropTables) {
    const std::weak_ptr<const core::CompiledRoutes> watch = degraded;
    healthy.reset();
    degraded.reset();
    EXPECT_TRUE(watch.expired());
  }
  net.run();
  return {net.stats(), recorder.deliveries};
}

TEST(RouteSetResolver, MessagesNeedNoTable) {
  const TableFreeRun kept = runResolvedThroughTables(false);
  const TableFreeRun dropped = runResolvedThroughTables(true);
  EXPECT_GT(kept.stats.messagesDelivered, 300u);
  EXPECT_EQ(dropped.stats.messagesDelivered, kept.stats.messagesDelivered);
  EXPECT_EQ(dropped.stats.segmentsDelivered, kept.stats.segmentsDelivered);
  EXPECT_EQ(dropped.stats.eventsProcessed, kept.stats.eventsProcessed);
  EXPECT_EQ(dropped.stats.lastDeliveryNs, kept.stats.lastDeliveryNs);
  EXPECT_EQ(dropped.deliveries, kept.deliveries);
}

TEST(RouteSetResolver, SprayingWithoutPathsIsRefused) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  sim::Network net(topo, sim::SimConfig{});
  Spray spray;
  spray.maxPaths = 0;
  EXPECT_THROW(RouteSetResolver(net, spray), std::invalid_argument);
}

TEST(RouteSetResolver, TableModeAloneTakesTableSwaps) {
  const Fixture f(xgft::xgft2(4, 4, 2));
  const Fixture other(xgft::xgft2(4, 4, 2));
  const auto table = core::CompiledRoutes::compile(f.router, 1);
  const auto foreign = core::CompiledRoutes::compile(other.router, 1);
  sim::Network net(f.topo, sim::SimConfig{});
  EXPECT_THROW(RouteSetResolver(net, *foreign), std::invalid_argument);
  for (const Routing& mode :
       {Routing{*f.router}, Routing{Spray{}}, Routing{Adaptive{}}}) {
    RouteSetResolver resolver(net, mode);
    EXPECT_THROW(resolver.setTable(*table), std::invalid_argument)
        << mode.index();
  }
  RouteSetResolver resolver(net, *table);
  EXPECT_THROW(resolver.setTable(*foreign), std::invalid_argument);
}

TEST(RouteSetResolver, AdaptiveModeAddsWithoutARouteSet) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  sim::Network net(topo, sim::SimConfig{});
  RouteSetResolver resolver(net, Adaptive{});
  EXPECT_THROW((void)resolver.setFor(0, 15), std::logic_error);
  const std::optional<sim::MsgId> m = resolver.add(0, 15, 4 * 1024);
  ASSERT_TRUE(m.has_value());
  net.release(*m, 0);
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

}  // namespace
}  // namespace trace
