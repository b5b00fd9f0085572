// Tests for trace::RouteSetResolver.  Compiled mode: every memoized answer
// equals interning the pair's own table entry on a fresh network (ids,
// NIC port and switch-tail path), for a flat and an interval-compressed
// table, and swapping in a degraded table drops the memo.  Router mode (no
// table): every pair resolves to exactly what a flat table of the same
// router gives, and an invalid route is rejected with internRoutes' error.
#include "trace/route_resolver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "patterns/applications.hpp"
#include "routing/colored.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "xgft/params.hpp"
#include "xgft/rng.hpp"

namespace trace {
namespace {

using sim::RouteSetId;

struct Fixture {
  explicit Fixture(const xgft::Params& params)
      : topo(params), router(routing::makeDModK(topo)) {}
  xgft::Topology topo;
  std::shared_ptr<const routing::Router> router;
};

void expectMatchesFreshIntern(const xgft::Params& params,
                              core::TableLayout layout) {
  const Fixture f(params);
  const auto table = core::CompiledRoutes::compile(f.router, 1, layout);
  ASSERT_EQ(table->compressed(), layout == core::TableLayout::kCompressed);
  sim::Network net(f.topo, sim::SimConfig{});
  sim::Network fresh(f.topo, sim::SimConfig{});
  RouteSetResolver resolver(net, *f.router, {}, table.get());
  xgft::Rng rng(42);
  const auto n = static_cast<std::uint64_t>(f.topo.numHosts());
  for (int i = 0; i < 50'000; ++i) {
    const auto s = static_cast<xgft::NodeIndex>(rng.below(n));
    const auto d = static_cast<xgft::NodeIndex>(rng.below(n));
    const RouteSetId got = resolver.setFor(s, d);
    // Both networks intern each distinct content on its first appearance
    // in the same stream, so even the ids must agree.
    const RouteSetId want =
        fresh.internCompiledPath(s, d, table->upPorts(s, d));
    ASSERT_EQ(got, want) << "pair (" << s << ", " << d << ")";
    if (want == sim::RouteStore::kNone) continue;
    ASSERT_EQ(net.routes().setFirstUp(got), fresh.routes().setFirstUp(want));
    const auto gotPath = net.routes().path(net.routes().set(got)[0]);
    const auto wantPath = fresh.routes().path(fresh.routes().set(want)[0]);
    ASSERT_TRUE(std::ranges::equal(gotPath, wantPath))
        << "pair (" << s << ", " << d << ")";
  }
  EXPECT_EQ(net.routes().numSets(), fresh.routes().numSets());
  EXPECT_EQ(net.routes().arenaEntries(), fresh.routes().arenaEntries());
}

TEST(RouteSetResolver, CompressedTableMatchesFreshIntern) {
  expectMatchesFreshIntern(xgft::Params({16, 16, 16}, {1, 8, 8}),
                           core::TableLayout::kCompressed);
}

TEST(RouteSetResolver, FlatTableMatchesFreshIntern) {
  // paper-slim: XGFT(2; 16,16; 1,10).
  expectMatchesFreshIntern(xgft::xgft2(16, 16, 10), core::TableLayout::kFlat);
}

void expectDegradedSwapDropsMemo(core::TableLayout layout) {
  const Fixture f(xgft::xgft2(4, 4, 2));
  const auto healthy = core::CompiledRoutes::compile(f.router, 1, layout);
  const auto degraded = core::CompiledRoutes::compileWith(
      f.router,
      [&](xgft::NodeIndex s,
          xgft::NodeIndex d) -> std::optional<xgft::Route> {
        if (s == 0 && d == 15) return std::nullopt;
        return f.router->route(s, d);
      },
      1, layout);
  sim::Network net(f.topo, sim::SimConfig{});
  RouteSetResolver resolver(net, *f.router, {}, healthy.get());
  const RouteSetId before = resolver.setFor(0, 15);
  ASSERT_NE(before, RouteSetResolver::kUnroutable);
  EXPECT_EQ(resolver.setFor(0, 15), before);
  resolver.setCompiled(degraded.get());
  EXPECT_EQ(resolver.setFor(0, 15), RouteSetResolver::kUnroutable);
  EXPECT_NE(resolver.setFor(1, 15), RouteSetResolver::kUnroutable);
  EXPECT_NE(resolver.setFor(15, 0), RouteSetResolver::kUnroutable);
}

TEST(RouteSetResolver, SetCompiledClearsTheMemoFlat) {
  expectDegradedSwapDropsMemo(core::TableLayout::kFlat);
}

TEST(RouteSetResolver, SetCompiledClearsTheMemoCompressed) {
  expectDegradedSwapDropsMemo(core::TableLayout::kCompressed);
}

void expectRouterModeMatchesFlatTable(
    const xgft::Topology& topo,
    const std::shared_ptr<const routing::Router>& router) {
  const auto table =
      core::CompiledRoutes::compile(router, 1, core::TableLayout::kFlat);
  sim::Network net(topo, sim::SimConfig{});
  sim::Network tabled(topo, sim::SimConfig{});
  RouteSetResolver onDemand(net, *router);
  RouteSetResolver compiled(tabled, *router, {}, table.get());
  const xgft::Count n = topo.numHosts();
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      const RouteSetId got = onDemand.setFor(s, d);
      const RouteSetId want = compiled.setFor(s, d);
      ASSERT_EQ(got, want) << router->name() << " (" << s << ", " << d << ")";
      if (want == sim::RouteStore::kNone) continue;
      ASSERT_EQ(net.routes().setFirstUp(got),
                tabled.routes().setFirstUp(want));
      const auto gotPath = net.routes().path(net.routes().set(got)[0]);
      const auto wantPath = tabled.routes().path(tabled.routes().set(want)[0]);
      ASSERT_TRUE(std::ranges::equal(gotPath, wantPath))
          << router->name() << " (" << s << ", " << d << ")";
    }
  }
  EXPECT_EQ(net.routes().numSets(), tabled.routes().numSets());
  EXPECT_EQ(net.routes().arenaEntries(), tabled.routes().arenaEntries());
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

/// Claims nothing about its guide and answers every pair with an ascent
/// whose first up-port is past the host's port count.
class OutOfRangeRouter final : public routing::Router {
 public:
  using Router::Router;

  [[nodiscard]] routing::Route route(routing::NodeIndex s,
                                     routing::NodeIndex d) const override {
    routing::Route r;
    r.up.assign(topology().ncaLevel(s, d), 0);
    if (!r.up.empty()) r.up[0] = topology().params().w(1);
    return r;
  }
  [[nodiscard]] std::string name() const override { return "out-of-range"; }
};

TEST(RouteSetResolver, RouterModeRejectsInvalidRoutes) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  const OutOfRangeRouter router(topo);
  sim::Network net(topo, sim::SimConfig{});
  RouteSetResolver resolver(net, router);
  EXPECT_EQ(resolver.setFor(3, 3), sim::RouteStore::kNone);
  try {
    (void)resolver.setFor(0, 15);
    ADD_FAILURE() << "an out-of-range up-port was interned";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("addMessage: route 0 -> 15: ", 0), 0u) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace trace
