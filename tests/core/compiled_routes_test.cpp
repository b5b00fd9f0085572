// Tests for core::CompiledRoutes: the table agrees with the source router
// on every ordered pair, parallel compilation is thread-count independent,
// the run-based build of self-routing schemes matches the per-pair build
// exactly for every registered table scheme (and asks once per run along
// the router's guide), an out-of-range NCA choice fails a compile or a
// patch, and a replay through a table reproduces the router-mode replay's
// results exactly.
#include "core/compiled_routes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"
#include "xgft/params.hpp"

namespace core {
namespace {

std::shared_ptr<const routing::Router> makeRouter(
    const std::shared_ptr<const xgft::Topology>& topo,
    const std::string& scheme, std::uint64_t seed = 1) {
  Scenario sc;
  sc.topo = topo->params();
  sc.routing = scheme;
  sc.seed = seed;
  sc.pattern = "ring:16";
  const patterns::PhasedPattern app = sc.makeWorkload();
  routing::RouterPtr built = sc.makeRouter(*topo, app);
  const routing::Router* raw = built.release();
  return std::shared_ptr<const routing::Router>(
      raw, [topo](const routing::Router* r) { delete r; });
}

TEST(CompiledRoutes, TableAgreesWithTheRouterOnEveryPair) {
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(4, 4, 3));
  for (const char* scheme : {"d-mod-k", "s-mod-k", "Random", "r-NCA-u"}) {
    const auto router = makeRouter(topo, scheme, 7);
    const auto table = CompiledRoutes::compile(router, 1);
    const xgft::Count n = topo->numHosts();
    for (xgft::NodeIndex s = 0; s < n; ++s) {
      for (xgft::NodeIndex d = 0; d < n; ++d) {
        EXPECT_EQ(table->route(s, d), router->route(s, d))
            << scheme << " (" << s << " -> " << d << ")";
      }
    }
  }
}

TEST(CompiledRoutes, SelfPairsAreEmpty) {
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(4, 4, 2));
  const auto table = CompiledRoutes::compile(makeRouter(topo, "d-mod-k"), 1);
  for (xgft::NodeIndex s = 0; s < topo->numHosts(); ++s) {
    EXPECT_TRUE(table->upPorts(s, s).empty());
  }
}

TEST(CompiledRoutes, ParallelCompileMatchesSerial) {
  // Per-pair (Random) and per-run (d-mod-k, s-mod-k) builds alike.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(8, 8, 4));
  for (const char* scheme : {"Random", "d-mod-k", "s-mod-k"}) {
    const auto router = makeRouter(topo, scheme, 3);
    const auto serial = CompiledRoutes::compile(router, 1);
    const auto parallel = CompiledRoutes::compile(router, 4);
    const xgft::Count n = topo->numHosts();
    for (xgft::NodeIndex s = 0; s < n; ++s) {
      for (xgft::NodeIndex d = 0; d < n; ++d) {
        ASSERT_EQ(serial->route(s, d), parallel->route(s, d)) << scheme;
      }
    }
  }
}

TEST(CompiledRoutes, TableBytesMatchesLayout) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  // 16 hosts: 256 pairs * (a 4-byte choice + a level byte).
  EXPECT_EQ(CompiledRoutes::tableBytes(topo), 256u * 5u);
  // 4096 hosts: 80 MiB, past the engine's 64 MiB table budget, so that
  // tier runs healthy jobs only (they ask the router and take no table).
  const xgft::Topology big(xgft::Params({16, 16, 16}, {1, 8, 8}));
  EXPECT_EQ(CompiledRoutes::tableBytes(big), 80ull << 20);
}

TEST(CompiledRoutes, CompiledReplayMatchesVirtualReplayExactly) {
  // A faulted job's table must route exactly as the healthy job's router
  // does: replay the same workload through Replayer with and without it.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(8, 8, 3));
  Scenario sc;
  sc.topo = topo->params();
  sc.pattern = "alltoall:32";
  sc.msgScale = 0.0625;
  for (const char* scheme : {"d-mod-k", "Random", "colored"}) {
    sc.routing = scheme;
    const patterns::PhasedPattern app = sc.makeWorkload();
    const routing::RouterPtr router = sc.makeRouter(*topo, app);
    const trace::RunResult virtualRun = trace::runApp(*topo, *router, app);

    std::shared_ptr<const routing::Router> shared(
        router.get(), [](const routing::Router*) {});
    const auto table = CompiledRoutes::compile(shared, 2);
    sim::Network net(*topo, sc.sim);
    const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
    trace::Replayer replayer(net, app, mapping, *table);
    const sim::TimeNs makespan = replayer.run();

    EXPECT_EQ(makespan, virtualRun.makespanNs) << scheme;
    EXPECT_EQ(net.stats().segmentsDelivered,
              virtualRun.stats.segmentsDelivered)
        << scheme;
    EXPECT_EQ(net.stats().eventsProcessed, virtualRun.stats.eventsProcessed)
        << scheme;
  }
}

/// Every registered table-mode scheme name (adaptive/spray have no tables).
std::vector<std::string> tableSchemes() {
  std::vector<std::string> out;
  for (const std::string& name : *schemeRegistry().names()) {
    if (schemeRegistry().at(name).mode == RouteMode::kTable) {
      out.push_back(name);
    }
  }
  return out;
}

void expectSamePorts(const CompiledRoutes& a, const CompiledRoutes& b,
                     const std::string& label) {
  const xgft::Count n = a.numHosts();
  ASSERT_EQ(b.numHosts(), n) << label;
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      const std::span<const std::uint32_t> lhs = a.upPorts(s, d);
      const std::span<const std::uint32_t> rhs = b.upPorts(s, d);
      ASSERT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end()))
          << label << " (" << s << " -> " << d << ")";
      ASSERT_EQ(a.unroutable(s, d), b.unroutable(s, d))
          << label << " (" << s << " -> " << d << ")";
    }
  }
}

/// Forwards to another router but promises no ascent guide, which forces
/// the per-pair compile path: the reference the run-based build must match.
class PerPairRouter final : public routing::Router {
 public:
  explicit PerPairRouter(std::shared_ptr<const routing::Router> inner)
      : Router(inner->topology()), inner_(std::move(inner)) {}

  [[nodiscard]] xgft::Count choice(routing::NodeIndex s, routing::NodeIndex d,
                                   std::uint32_t level) const override {
    return inner_->choice(s, d, level);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const routing::Router> inner_;
};

/// A self-routing router over user-supplied (unbalanced) digit tables —
/// the RelabelScheme::fromTables extension point.
std::shared_ptr<const routing::Router> makeTablesRouter(
    const xgft::Topology& topo, routing::Guide guide) {
  const routing::RelabelScheme geometry = routing::RelabelScheme::mod(topo);
  std::vector<std::vector<std::uint32_t>> tables(topo.height());
  for (std::uint32_t l = 0; l < topo.height(); ++l) {
    const std::uint64_t entries =
        geometry.contextCount(l) * geometry.digitRadix(l);
    for (std::uint64_t i = 0; i < entries; ++i) {
      tables[l].push_back(
          static_cast<std::uint32_t>((i * 7 + l * 3 + i / 5) %
                                     topo.params().w(l + 1)));
    }
  }
  return std::make_shared<routing::RelabelRouter>(
      topo, routing::RelabelScheme::fromTables(topo, std::move(tables)),
      guide, guide == routing::Guide::Source ? "tables-u" : "tables-d");
}

void expectEveryRouteValid(const CompiledRoutes& table,
                           const std::string& label) {
  const xgft::Count n = table.numHosts();
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      if (s == d) continue;
      std::string error;
      ASSERT_TRUE(xgft::validateRoute(table.topology(), s, d,
                                      table.route(s, d), &error))
          << label << ": " << error;
    }
  }
}

TEST(CompiledRoutes, RunBuildMatchesPerPairBuildForEverySchemeAndTier) {
  // Self-routing schemes compile one choice per NCA-level run; the same
  // router behind a guide-less wrapper compiles per pair, and the two
  // builds must agree on every lookup — for every registered table scheme
  // and for user-supplied relabel tables, on the paper's slimmed tree, a
  // mid-size two-level tree, a small three-level (scale-out tier) tree and
  // a mixed-radix three-level tree.
  const std::vector<xgft::Params> tiers = {
      xgft::xgft2(16, 16, 10),             // paper-slim
      xgft::xgft2(8, 8, 4),
      xgft::Params({4, 4, 4}, {2, 2, 2}),  // xgft3:4:4:4:2:2:2
      xgft::Params({3, 5, 2}, {1, 2, 3}),  // mixed radix
  };
  for (const xgft::Params& params : tiers) {
    const auto topo = std::make_shared<const xgft::Topology>(params);
    std::vector<std::shared_ptr<const routing::Router>> routers;
    for (const std::string& scheme : tableSchemes()) {
      routers.push_back(makeRouter(topo, scheme, 5));
    }
    routers.push_back(makeTablesRouter(*topo, routing::Guide::Source));
    routers.push_back(makeTablesRouter(*topo, routing::Guide::Destination));
    for (const auto& router : routers) {
      const std::string label =
          router->name() + " on " + topo->params().toString();
      const auto perPair = std::make_shared<const PerPairRouter>(router);
      const auto table = CompiledRoutes::compile(router, 2);
      expectSamePorts(*table, *CompiledRoutes::compile(perPair, 1),
                      label + " (runs vs per pair)");
      expectEveryRouteValid(*table, label);
    }
  }
}

/// Claims d-mod-k's guide but chooses one NCA past the pair's last.
class OutOfRangeGuidedRouter final : public routing::Router {
 public:
  using Router::Router;

  [[nodiscard]] xgft::Count choice(routing::NodeIndex /*s*/,
                                   routing::NodeIndex /*d*/,
                                   std::uint32_t level) const override {
    return topology().ncaChoices(level);
  }
  [[nodiscard]] std::string name() const override { return "out-of-range"; }
  [[nodiscard]] std::optional<routing::Guide> ascentGuide() const override {
    return routing::Guide::Destination;
  }
};

/// Expects @p build to throw the range check's std::invalid_argument,
/// naming @p router and the pair @p pair ("s -> d").
template <typename Build>
void expectBadChoice(const Build& build, const std::string& router,
                     const std::string& pair, const std::string& label) {
  try {
    build();
    ADD_FAILURE() << label << ": an out-of-range choice was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("routing scheme '" + router + "': NCA choice ", 0),
              0u)
        << label << ": " << what;
    EXPECT_NE(what.find(" for pair " + pair + " is out of range"),
              std::string::npos)
        << label << ": " << what;
  }
}

TEST(CompiledRoutes, CompileAndPatchRejectOutOfRangeChoices) {
  // The range check is the only check a compile or a patch makes, so an
  // out-of-range choice must fail it, naming the router and the first pair
  // asked (column 0's first off-diagonal rank).
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(4, 4, 2));
  const auto router = std::make_shared<const OutOfRangeGuidedRouter>(*topo);
  expectBadChoice([&] { (void)CompiledRoutes::compile(router, 1); },
                  "out-of-range", "1 -> 0", "compile");
  // A patch verdict is a choice too: pair 0 -> 15 has 2 NCAs.
  const auto healthy = CompiledRoutes::compile(makeRouter(topo, "d-mod-k"), 1);
  expectBadChoice(
      [&] {
        (void)healthy->patched(
            [](xgft::NodeIndex s, xgft::NodeIndex d, CompiledRoutes::Entry) {
              return !(s == 0 && d == 15);
            },
            [](xgft::NodeIndex, xgft::NodeIndex, CompiledRoutes::Entry) {
              return xgft::Count{2};
            });
      },
      "d-mod-k", "0 -> 15", "patch");
}

/// Forwards to another router, guide included, and counts choice() calls.
class CountingRouter final : public routing::Router {
 public:
  explicit CountingRouter(std::shared_ptr<const routing::Router> inner)
      : Router(inner->topology()), inner_(std::move(inner)) {}

  [[nodiscard]] xgft::Count choice(routing::NodeIndex s, routing::NodeIndex d,
                                   std::uint32_t level) const override {
    ++calls_;
    return inner_->choice(s, d, level);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::optional<routing::Guide> ascentGuide() const override {
    return inner_->ascentGuide();
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  std::shared_ptr<const routing::Router> inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(CompiledRoutes, SourceGuidedSchemesCompileByRunsAtEveryWidth) {
  // XGFT(2;16,16;1,1): one root, so every level-2 choice is 0 whichever
  // endpoint guides.  The columns follow the router's guide anyway, so a
  // source-guided scheme is asked once per run, never once per pair.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 1));
  const std::uint64_t n = topo->numHosts();
  for (const char* scheme : {"s-mod-k", "r-NCA-u"}) {
    const auto inner = makeRouter(topo, scheme, 4);
    ASSERT_EQ(inner->ascentGuide(), routing::Guide::Source) << scheme;
    const auto counting = std::make_shared<const CountingRouter>(inner);
    const auto table = CompiledRoutes::compile(counting, 1);
    EXPECT_LE(counting->calls(), n * (2 * topo->height() + 1)) << scheme;
    expectSamePorts(
        *CompiledRoutes::compile(std::make_shared<const PerPairRouter>(inner),
                                 1),
        *table, std::string(scheme) + " runs vs per pair");
  }
}

TEST(CompiledRoutes, ForwardingBytesAreTheTableBytes) {
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 10));
  const auto table = CompiledRoutes::compile(makeRouter(topo, "d-mod-k"), 1);
  EXPECT_EQ(table->forwardingBytes(), CompiledRoutes::tableBytes(*topo));
}

TEST(CompiledRoutes, RejectsForeignTopologies) {
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(4, 4, 2));
  const xgft::Topology other(xgft::xgft2(4, 4, 3));
  const auto table = CompiledRoutes::compile(makeRouter(topo, "d-mod-k"), 1);

  Scenario sc;
  sc.topo = other.params();
  sc.pattern = "ring:16";
  const patterns::PhasedPattern app = sc.makeWorkload();
  sim::Network net(other, sc.sim);
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  EXPECT_THROW(trace::Replayer(net, app, mapping, *table),
               std::invalid_argument);
}

}  // namespace
}  // namespace core
