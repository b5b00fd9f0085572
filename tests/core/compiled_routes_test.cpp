// Tests for core::CompiledRoutes: the flat table agrees with the source
// router on every ordered pair, parallel compilation is thread-count
// independent, the interval-compressed layout is pair-for-pair equivalent
// to the flat one for every registered table scheme, the run-based build of
// self-routing schemes matches the per-pair build exactly (and takes its
// axis from the router's guide), an out-of-range NCA choice fails a
// compile or a patch, a compressed compile is complete when it returns,
// and the simulator's compiled fast path reproduces the virtual path's
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
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(8, 8, 4));
  const auto router = makeRouter(topo, "Random", 3);
  const auto serial = CompiledRoutes::compile(router, 1);
  const auto parallel = CompiledRoutes::compile(router, 4);
  const xgft::Count n = topo->numHosts();
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      ASSERT_EQ(serial->route(s, d), parallel->route(s, d));
    }
  }
}

TEST(CompiledRoutes, TableBytesMatchesLayout) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  // 16 hosts: 256 pairs * (a 4-byte choice + a level byte).
  EXPECT_EQ(CompiledRoutes::tableBytes(topo), 256u * 5u);
  // 4096 hosts: 80 MiB, past the engine's 64 MiB flat-table budget, so
  // that tier keeps the compressed layout.
  const xgft::Topology big(xgft::Params({16, 16, 16}, {1, 8, 8}));
  EXPECT_EQ(CompiledRoutes::tableBytes(big), 80ull << 20);
}

TEST(CompiledRoutes, CompiledReplayMatchesVirtualReplayExactly) {
  // The whole point of the fast path: identical simulation results.  Replay
  // the same workload through Replayer with and without the table.
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
    const trace::Trace t = trace::traceFromPhases(app);
    const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
    trace::Replayer replayer(net, t, mapping, *router, {}, table.get());
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

  [[nodiscard]] xgft::Count choice(routing::NodeIndex s,
                                   routing::NodeIndex d) const override {
    return inner_->choice(s, d);
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

/// upPorts agree on every ordered pair, and the footprints match.
void expectSameTable(const CompiledRoutes& a, const CompiledRoutes& b,
                     const std::string& label) {
  expectSamePorts(a, b, label);
  EXPECT_EQ(a.forwardingBytes(), b.forwardingBytes()) << label;
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

TEST(CompiledRoutesCompressed, MatchesFlatForEverySchemeAndTier) {
  // The hard contract of both layouts: pair-for-pair identical lookups for
  // every registered table scheme and for user-supplied relabel tables, on
  // the paper's slimmed tree, a mid-size two-level tree, a small
  // three-level (scale-out tier) tree and a mixed-radix three-level tree.
  // Self-routing schemes compile one route per NCA-level run; the same
  // router behind a guide-less wrapper compiles per pair, and the two
  // builds must agree on every lookup and the footprint.
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
      const auto flat =
          CompiledRoutes::compile(router, 1, TableLayout::kFlat);
      const auto packed =
          CompiledRoutes::compile(router, 2, TableLayout::kCompressed);
      ASSERT_FALSE(flat->compressed());
      ASSERT_TRUE(packed->compressed());
      expectSamePorts(*flat, *packed, label);
      expectSameTable(
          *flat, *CompiledRoutes::compile(perPair, 1, TableLayout::kFlat),
          label + " (flat, per pair)");
      expectSameTable(
          *packed,
          *CompiledRoutes::compile(perPair, 2, TableLayout::kCompressed),
          label + " (compressed, per pair)");
      expectEveryRouteValid(*flat, label);
    }
  }
}

/// Claims d-mod-k's guide but chooses one NCA past the pair's last.
class OutOfRangeGuidedRouter final : public routing::Router {
 public:
  using Router::Router;

  [[nodiscard]] xgft::Count choice(routing::NodeIndex s,
                                   routing::NodeIndex d) const override {
    return topology().numNcas(s, d);
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
  // out-of-range choice must fail it in both layouts, naming the router
  // and the first pair asked (column 0's first off-diagonal rank).
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(4, 4, 2));
  const auto router = std::make_shared<const OutOfRangeGuidedRouter>(*topo);
  const auto dmodk = makeRouter(topo, "d-mod-k");
  for (const TableLayout layout :
       {TableLayout::kFlat, TableLayout::kCompressed}) {
    const std::string label =
        layout == TableLayout::kFlat ? "flat" : "compressed";
    expectBadChoice([&] { (void)CompiledRoutes::compile(router, 1, layout); },
                    "out-of-range", "1 -> 0", label + " compile");
    // A patch verdict is a choice too: pair 0 -> 15 has 2 NCAs.
    const auto healthy = CompiledRoutes::compile(dmodk, 1, layout);
    expectBadChoice(
        [&] {
          (void)healthy->patched(
              [](xgft::NodeIndex s, xgft::NodeIndex d,
                 CompiledRoutes::Entry) {
                return s == 0 && d == 15 ? xgft::Count{2}
                                         : CompiledRoutes::kKeep;
              });
        },
        "d-mod-k", "0 -> 15", label + " patch");
  }
}

/// Forwards to another router, guide included, and counts choice() calls.
class CountingRouter final : public routing::Router {
 public:
  explicit CountingRouter(std::shared_ptr<const routing::Router> inner)
      : Router(inner->topology()), inner_(std::move(inner)) {}

  [[nodiscard]] xgft::Count choice(routing::NodeIndex s,
                                   routing::NodeIndex d) const override {
    ++calls_;
    return inner_->choice(s, d);
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

TEST(CompiledRoutesCompressed, SourceGuidedSchemesCompileByRunsAtEveryWidth) {
  // XGFT(2;16,16;1,1): with one root both axes sample the same run count,
  // and the tie must not cost a source-guided scheme one choice() per pair.
  // The axis comes from the guide, so the compile asks once per run.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 1));
  const std::uint64_t n = topo->numHosts();
  for (const char* scheme : {"s-mod-k", "r-NCA-u"}) {
    const auto inner = makeRouter(topo, scheme, 4);
    ASSERT_EQ(inner->ascentGuide(), routing::Guide::Source) << scheme;
    const auto counting = std::make_shared<const CountingRouter>(inner);
    const auto packed =
        CompiledRoutes::compile(counting, 1, TableLayout::kCompressed);
    EXPECT_LE(counting->calls(), n * (2 * topo->height() + 1)) << scheme;
    expectSamePorts(*CompiledRoutes::compile(inner, 1, TableLayout::kFlat),
                    *packed, std::string(scheme) + " compressed vs flat");
  }
}

TEST(CompiledRoutesCompressed, CompileIsCompleteWhenItReturns) {
  // Nothing is left to build after compile(): lookups do not grow the
  // footprint, and the compileAll() kept for older callers changes nothing.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 10));
  const auto router = makeRouter(topo, "d-mod-k");
  const auto table =
      CompiledRoutes::compile(router, 1, TableLayout::kCompressed);
  ASSERT_TRUE(table->compressed());
  const std::uint64_t bytes = table->forwardingBytes();
  EXPECT_GT(bytes, 0u);

  const xgft::NodeIndex last = topo->numHosts() - 1;
  EXPECT_EQ(table->route(0, last), router->route(0, last));
  EXPECT_EQ(table->route(last, 0), router->route(last, 0));
  EXPECT_EQ(table->forwardingBytes(), bytes);

  table->compileAll(2);
  EXPECT_EQ(table->forwardingBytes(), bytes);
  const auto flat = CompiledRoutes::compile(router, 1, TableLayout::kFlat);
  expectSamePorts(*flat, *table, "d-mod-k compressed vs flat");
}

TEST(CompiledRoutesCompressed, CompileIsThreadCountIndependent) {
  // Per-pair (Random) and per-run (d-mod-k, s-mod-k) builds alike.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(8, 8, 4));
  for (const char* scheme : {"Random", "d-mod-k", "s-mod-k"}) {
    const auto router = makeRouter(topo, scheme, 3);
    const auto serial =
        CompiledRoutes::compile(router, 1, TableLayout::kCompressed);
    const auto threaded =
        CompiledRoutes::compile(router, 4, TableLayout::kCompressed);
    expectSameTable(*serial, *threaded, std::string(scheme) + " 1 vs 4");
  }
}

TEST(CompiledRoutesCompressed, EstimateSeparatesCompressibleSchemes) {
  // The engine's gate: label-arithmetic schemes estimate far below the
  // per-pair-random ones, which stay on the virtual fallback.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 8));
  const std::uint64_t dmodk =
      CompiledRoutes::estimateCompressedBytes(*makeRouter(topo, "d-mod-k"));
  const std::uint64_t random =
      CompiledRoutes::estimateCompressedBytes(*makeRouter(topo, "Random", 3));
  EXPECT_LT(dmodk * 8, random);
}

TEST(CompiledRoutes, AutoLayoutKeepsSmallTopologiesFlat) {
  // Paper-scale trees stay on the exact historical layout under kAuto.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 10));
  const auto table = CompiledRoutes::compile(makeRouter(topo, "d-mod-k"), 1);
  EXPECT_FALSE(table->compressed());
  EXPECT_EQ(table->forwardingBytes(),
            CompiledRoutes::tableBytes(*topo));
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
  const routing::RouterPtr router = sc.makeRouter(other, app);
  sim::Network net(other, sc.sim);
  const trace::Trace t = trace::traceFromPhases(app);
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  EXPECT_THROW(
      trace::Replayer(net, t, mapping, *router, {}, table.get()),
      std::invalid_argument);
}

}  // namespace
}  // namespace core
