// Tests for routes as NCA choices.  For every registered table scheme on
// three trees — XGFT(2;4,4;1,2), paper-slim and xgft3:8:8:8:4:4:2 (w1 = 4)
// — choice(s, d, level) is below numNcas(s, d) and its catalogue ascent
// equals a test-local copy of the per-pair arithmetic each scheme's route()
// ran before routes were choices; Colored's optimized routes match digests
// taken from that older build; and tables compiled at 1 and 4 threads hold
// the reference ascent on every ordered pair.
#include "routing/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "routing/colored.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "xgft/params.hpp"
#include "xgft/rng.hpp"

namespace routing {
namespace {

/// A tree, and the workload its Colored router is optimized for: cg128
/// wherever its 128 ranks fit.
struct Tree {
  xgft::Params params;
  std::string pattern;
};

std::vector<Tree> trees() {
  return {{xgft::xgft2(4, 4, 2), "permutations:16:3"},
          {xgft::xgft2(16, 16, 10), "cg128"},
          {xgft::Params({8, 8, 8}, {4, 4, 2}), "cg128"}};
}

/// Every registered table-mode scheme (adaptive and spray have no tables).
std::vector<std::string> tableSchemes() {
  std::vector<std::string> out;
  for (const std::string& name : *core::schemeRegistry().names()) {
    if (core::schemeRegistry().at(name).mode == core::RouteMode::kTable) {
      out.push_back(name);
    }
  }
  return out;
}

struct Built {
  std::shared_ptr<const Router> router;
  patterns::PhasedPattern app;
};

/// @p scheme on @p topo through the scenario layer, at seed 5.
Built build(const xgft::Topology& topo, const Tree& tree,
            const std::string& scheme) {
  core::Scenario sc;
  sc.topo = topo.params();
  sc.routing = scheme;
  sc.seed = 5;
  sc.pattern = tree.pattern;
  Built b;
  b.app = sc.makeWorkload();
  b.router = sc.makeRouter(topo, b.app);
  return b;
}

/// The mixed-radix ascent of NCA choice @p c at @p level, as
/// xgft::routeViaNca computed it: up-port (c / prod_{j<=i} w_j) mod w_{i+1}
/// at level i.
std::vector<std::uint32_t> mixedRadix(const xgft::Topology& topo,
                                      std::uint32_t level, xgft::Count c) {
  std::vector<std::uint32_t> up(level);
  for (std::uint32_t i = 0; i < level; ++i) {
    up[i] = static_cast<std::uint32_t>(c % topo.params().w(i + 1));
    c /= topo.params().w(i + 1);
  }
  return up;
}

/// The ordered pairs @p app sends over (Colored optimizes exactly these).
std::set<std::pair<xgft::NodeIndex, xgft::NodeIndex>> patternPairs(
    const patterns::PhasedPattern& app) {
  std::set<std::pair<xgft::NodeIndex, xgft::NodeIndex>> pairs;
  for (const patterns::Pattern& phase : app.phases) {
    for (const patterns::Flow& f : phase.flows()) {
      if (f.src != f.dst) pairs.emplace(f.src, f.dst);
    }
  }
  return pairs;
}

/// Per-pair reference: the up-ports the scheme's route() computed before
/// routes were choices.  Colored stored its optimized routes, which
/// ColoredRoutesMatchTheOptimizerDigests pins; every other pair took
/// D-mod-k's digits.
class Reference {
 public:
  Reference(const Router& router, const patterns::PhasedPattern& app)
      : router_(&router), optimized_(patternPairs(app)),
        dModK_(RelabelScheme::mod(router.topology())) {}

  [[nodiscard]] std::vector<std::uint32_t> ascent(xgft::NodeIndex s,
                                                  xgft::NodeIndex d) const {
    const xgft::Topology& topo = router_->topology();
    const std::uint32_t level = topo.ncaLevel(s, d);
    if (const auto* random = dynamic_cast<const RandomRouter*>(router_)) {
      return mixedRadix(topo, level,
                        xgft::hashMix(random->seed(), s, d) %
                            topo.numNcas(s, d));
    }
    const RelabelScheme* scheme = &dModK_;
    xgft::NodeIndex leaf = d;
    if (const auto* relabel = dynamic_cast<const RelabelRouter*>(router_)) {
      scheme = &relabel->scheme();
      leaf = relabel->guide() == Guide::Source ? s : d;
    } else if (optimized_.contains({s, d})) {
      const xgft::Route stored = router_->route(s, d);
      return stored.up;
    }
    std::vector<std::uint32_t> up(level);
    for (std::uint32_t i = 0; i < level; ++i) up[i] = scheme->port(i, leaf);
    return up;
  }

 private:
  const Router* router_;
  std::set<std::pair<xgft::NodeIndex, xgft::NodeIndex>> optimized_;
  RelabelScheme dModK_;
};

TEST(Choices, InRangeAndEqualToTheSchemesArithmetic) {
  for (const Tree& tree : trees()) {
    const xgft::Topology topo(tree.params);
    for (const std::string& scheme : tableSchemes()) {
      const Built b = build(topo, tree, scheme);
      ASSERT_EQ(b.router->name(), scheme);
      const Reference ref(*b.router, b.app);
      const std::string label = scheme + " on " + topo.params().toString();
      for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
        for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
          const std::uint32_t level = topo.ncaLevel(s, d);
          const xgft::Count c = b.router->choice(s, d, level);
          ASSERT_LT(c, topo.numNcas(s, d)) << label << " " << s << "->" << d;
          const std::span<const std::uint32_t> up = topo.ascent(level, c);
          ASSERT_EQ(std::vector<std::uint32_t>(up.begin(), up.end()),
                    ref.ascent(s, d))
              << label << " " << s << "->" << d;
        }
      }
    }
  }
}

/// FNV-1a over every ordered pair's route, in (s, d) order: length + 1,
/// then each up-port + 1.
std::uint64_t routeDigest(const Router& router) {
  const xgft::Topology& topo = router.topology();
  std::uint64_t h = 1469598103934665603ull;
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
      const xgft::Route route = router.route(s, d);
      h = (h ^ (route.up.size() + 1)) * 1099511628211ull;
      for (const std::uint32_t p : route.up) {
        h = (h ^ (p + 1)) * 1099511628211ull;
      }
    }
  }
  return h;
}

TEST(Choices, ColoredRoutesMatchTheOptimizerDigests) {
  // Taken from the build whose ColoredRouter stored xgft::Route values:
  // the optimizer now stores NCA choices and must pick the same NCAs.
  const std::uint64_t expected[] = {0x25da4f12250a0197ull,
                                    0x3628ef8da2aa2f4bull,
                                    0x56d2977c236e05f1ull};
  const std::vector<Tree> all = trees();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const xgft::Topology topo(all[i].params);
    const Built b = build(topo, all[i], "colored");
    EXPECT_EQ(routeDigest(*b.router), expected[i])
        << all[i].pattern << " on " << topo.params().toString();
  }
}

TEST(Choices, CompiledTablesHoldTheReferenceOnEveryPair) {
  for (const Tree& tree : trees()) {
    const xgft::Topology topo(tree.params);
    const xgft::Count n = topo.numHosts();
    for (const std::string& scheme : tableSchemes()) {
      const Built b = build(topo, tree, scheme);
      const Reference ref(*b.router, b.app);
      std::vector<std::vector<std::uint32_t>> want(n * n);
      for (xgft::NodeIndex s = 0; s < n; ++s) {
        for (xgft::NodeIndex d = 0; d < n; ++d) {
          want[s * n + d] = ref.ascent(s, d);
        }
      }
      for (const std::uint32_t threads : {1u, 4u}) {
        const auto table = core::CompiledRoutes::compile(b.router, threads);
        const std::string label = scheme + " on " +
                                  topo.params().toString() + " x" +
                                  std::to_string(threads);
        for (xgft::NodeIndex s = 0; s < n; ++s) {
          for (xgft::NodeIndex d = 0; d < n; ++d) {
            const std::span<const std::uint32_t> got = table->upPorts(s, d);
            ASSERT_TRUE(std::ranges::equal(got, want[s * n + d]))
                << label << " " << s << "->" << d;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace routing
