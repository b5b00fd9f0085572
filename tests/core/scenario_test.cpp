// Tests for core::Scenario: registry-driven workload/router construction,
// scheme traits, the uniform unknown-name error, and topology-preset
// resolution.
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "patterns/applications.hpp"
#include "xgft/topology.hpp"

namespace core {
namespace {

TEST(Scenario, MakeWorkloadBuildsTheBuiltins) {
  Scenario sc;
  sc.pattern = "cg128";
  EXPECT_EQ(sc.makeWorkload().numRanks, 128u);
  EXPECT_EQ(sc.makeWorkload().phases.size(), 5u);
  sc.pattern = "wrf256";
  EXPECT_EQ(sc.makeWorkload().numRanks, 256u);
  sc.pattern = "ring:48";
  EXPECT_EQ(sc.makeWorkload().numRanks, 48u);
  sc.pattern = "stencil:4:8";
  EXPECT_EQ(sc.makeWorkload().numRanks, 32u);
  sc.pattern = "shift:8";
  EXPECT_EQ(sc.makeWorkload().phases.size(), 7u);
}

TEST(Scenario, WorkloadNameIsTheFullSpec) {
  Scenario sc;
  sc.pattern = "ring:48";
  EXPECT_EQ(sc.makeWorkload().name, "ring:48");
  sc.msgScale = 0.5;
  EXPECT_EQ(sc.makeWorkload().name, "ring:48");
}

TEST(Scenario, MakeWorkloadScalesMessages) {
  Scenario sc;
  sc.pattern = "cg128";
  sc.msgScale = 0.5;
  const patterns::PhasedPattern app = sc.makeWorkload();
  EXPECT_EQ(app.phases.at(0).flows().at(0).bytes,
            patterns::kCgMessageBytes / 2);
}

/// The invalid_argument message @p build throws, or "" when it does not.
template <typename Build>
std::string invalidArgumentOf(Build build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Scenario, ScaledSizesMustFitTheByteCount) {
  // 750 KiB x 1e15 and 4 KiB x 1e30 are past 2^64 bytes, where converting
  // the scaled size to an integer is undefined: both builders refuse them
  // and say which size overflowed.
  Scenario sc;
  sc.pattern = "cg128";
  sc.msgScale = 1e15;
  EXPECT_NE(invalidArgumentOf([&] { (void)sc.makeWorkload(); })
                .find("768000 bytes scaled to 7.68e+20"),
            std::string::npos);
  sc.source = "poisson:uniform";
  sc.load = 0.5;
  sc.msgScale = 1e30;
  EXPECT_NE(invalidArgumentOf([&] { (void)sc.makeSource(256, 0, 1'000'000); })
                .find("4096 bytes scaled to 4.096e+33"),
            std::string::npos);
}

TEST(Scenario, SeededPatternsFollowTheJobSeed) {
  Scenario a;
  a.pattern = "uniform:64:2";
  Scenario b = a;
  b.seed = 2;
  EXPECT_EQ(a.makeWorkload().flattened().flows(),
            a.makeWorkload().flattened().flows());
  EXPECT_NE(a.makeWorkload().flattened().flows(),
            b.makeWorkload().flattened().flows());
  EXPECT_TRUE(a.patternSeeded());
  Scenario cg;
  EXPECT_FALSE(cg.patternSeeded());
}

TEST(Scenario, RejectsUnknownAndMalformedPatterns) {
  Scenario sc;
  sc.pattern = "nonsense";
  EXPECT_THROW(sc.makeWorkload(), std::invalid_argument);
  sc.pattern = "ring";  // Missing argument.
  EXPECT_THROW(sc.makeWorkload(), std::invalid_argument);
  sc.pattern = "ring:8:9";  // Too many arguments.
  EXPECT_THROW(sc.makeWorkload(), std::invalid_argument);
  sc.pattern = "ring:x";  // Non-integer argument.
  EXPECT_THROW(sc.makeWorkload(), std::invalid_argument);
}

TEST(Scenario, SchemeTraitsComeFromTheRegistry) {
  Scenario sc;
  sc.routing = "d-mod-k";
  EXPECT_EQ(sc.schemeInfo().mode, RouteMode::kTable);
  EXPECT_FALSE(sc.schemeInfo().seeded);
  sc.routing = "Random";
  EXPECT_TRUE(sc.schemeInfo().seeded);
  sc.routing = "colored";
  EXPECT_TRUE(sc.schemeInfo().patternAware);
  sc.routing = "adaptive";
  EXPECT_EQ(sc.schemeInfo().mode, RouteMode::kAdaptive);
  sc.routing = "spray";
  EXPECT_EQ(sc.schemeInfo().mode, RouteMode::kSpray);
}

TEST(Scenario, MakeRouterBuildsEveryTableScheme) {
  Scenario sc;
  sc.topo = xgft::xgft2(4, 4, 2);
  sc.pattern = "ring:16";
  const xgft::Topology topo(sc.topo);
  const patterns::PhasedPattern app = sc.makeWorkload();
  const auto names = schemeRegistry().names();
  for (const std::string& name : *names) {
    sc.routing = name;
    if (sc.schemeInfo().mode != RouteMode::kTable) {
      // Per-segment schemes build no router: the uniform registry error
      // names the schemes that do.
      try {
        (void)sc.makeRouter(topo, app);
        ADD_FAILURE() << name << " built a router";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("routing scheme '" + name + "' builds no router",
                             0),
                  0u)
            << what;
        EXPECT_NE(what.find("(router schemes: "), std::string::npos) << what;
        EXPECT_NE(what.find("d-mod-k"), std::string::npos) << what;
      }
      continue;
    }
    const routing::RouterPtr router = sc.makeRouter(topo, app);
    ASSERT_NE(router, nullptr) << name;
    EXPECT_EQ(router->name(), name);
    (void)router->route(0, 1);
  }
}

TEST(Scenario, UnknownSchemeSurfacesTheUniformRegistryError) {
  Scenario sc;
  sc.routing = "magic";
  try {
    (void)sc.schemeInfo();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown routing scheme 'magic'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("d-mod-k"), std::string::npos) << what;
  }
}

TEST(Scenario, TopoPresetsAndPaperNotationResolve) {
  EXPECT_EQ(makeTopoParams("paper-full"), xgft::xgft2(16, 16, 16));
  EXPECT_EQ(makeTopoParams("paper-slim"), xgft::xgft2(16, 16, 10));
  EXPECT_EQ(makeTopoParams("xgft2:16:16:10"), xgft::xgft2(16, 16, 10));
  EXPECT_EQ(makeTopoParams("kary:16:2"), xgft::karyNTree(16, 2));
  EXPECT_EQ(makeTopoParams("XGFT(2; 16,16; 1,10)"), xgft::xgft2(16, 16, 10));
  EXPECT_THROW(makeTopoParams("xgft2:16"), std::invalid_argument);
  EXPECT_THROW(makeTopoParams("nope"), std::invalid_argument);
}

TEST(Scenario, DeriveSeedIsStableAndRoleSeparated) {
  // Pinned values shared with engine::deriveSeed (campaign outputs must
  // replay identically across platforms and releases).
  EXPECT_EQ(deriveSeed(1, "pattern"), 13362491538261306851ULL);
  EXPECT_EQ(deriveSeed(1, "spray"), 18430719551283032133ULL);
  EXPECT_NE(deriveSeed(1, "pattern"), deriveSeed(2, "pattern"));
}

}  // namespace
}  // namespace core
