// Unit tests for engine::ExperimentSpec: canonical-line round-trips, the
// campaign sweep expansion (lists, ranges, cross-product order, the job
// bound), workload instantiation and the stability of per-role seed
// derivation.
#include "engine/spec.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "patterns/applications.hpp"

namespace engine {
namespace {

TEST(Spec, ToLineParsesBack) {
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(16, 16, 10);
  spec.pattern = "cg128";
  spec.routing = "r-NCA-d";
  spec.msgScale = 0.125;
  spec.seed = 7;
  EXPECT_EQ(parseSpecLine(spec.toLine()), spec);
}

TEST(Spec, ToLineRoundTripsEveryRegisteredSchemeAndAwkwardScales) {
  const auto schemes = core::schemeRegistry().names();
  for (const std::string& scheme : *schemes) {
    for (const double scale : {1.0, 0.1, 0.03125, 3.14159}) {
      ExperimentSpec spec;
      spec.routing = scheme;
      spec.msgScale = scale;
      EXPECT_EQ(parseSpecLine(spec.toLine()), spec) << spec.toLine();
    }
  }
}

TEST(Spec, ParseCanonicalizesSchemeSpellings) {
  EXPECT_EQ(parseSpecLine("routing=random").routing, "Random");
  EXPECT_EQ(parseSpecLine("routing=Random").routing, "Random");
}

TEST(Spec, UnknownNamesSurfaceTheRegistryListing) {
  // Satellite of the registry redesign: scheme and pattern typos produce
  // the one uniform error shape, including the registered names.
  for (const char* line : {"routing=magic", "pattern=nonsense"}) {
    try {
      (void)parseSpecLine(line);
      FAIL() << "expected invalid_argument for " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown "), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("(registered: "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Spec, TopoAcceptsRegisteredPresets) {
  EXPECT_EQ(parseSpecLine("topo=paper-slim").topo, xgft::xgft2(16, 16, 10));
  EXPECT_EQ(parseSpecLine("topo=xgft2:8:8:4").topo, xgft::xgft2(8, 8, 4));
  EXPECT_EQ(parseSpecLine("topo=kary:4:2").topo, xgft::karyNTree(4, 2));
  EXPECT_THROW(parseSpecLine("topo=notatopo"), std::invalid_argument);
}

TEST(Spec, ParseAppliesDefaults) {
  const ExperimentSpec spec = parseSpecLine("pattern=ring:64");
  EXPECT_EQ(spec.topo, xgft::karyNTree(16, 2));
  EXPECT_EQ(spec.routing, "d-mod-k");
  EXPECT_EQ(spec.msgScale, 1.0);
  EXPECT_EQ(spec.seed, 1u);
}

TEST(Spec, FamilyKeysBuildTwoLevelTree) {
  const ExperimentSpec spec = parseSpecLine("m1=8 m2=8 w2=4");
  EXPECT_EQ(spec.topo, xgft::xgft2(8, 8, 4));
}

TEST(Spec, TopoAndFamilyAreMutuallyExclusive) {
  EXPECT_THROW(parseSpecLine("topo=\"XGFT(2; 8,8; 1,4)\" w2=2"),
               std::invalid_argument);
}

TEST(Spec, RejectsMalformedInput) {
  EXPECT_THROW(parseSpecLine("notakeyvalue"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("pattern="), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("bogus=1"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("routing=magic"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("msg_scale=0"), std::invalid_argument);
  // from_chars parses these, but no range check can reject NaN.
  EXPECT_THROW(parseSpecLine("msg_scale=nan"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("msg_scale=inf"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("seed=abc"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("topo=\"XGFT(2; 8,8"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("seed=1..4"), std::invalid_argument);
}

TEST(Spec, OpenLoopKeysParseAndRoundTrip) {
  const ExperimentSpec spec =
      parseSpecLine("topo=paper-slim source=poisson:uniform load=0.3 "
                    "routing=Random seed=9");
  EXPECT_EQ(spec.source, "poisson:uniform");
  EXPECT_EQ(spec.load, 0.3);
  EXPECT_EQ(parseSpecLine(spec.toLine()), spec);
  // Closed-loop lines never mention source/load (the historical format).
  EXPECT_EQ(parseSpecLine("pattern=ring:64").toLine().find("source"),
            std::string::npos);
}

TEST(Spec, OpenLoopKeysValidate) {
  // Unknown source names surface the registry's uniform error.
  try {
    (void)parseSpecLine("source=magic load=0.5");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown traffic source"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(registered: "), std::string::npos);
  }
  // load needs a source; pattern and source are mutually exclusive; load
  // bounds.
  EXPECT_THROW(parseSpecLine("load=0.5"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("pattern=ring:64 source=poisson:uniform"),
               std::invalid_argument);
  EXPECT_THROW(parseSpecLine("source=poisson:uniform load=0"),
               std::invalid_argument);
  EXPECT_THROW(parseSpecLine("source=poisson:uniform load=5"),
               std::invalid_argument);
  // Non-finite numbers are refused by the number parser itself.
  for (const char* value : {"nan", "inf"}) {
    try {
      (void)parseSpecLine(std::string("source=poisson:uniform load=") + value);
      FAIL() << "expected invalid_argument for load=" << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'load' wants a finite number"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Spec, NumberParsersTakeOnlyTheWholeNumber) {
  // The one strict rule behind spec keys and every CLI's numeric flags:
  // no sign, no trailing characters, in range, finite.
  EXPECT_EQ(parseU32("4294967295", "--threads"), 4294967295u);
  EXPECT_EQ(parseU64("18446744073709551615", "--seed"),
            18446744073709551615ull);
  EXPECT_EQ(parseFiniteDouble("0.5", "--load"), 0.5);
  for (const char* bad : {"-1", "+1", "3x", " 3", "", "4294967296"}) {
    EXPECT_THROW((void)parseU32(bad, "--jobs"), std::invalid_argument) << bad;
  }
  for (const char* bad : {"-1", "1e3", "18446744073709551616"}) {
    EXPECT_THROW((void)parseU64(bad, "--seed"), std::invalid_argument) << bad;
  }
  for (const char* bad : {"0.5x", "nan", "inf", "", "1e999"}) {
    EXPECT_THROW((void)parseFiniteDouble(bad, "--load"),
                 std::invalid_argument)
        << bad;
  }
  try {
    (void)parseU32("2x", "--threads");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--threads wants an integer in [0, 4294967295], got '2x'");
  }
}

TEST(Spec, LoadSweepsExpandLikeAnyAxis) {
  const auto jobs = expandCampaignLine(
      "source=poisson:uniform load={0.1,0.2,0.3} routing=d-mod-k");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].load, 0.1);
  EXPECT_EQ(jobs[2].load, 0.3);
}

TEST(Spec, RangeExpansionIsInclusiveBothDirections) {
  const auto up = expandCampaignLine("seed=2..5");
  ASSERT_EQ(up.size(), 4u);
  EXPECT_EQ(up.front().seed, 2u);
  EXPECT_EQ(up.back().seed, 5u);
  const auto down = expandCampaignLine("w2=4..1");
  ASSERT_EQ(down.size(), 4u);
  EXPECT_EQ(down.front().topo, xgft::xgft2(16, 16, 4));
  EXPECT_EQ(down.back().topo, xgft::xgft2(16, 16, 1));
}

TEST(Spec, RangesPastTheJobBoundAreRefusedFromTheirBounds) {
  // Each would have built billions of specs, and the full-width range
  // never left its loop.
  for (const char* line :
       {"seed=1..4294967295", "seed=0..18446744073709551615",
        "seed=18446744073709551615..0"}) {
    SCOPED_TRACE(line);
    try {
      (void)expandCampaignLine(line);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("spans more than 1048576 values"),
                std::string::npos)
          << e.what();
    }
  }
  // One value past the bound is refused as well; the campaign form names
  // the line.
  EXPECT_THROW((void)expandCampaignLine("seed=1..1048577"),
               std::invalid_argument);
  try {
    (void)parseCampaign("pattern=ring:8\nseed=1..4294967295\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: "), std::string::npos)
        << e.what();
  }
}

TEST(Spec, CrossProductsPastTheJobBoundAreRefusedBeforeExpanding) {
  // 1024 x 1025 jobs: each range fits, their product does not.
  try {
    (void)parseCampaign("seed=1..1024 w2=1..1025\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "line 1: campaign spec: line expands to more than 1048576 "
                  "jobs"),
              std::string::npos)
        << e.what();
  }
  // A product past 2^64 is caught, not wrapped.
  EXPECT_THROW((void)expandCampaignLine("seed=1..1048576 m1=1..1048576 "
                                        "m2=1..1048576 w2=1..1048576"),
               std::invalid_argument);
  EXPECT_EQ(kMaxCampaignJobs, std::uint64_t{1} << 20);
}

TEST(Spec, CrossProductVariesLastKeyFastest) {
  const auto jobs =
      expandCampaignLine("routing={s-mod-k,Random} seed=1..3");
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].routing, "s-mod-k");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[2].seed, 3u);
  EXPECT_EQ(jobs[3].routing, "Random");
  EXPECT_EQ(jobs[3].seed, 1u);
}

TEST(Spec, CampaignSkipsCommentsAndBlankLines) {
  const auto jobs = parseCampaign(
      "# a comment\n"
      "\n"
      "pattern=ring:32 seed=1..2   # trailing comment\n"
      "pattern=ring:16\n");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].pattern, "ring:32");
  EXPECT_EQ(jobs[2].pattern, "ring:16");
}

TEST(Spec, CampaignErrorsCarryLineNumbers) {
  try {
    (void)parseCampaign("pattern=ring:8\nbogus=1\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Spec, FigureSweepExpandsToTheExpectedJobCount) {
  // The Fig. 5 campaign shape: 16 w2 x 3 centered + 16 w2 x 3 algos x 10
  // seeds.
  const auto jobs = parseCampaign(
      "pattern=cg128 w2=16..1 routing={s-mod-k,d-mod-k,colored} seed=1\n"
      "pattern=cg128 w2=16..1 routing={Random,r-NCA-u,r-NCA-d} seed=1..10\n");
  EXPECT_EQ(jobs.size(), 16u * 3u + 16u * 3u * 10u);
}

TEST(Spec, FaultsKeyParsesCanonicalizesAndRoundTrips) {
  const ExperimentSpec spec = parseSpecLine(
      "source=poisson:uniform load=0.3 faults=links:10");
  EXPECT_EQ(spec.faults, "links:10");
  EXPECT_EQ(parseSpecLine(spec.toLine()), spec);
  // faults=none is byte-for-byte the absent key: healthy campaign lines
  // (and their cache keys) never change spelling.
  EXPECT_EQ(parseSpecLine("pattern=ring:8 faults=none").faults, "");
  EXPECT_EQ(parseSpecLine("pattern=ring:8 faults=none").toLine(),
            parseSpecLine("pattern=ring:8").toLine());
  EXPECT_EQ(parseSpecLine("pattern=ring:8").toLine().find("faults"),
            std::string::npos);
}

TEST(Spec, FaultsKeyRejectsUnknownModelsWithTheRegistryListing) {
  try {
    (void)parseSpecLine("pattern=ring:8 faults=meteor:3");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown fault model"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(registered: "), std::string::npos);
  }
}

TEST(Spec, FaultsSweepExpandsLikeAnyAxis) {
  const auto jobs = expandCampaignLine(
      "source=poisson:uniform load=0.4 faults={none,links:5,links:10}");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].faults, "");
  EXPECT_EQ(jobs[1].faults, "links:5");
  EXPECT_EQ(jobs[2].faults, "links:10");
}

TEST(Spec, DuplicateKeysFailLoudly) {
  // Last-wins would silently drop the first assignment of a typo'd sweep
  // line; the parser must reject it instead.
  for (const char* line :
       {"seed=1 seed=2", "pattern=ring:8 pattern=ring:16",
        "routing=d-mod-k msg_scale=0.5 routing=Random"}) {
    try {
      (void)parseSpecLine(line);
      FAIL() << "expected invalid_argument for " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate key '"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parseSpecLine("seed=1 seed=1"), std::invalid_argument);
}

TEST(Spec, DeriveSeedIsStable) {
  // Pinned values: campaign outputs (seeded patterns, spray choices) must
  // replay identically across platforms and releases.
  EXPECT_EQ(deriveSeed(1, "pattern"), 13362491538261306851ULL);
  EXPECT_EQ(deriveSeed(1, "spray"), 18430719551283032133ULL);
  EXPECT_EQ(deriveSeed(42, "pattern"), 8884445026359647558ULL);
}

TEST(Spec, DeriveSeedSeparatesRolesAndBases) {
  EXPECT_NE(deriveSeed(1, "pattern"), deriveSeed(1, "spray"));
  EXPECT_NE(deriveSeed(1, "pattern"), deriveSeed(2, "pattern"));
}

TEST(Spec, MakeWorkloadBuildsTheBuiltins) {
  ExperimentSpec spec;
  spec.pattern = "cg128";
  EXPECT_EQ(makeWorkload(spec).numRanks, 128u);
  EXPECT_EQ(makeWorkload(spec).phases.size(), 5u);
  spec.pattern = "wrf256";
  EXPECT_EQ(makeWorkload(spec).numRanks, 256u);
  spec.pattern = "ring:48";
  EXPECT_EQ(makeWorkload(spec).numRanks, 48u);
  spec.pattern = "stencil:4:8";
  EXPECT_EQ(makeWorkload(spec).numRanks, 32u);
  spec.pattern = "shift:8";
  EXPECT_EQ(makeWorkload(spec).phases.size(), 7u);
}

TEST(Spec, MakeWorkloadScalesMessages) {
  ExperimentSpec spec;
  spec.pattern = "cg128";
  spec.msgScale = 0.5;
  const patterns::PhasedPattern app = makeWorkload(spec);
  EXPECT_EQ(app.phases.at(0).flows().at(0).bytes,
            patterns::kCgMessageBytes / 2);
}

TEST(Spec, MakeWorkloadSeededPatternsFollowTheJobSeed) {
  ExperimentSpec a;
  a.pattern = "uniform:64:2";
  ExperimentSpec b = a;
  b.seed = 2;
  EXPECT_EQ(makeWorkload(a).flattened().flows(),
            makeWorkload(a).flattened().flows());
  EXPECT_NE(makeWorkload(a).flattened().flows(),
            makeWorkload(b).flattened().flows());
  EXPECT_TRUE(a.scenario().patternSeeded());
  ExperimentSpec cg;
  cg.pattern = "cg128";
  EXPECT_FALSE(cg.scenario().patternSeeded());
}

TEST(Spec, MakeWorkloadRejectsUnknownPatterns) {
  ExperimentSpec spec;
  spec.pattern = "nonsense";
  EXPECT_THROW(makeWorkload(spec), std::invalid_argument);
  spec.pattern = "ring";  // Missing argument.
  EXPECT_THROW(makeWorkload(spec), std::invalid_argument);
  spec.pattern = "ring:8:9";  // Too many arguments.
  EXPECT_THROW(makeWorkload(spec), std::invalid_argument);
}

}  // namespace
}  // namespace engine
