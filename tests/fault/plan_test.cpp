// Unit tests for fault::FaultPlan and the failure-model registry: spec
// parsing/canonicalization, seeded-selection determinism, the failedAt /
// transitionTimes / hasTimed algebra, validation errors and the uniform
// registry error shape.
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/scenario.hpp"
#include "xgft/params.hpp"
#include "xgft/topology.hpp"

namespace fault {
namespace {

using xgft::Topology;

TEST(FaultPlan, NoneAndEmptySpecYieldTheEmptyPlan) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  for (const char* spec : {"", "none"}) {
    const FaultPlan plan = makeFaultPlan(spec, topo, 1);
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.hasTimed());
    EXPECT_TRUE(plan.failedAt(0).empty());
    EXPECT_TRUE(plan.transitionTimes().empty());
  }
}

TEST(FaultPlan, UnknownModelSurfacesTheRegistryListing) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  try {
    (void)makeFaultPlan("meteor:3", topo, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown fault model"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(registered: "), std::string::npos);
  }
}

TEST(FaultPlan, LinksPctSelectsTheRoundedFabricFraction) {
  // XGFT(2; 4,4; 1,2): fabric (switch-to-switch) links are the level-1
  // up-links only: 4 switches x 2 up-ports = 8; 25% -> 2 links.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const FaultPlan plan = makeFaultPlan("links:25", topo, 7);
  EXPECT_EQ(plan.spec, "links:25");
  ASSERT_EQ(plan.faults.size(), 2u);
  for (const LinkFault& f : plan.faults) {
    EXPECT_LT(f.link, topo.numLinks());
    EXPECT_EQ(f.downNs, 0u);         // Static: down from the start...
    EXPECT_EQ(f.upNs, kNeverNs);     // ...and never restored.
    // Fabric only: the child endpoint is a switch, not a host.
    EXPECT_GE(topo.linkInfo(f.link).level, 1u);
  }
  EXPECT_FALSE(plan.hasTimed());
  EXPECT_EQ(plan.failedAt(0).size(), 2u);
  EXPECT_TRUE(plan.transitionTimes().empty());
}

TEST(FaultPlan, SeededSelectionIsDeterministicPerSeed) {
  const Topology topo(xgft::xgft2(8, 8, 4));
  const FaultPlan a1 = makeFaultPlan("links:20", topo, 42);
  const FaultPlan a2 = makeFaultPlan("links:20", topo, 42);
  const FaultPlan b = makeFaultPlan("links:20", topo, 43);
  EXPECT_EQ(a1.faults, a2.faults);
  EXPECT_NE(a1.faults, b.faults);
  EXPECT_TRUE(planRegistry().at("links").seeded);
  EXPECT_TRUE(planRegistry().at("switches").seeded);
  EXPECT_FALSE(planRegistry().at("uplinks-of").seeded);
  EXPECT_FALSE(planRegistry().at("timed").seeded);
}

TEST(FaultPlan, SwitchesPctFailsEveryIncidentLinkDeduplicated) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  // 100% of switches: every link in the tree is incident to some switch.
  const FaultPlan plan = makeFaultPlan("switches:100", topo, 1);
  EXPECT_EQ(plan.faults.size(), topo.numLinks());
  // Deduplicated and sorted: strictly increasing link ids.
  for (std::size_t i = 1; i < plan.faults.size(); ++i) {
    EXPECT_LT(plan.faults[i - 1].link, plan.faults[i].link);
  }
}

TEST(FaultPlan, UplinksOfFailsExactlyTheSwitchUpPorts) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const FaultPlan plan = makeFaultPlan("uplinks-of:1:3", topo, 1);
  ASSERT_EQ(plan.faults.size(), 2u);  // w2 = 2 up-links.
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(plan.faults[p].link, topo.upLink(1, 3, p));
  }
}

TEST(FaultPlan, UplinksOfValidatesLevelAndIndex) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  EXPECT_THROW((void)makeFaultPlan("uplinks-of:0:0", topo, 1),
               std::invalid_argument);  // Hosts are not switches.
  EXPECT_THROW((void)makeFaultPlan("uplinks-of:2:0", topo, 1),
               std::invalid_argument);  // Top switches have no up-links.
  EXPECT_THROW((void)makeFaultPlan("uplinks-of:1:99", topo, 1),
               std::invalid_argument);  // Index out of range.
  EXPECT_THROW((void)makeFaultPlan("uplinks-of:1", topo, 1),
               std::invalid_argument);  // Arity.
}

TEST(FaultPlan, TimedPlanAlgebra) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const FaultPlan plan = makeFaultPlan("timed:5:1000:3000", topo, 1);
  ASSERT_EQ(plan.faults.size(), 1u);
  EXPECT_TRUE(plan.hasTimed());
  EXPECT_TRUE(plan.failedAt(0).empty());
  EXPECT_TRUE(plan.failedAt(999).empty());
  EXPECT_EQ(plan.failedAt(1000), std::vector<xgft::LinkId>{5});
  EXPECT_EQ(plan.failedAt(2999), std::vector<xgft::LinkId>{5});
  EXPECT_TRUE(plan.failedAt(3000).empty());  // Restored at its up instant.
  EXPECT_EQ(plan.transitionTimes(), (std::vector<sim::TimeNs>{1000, 3000}));

  const FaultPlan forever = makeFaultPlan("timed:5:1000", topo, 1);
  EXPECT_TRUE(forever.hasTimed());
  EXPECT_EQ(forever.failedAt(1u << 30), std::vector<xgft::LinkId>{5});
  EXPECT_EQ(forever.transitionTimes(), (std::vector<sim::TimeNs>{1000}));
}

TEST(FaultPlan, TimedPlanRejectsMalformedArguments) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  EXPECT_THROW((void)makeFaultPlan("timed:5", topo, 1),
               std::invalid_argument);  // Arity.
  EXPECT_THROW((void)makeFaultPlan("timed:5:abc", topo, 1),
               std::invalid_argument);  // Malformed integer.
  EXPECT_THROW((void)makeFaultPlan("timed:5:2000:1000", topo, 1),
               std::invalid_argument);  // Restores before it fails.
  EXPECT_THROW((void)makeFaultPlan("timed:9999:0:1", topo, 1),
               std::invalid_argument);  // Unknown link (validate()).
  EXPECT_THROW((void)makeFaultPlan("links:101", topo, 1),
               std::invalid_argument);  // Percentage out of range.
  EXPECT_THROW((void)makeFaultPlan("links:x", topo, 1),
               std::invalid_argument);  // Malformed number.
  // Signs, blanks and base prefixes are not plain decimal numbers.
  for (const char* spec : {"timed:5:-3", "timed:5:-2:-1", "timed:5:+7:9",
                           "timed: 5:7", "links:0x10"}) {
    EXPECT_THROW((void)makeFaultPlan(spec, topo, 1), std::invalid_argument)
        << spec;
  }
}

TEST(FaultPlan, ValidateChecksHandBuiltPlans) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  FaultPlan plan;
  plan.spec = "custom";
  plan.faults.push_back(LinkFault{topo.numLinks(), 0, kNeverNs});
  EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  plan.faults = {LinkFault{0, 100, 100}};
  EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  plan.faults = {LinkFault{0, 100, 200}};
  EXPECT_NO_THROW(plan.validate(topo));
}

TEST(FaultPlan, FailedAtMergesOverlappingOutagesOfOneLink) {
  FaultPlan plan;
  plan.faults = {LinkFault{3, 0, 1000}, LinkFault{3, 500, 2000}};
  EXPECT_EQ(plan.failedAt(700), std::vector<xgft::LinkId>{3});  // Deduped.
  EXPECT_EQ(plan.failedAt(1500), std::vector<xgft::LinkId>{3});
  EXPECT_TRUE(plan.failedAt(2000).empty());
}

}  // namespace
}  // namespace fault
