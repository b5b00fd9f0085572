// Unit tests for xgft::Topology: adjacency, link identification, NCA
// algebra, the catalogue of NCA ascents, and global ids.
#include "xgft/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

#include "xgft/route.hpp"

namespace xgft {
namespace {

TEST(Topology, CountsMatchParams) {
  const Topology t(xgft2(16, 16, 10));
  EXPECT_EQ(t.numHosts(), 256u);
  EXPECT_EQ(t.numSwitches(), 26u);
  EXPECT_EQ(t.numNodes(), 282u);
  EXPECT_EQ(t.numLinks(), 256u + 160u);
}

TEST(Topology, ParentChildAreInverse) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  for (std::uint32_t l = 0; l < t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      for (std::uint32_t p = 0; p < t.params().w(l + 1); ++p) {
        const NodeIndex parent = t.parentIndex(l, idx, p);
        ASSERT_LT(parent, t.nodesAtLevel(l + 1));
        const std::uint32_t down = t.downPortOf(l + 1, idx);
        EXPECT_EQ(t.childIndex(l + 1, parent, down), idx)
            << "level " << l << " node " << idx << " port " << p;
      }
    }
  }
}

TEST(Topology, EveryParentHasExactlyMChildren) {
  const Topology t(Params({4, 3}, {1, 2}));
  for (NodeIndex parent = 0; parent < t.nodesAtLevel(1); ++parent) {
    std::set<NodeIndex> children;
    for (std::uint32_t c = 0; c < t.params().m(1); ++c) {
      children.insert(t.childIndex(1, parent, c));
    }
    EXPECT_EQ(children.size(), t.params().m(1));
  }
}

TEST(Topology, PortRangeChecks) {
  const Topology t(xgft2(4, 4, 2));
  EXPECT_THROW((void)t.parentIndex(0, 0, 1), std::out_of_range);  // w1 = 1.
  EXPECT_THROW((void)t.parentIndex(2, 0, 0), std::out_of_range);  // Roots.
  EXPECT_THROW((void)t.childIndex(0, 0, 0), std::out_of_range);   // Hosts.
  EXPECT_THROW((void)t.childIndex(1, 0, 4), std::out_of_range);   // m1 = 4.
}

TEST(Topology, LinkIdsAreDenseAndInvertible) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  std::set<LinkId> seen;
  for (std::uint32_t l = 0; l < t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      for (std::uint32_t p = 0; p < t.params().w(l + 1); ++p) {
        const LinkId id = t.upLink(l, idx, p);
        ASSERT_LT(id, t.numLinks());
        EXPECT_TRUE(seen.insert(id).second) << "duplicate link id " << id;
        const LinkInfo info = t.linkInfo(id);
        EXPECT_EQ(info.level, l);
        EXPECT_EQ(info.child, idx);
        EXPECT_EQ(info.parentPort, p);
        EXPECT_EQ(info.parent, t.parentIndex(l, idx, p));
      }
    }
  }
  EXPECT_EQ(seen.size(), t.numLinks());
}

TEST(Topology, DownLinkNamesTheSameWireAsUpLink) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  for (std::uint32_t l = 1; l <= t.height(); ++l) {
    for (NodeIndex parent = 0; parent < t.nodesAtLevel(l); ++parent) {
      for (std::uint32_t c = 0; c < t.params().m(l); ++c) {
        const LinkId id = t.downLink(l, parent, c);
        const LinkInfo info = t.linkInfo(id);
        EXPECT_EQ(info.parent, parent);
        EXPECT_EQ(info.level, l - 1);
        EXPECT_EQ(info.childPort, c);
      }
    }
  }
}

TEST(Topology, NcaLevelIsHighestDifferingDigit) {
  const Topology t(Topology(karyNTree(4, 3)));
  EXPECT_EQ(t.ncaLevel(0, 0), 0u);
  EXPECT_EQ(t.ncaLevel(0, 1), 1u);    // Differ in digit 1.
  EXPECT_EQ(t.ncaLevel(0, 4), 2u);    // Differ in digit 2.
  EXPECT_EQ(t.ncaLevel(0, 16), 3u);   // Differ in digit 3.
  EXPECT_EQ(t.ncaLevel(5, 7), 1u);    // 11 vs 13 base 4.
  EXPECT_EQ(t.ncaLevel(63, 0), 3u);
}

TEST(Topology, NcaLevelIsSymmetric) {
  const Topology t(xgft2(4, 4, 3));
  for (NodeIndex s = 0; s < t.numHosts(); ++s) {
    for (NodeIndex d = 0; d < t.numHosts(); ++d) {
      EXPECT_EQ(t.ncaLevel(s, d), t.ncaLevel(d, s));
    }
  }
}

TEST(Topology, NumNcasIsProductOfWUpToNcaLevel) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  // Same leaf: no NCA needed.
  EXPECT_EQ(t.numNcas(0, 0), 1u);
  // Level 1: w1 = 1 ancestor.
  EXPECT_EQ(t.numNcas(0, 1), 1u);
  // Level 2: w1*w2 = 2.
  EXPECT_EQ(t.numNcas(0, 4), 2u);
  // Level 3: w1*w2*w3 = 6.
  EXPECT_EQ(t.numNcas(0, 12), 6u);
}

TEST(Topology, SixteenAry2TreeHas16RootsPerPairAcrossSwitches) {
  const Topology t(Topology(karyNTree(16, 2)));
  EXPECT_EQ(t.numNcas(0, 16), 16u);   // Different switches.
  EXPECT_EQ(t.numNcas(0, 1), 1u);     // Same switch.
}

/// Words the catalogue holds: L per ascent, prod_{i<=L} w_i ascents at L.
Count catalogueWords(const Topology& t) {
  Count words = 0;
  for (std::uint32_t L = 1; L <= t.height(); ++L) {
    words += L * t.ncaChoices(L);
  }
  return words;
}

TEST(Topology, CatalogueHoldsEveryAscentInMixedRadixOrder) {
  for (const Params& p :
       {xgft2(4, 4, 2), xgft2(16, 16, 10), Params({8, 8, 8}, {4, 4, 2}),
        Params({4, 3, 2}, {2, 3, 4}), Params({16, 16, 16}, {1, 8, 8})}) {
    const Topology t(p);
    EXPECT_EQ(t.ncaChoices(0), 1u);
    for (std::uint32_t L = 1; L <= t.height(); ++L) {
      ASSERT_EQ(t.ncaChoices(L), t.ncaChoices(L - 1) * p.w(L));
      std::set<std::vector<std::uint32_t>> seen;
      for (Count c = 0; c < t.ncaChoices(L); ++c) {
        const std::span<const std::uint32_t> up = t.ascent(L, c);
        ASSERT_EQ(up.size(), L);
        Count rest = c;
        for (std::uint32_t i = 0; i < L; ++i) {
          EXPECT_EQ(up[i], rest % p.w(i + 1)) << p.toString() << " L" << L;
          rest /= p.w(i + 1);
        }
        EXPECT_EQ(t.choiceOf(up), c);
        seen.emplace(up.begin(), up.end());
      }
      EXPECT_EQ(seen.size(), t.ncaChoices(L));
    }
  }
  // 1 + 10 * 2 words on paper-slim, 1 + 8 * 2 + 64 * 3 at 4096 hosts.
  EXPECT_EQ(catalogueWords(Topology(xgft2(16, 16, 10))), 21u);
  EXPECT_EQ(catalogueWords(Topology(Params({16, 16, 16}, {1, 8, 8}))), 209u);
}

TEST(Topology, EveryCatalogueAscentIsAValidRoute) {
  // Any level-L ascent reaches an NCA of every level-L pair: checked for
  // the pairs from host 0 to the first and the last host at each level.
  for (const Params& p : {xgft2(4, 4, 2), xgft2(16, 16, 10),
                          Params({8, 8, 8}, {4, 4, 2}),
                          Params({4, 3, 2}, {2, 3, 4})}) {
    const Topology t(p);
    for (std::uint32_t L = 1; L <= t.height(); ++L) {
      NodeIndex block = 1;  // Hosts under one level-(L-1) switch.
      for (std::uint32_t i = 1; i < L; ++i) block *= p.m(i);
      for (const NodeIndex d : {block, block * p.m(L) - 1}) {
        ASSERT_EQ(t.ncaLevel(0, d), L);
        for (Count c = 0; c < t.ncaChoices(L); ++c) {
          const std::span<const std::uint32_t> up = t.ascent(L, c);
          std::string error;
          EXPECT_TRUE(validateRoute(t, 0, d, Route{{up.begin(), up.end()}},
                                    &error))
              << p.toString() << ": " << error;
          EXPECT_TRUE(validateRoute(t, d, 0, Route{{up.begin(), up.end()}},
                                    &error))
              << p.toString() << ": " << error;
        }
      }
    }
  }
}

TEST(Topology, RefusesACatalogueNoNetworkCouldHold) {
  // 2^27 roots: the level-2 ascents alone would take 2^28 words.
  EXPECT_THROW(Topology(xgft2(2, 2, 1u << 27)), std::invalid_argument);
}

TEST(Topology, GlobalIdsRoundTrip) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  GlobalNodeId expected = 0;
  for (std::uint32_t l = 0; l <= t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      const GlobalNodeId id = t.globalId(l, idx);
      EXPECT_EQ(id, expected++);
      const NodeAddr addr = t.addrOf(id);
      EXPECT_EQ(addr.level, l);
      EXPECT_EQ(addr.index, idx);
    }
  }
  EXPECT_THROW((void)t.addrOf(expected), std::out_of_range);
}

TEST(Topology, NumPortsPerLevel) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  EXPECT_EQ(t.numPorts(0), 1u);       // w1.
  EXPECT_EQ(t.numPorts(1), 4u + 2u);  // m1 + w2.
  EXPECT_EQ(t.numPorts(2), 3u + 3u);  // m2 + w3.
  EXPECT_EQ(t.numPorts(3), 2u);       // Roots: m3 down only.
}

// Property sweep: digit() agrees with the label decoder for every node.
class TopologyDigits : public ::testing::TestWithParam<Params> {};

TEST_P(TopologyDigits, DigitMatchesLabel) {
  const Topology t(GetParam());
  for (std::uint32_t l = 0; l <= t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      const Label label = labelOf(t.params(), l, idx);
      for (std::uint32_t i = 1; i <= t.height(); ++i) {
        EXPECT_EQ(t.digit(l, idx, i), label.digit(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyDigits,
    ::testing::Values(karyNTree(2, 4), xgft2(16, 16, 5),
                      Params({4, 3, 2}, {1, 2, 3}),
                      Params({2, 3, 4}, {2, 3, 4})));

}  // namespace
}  // namespace xgft
