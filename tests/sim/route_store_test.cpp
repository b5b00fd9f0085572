// Tests for the interned-route arenas: content deduplication, span
// stability, and the set layer multipath messages index into.
#include "sim/route_store.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sim {
namespace {

TEST(RouteStore, DeduplicatesIdenticalPaths) {
  RouteStore store;
  const std::vector<std::uint32_t> a{1, 2, 3};
  const std::vector<std::uint32_t> b{1, 2, 3};
  const std::vector<std::uint32_t> c{1, 2, 4};
  const RouteId ra = store.internPath(a);
  EXPECT_EQ(store.internPath(b), ra);
  EXPECT_NE(store.internPath(c), ra);
  EXPECT_EQ(store.numPaths(), 2u);
}

TEST(RouteStore, PrefixesAndExtensionsAreDistinct) {
  RouteStore store;
  const std::vector<std::uint32_t> shortPath{1, 2};
  const std::vector<std::uint32_t> longPath{1, 2, 3};
  EXPECT_NE(store.internPath(shortPath), store.internPath(longPath));
  EXPECT_EQ(store.path(store.internPath(shortPath)).size(), 2u);
  EXPECT_EQ(store.path(store.internPath(longPath)).size(), 3u);
}

TEST(RouteStore, PathSpansSurviveArenaGrowth) {
  RouteStore store;
  const RouteId first = store.internPath(std::vector<std::uint32_t>{7, 8, 9});
  // Force many reallocation-sized appends.
  for (std::uint32_t i = 0; i < 10000; ++i) {
    (void)store.internPath(std::vector<std::uint32_t>{i, i + 1, i + 2});
  }
  const std::span<const std::uint32_t> p = store.path(first);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], 7u);
  EXPECT_EQ(p[2], 9u);
}

TEST(RouteStore, SetsDeduplicateByContentAndKeepOrder) {
  RouteStore store;
  const RouteId r0 = store.internPath(std::vector<std::uint32_t>{1});
  const RouteId r1 = store.internPath(std::vector<std::uint32_t>{2});
  const std::vector<RouteId> ab{r0, r1};
  const std::vector<RouteId> ba{r1, r0};
  const RouteSetId sab = store.internSet(3, ab);
  EXPECT_EQ(store.internSet(3, ab), sab);
  // Order matters for spraying: a reversed set is a different set.
  EXPECT_NE(store.internSet(3, ba), sab);
  const std::span<const RouteId> got = store.set(sab);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], r0);
  EXPECT_EQ(got[1], r1);
  EXPECT_EQ(store.setFirstUp(sab), 3u);
}

TEST(RouteStore, SetsWithDifferentNicPortsStayDistinct) {
  // Adaptive messages share one (empty) tail path yet must keep one set per
  // source NIC port: the port participates in the set's interned content.
  RouteStore store;
  const RouteId tail = store.internPath(std::vector<std::uint32_t>{});
  const std::vector<RouteId> one{tail};
  const RouteSetId s0 = store.internSet(0, one);
  const RouteSetId s1 = store.internSet(1, one);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(store.internSet(0, one), s0);
  EXPECT_EQ(store.setFirstUp(s0), 0u);
  EXPECT_EQ(store.setFirstUp(s1), 1u);
  EXPECT_TRUE(store.set(s0).size() == 1 && store.set(s0)[0] == tail);
}

TEST(RouteStore, ManyCollidingLengthsStayConsistent) {
  // Same multiset of entries in different orders/lengths must never alias.
  RouteStore store;
  std::vector<RouteId> ids;
  for (std::uint32_t len = 1; len <= 64; ++len) {
    std::vector<std::uint32_t> path(len, 5);
    ids.push_back(store.internPath(path));
  }
  for (std::uint32_t len = 1; len <= 64; ++len) {
    EXPECT_EQ(store.path(ids[len - 1]).size(), len);
  }
  EXPECT_EQ(store.numPaths(), 64u);
}

TEST(RouteStore, IdsSurviveIndexGrowthAndReinternInReverse) {
  // 100k distinct paths and sets cross many index doublings; re-interning
  // every one afterwards, newest first, must hand back the first-intern ids
  // and add nothing.
  constexpr std::uint32_t kCount = 100'000;
  RouteStore store;
  const auto pathOf = [](std::uint32_t i) {
    return std::vector<std::uint32_t>{i, i * 7 + 1, i % 13};
  };
  const auto setOf = [](std::uint32_t i) {
    return std::vector<RouteId>{i / 3, i % 3};
  };
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(store.internPath(pathOf(i)), i);
    ASSERT_EQ(store.internSet(i % 4, setOf(i)), i);
  }
  const std::size_t entries = store.arenaEntries();
  for (std::uint32_t i = kCount; i-- > 0;) {
    ASSERT_EQ(store.internPath(pathOf(i)), i);
    ASSERT_EQ(store.internSet(i % 4, setOf(i)), i);
  }
  EXPECT_EQ(store.numPaths(), kCount);
  EXPECT_EQ(store.numSets(), kCount);
  EXPECT_EQ(store.arenaEntries(), entries);
  EXPECT_EQ(store.setFirstUp(kCount - 1), (kCount - 1) % 4);
}

TEST(RouteStore, PathsDifferingInTheLastWordNeverAlias) {
  // Same length, same prefix: only the final word tells them apart, so
  // every one must get its own id and keep its own content.
  RouteStore store;
  std::vector<std::uint32_t> path{4, 8, 15, 16, 23, 0};
  for (std::uint32_t last = 0; last < 20'000; ++last) {
    path.back() = last;
    ASSERT_EQ(store.internPath(path), last);
  }
  EXPECT_EQ(store.numPaths(), 20'000u);
  for (std::uint32_t last = 0; last < 20'000; ++last) {
    ASSERT_EQ(store.path(last).back(), last);
    ASSERT_EQ(store.path(last).size(), path.size());
  }
}

}  // namespace
}  // namespace sim
