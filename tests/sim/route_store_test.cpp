// Tests for the route store: ascents stored back to back, handles whose
// addresses never move, per-set blocks for oversized sets, the counters
// reports read, and rejected malformed input.
#include "sim/route_store.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace sim {
namespace {

TEST(RouteStore, StoresCandidatesBackToBack) {
  RouteStore store;
  const std::vector<std::uint32_t> words{3, 0, 3, 1, 3, 2};
  const RouteSet set = store.store(words, 2);
  EXPECT_EQ(set.len, 2u);
  EXPECT_EQ(set.count, 3u);
  EXPECT_FALSE(set.empty());
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::span<const std::uint32_t> a = set.ascent(i);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0], 3u);
    EXPECT_EQ(a[1], i);
  }
  EXPECT_EQ(store.numPaths(), 3u);
  EXPECT_EQ(store.arenaEntries(), 6u);
}

TEST(RouteStore, AddressesNeverMove) {
  // Far more words than one block: every earlier handle must keep reading
  // its own words from the same address.
  RouteStore store;
  std::vector<RouteSet> sets;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    sets.push_back(store.store(std::vector<std::uint32_t>{i, i + 1, i + 2}, 3));
  }
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    ASSERT_EQ(sets[i].ascents[0], i);
    ASSERT_EQ(sets[i].ascents[2], i + 2);
  }
  EXPECT_EQ(store.numPaths(), 20'000u);
  EXPECT_EQ(store.arenaEntries(), 60'000u);
}

TEST(RouteStore, OversizedSetsGetABlockOfTheirOwn) {
  RouteStore store;
  const RouteSet small = store.store(std::vector<std::uint32_t>{1}, 1);
  std::vector<std::uint32_t> big(3 * 10'000);
  for (std::uint32_t i = 0; i < big.size(); ++i) big[i] = i;
  const RouteSet large = store.store(big, 3);
  const RouteSet after = store.store(std::vector<std::uint32_t>{9, 8}, 2);
  EXPECT_EQ(small.ascents[0], 1u);
  ASSERT_EQ(large.count, 10'000u);
  EXPECT_EQ(large.ascent(9'999)[2], big.back());
  EXPECT_EQ(after.ascents[1], 8u);
  EXPECT_EQ(store.numPaths(), 1u + 10'000u + 1u);
}

TEST(RouteStore, RejectsMalformedInput) {
  RouteStore store;
  EXPECT_THROW((void)store.store(std::vector<std::uint32_t>{1, 2}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)store.store(std::vector<std::uint32_t>{1, 2, 3}, 2),
               std::invalid_argument);
  EXPECT_THROW((void)store.store(std::vector<std::uint32_t>{}, 1),
               std::invalid_argument);
  EXPECT_EQ(store.numPaths(), 0u);
  EXPECT_EQ(store.arenaEntries(), 0u);
}

}  // namespace
}  // namespace sim
