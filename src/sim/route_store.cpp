#include "sim/route_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "xgft/rng.hpp"

namespace sim {

namespace {

std::uint64_t hashSpan(std::span<const std::uint32_t> v) {
  // SplitMix chaining (xgft/rng.hpp): platform-independent, and the length
  // is folded in so a prefix never collides with its extension by design.
  std::uint64_t h = xgft::hashMix(0x9e3779b97f4a7c15ULL, v.size());
  for (const std::uint32_t x : v) h = xgft::hashMix(h, x);
  return h;
}

}  // namespace

std::uint32_t RouteStore::intern(std::span<const std::uint32_t> value,
                                 Pool& pool, const char* what) {
  const auto h = static_cast<std::uint32_t>(hashSpan(value));
  if (pool.index.empty()) growIndex(pool);
  const std::size_t mask = pool.index.size() - 1;
  std::size_t i = h & mask;
  for (; pool.index[i].id != kEmptySlot; i = (i + 1) & mask) {
    const IndexSlot slot = pool.index[i];
    if (slot.hash == h && std::ranges::equal(pool.slice(slot.id), value)) {
      return slot.id;
    }
  }
  // New content: append to the arena, with checked 32-bit bounds instead of
  // a silent wrap on absurd scales.
  if (pool.data.size() + value.size() > 0xffffffffull) {
    throw std::length_error(std::string("RouteStore: ") + what +
                            " arena exceeds 2^32 entries — shard the "
                            "workload across simulations");
  }
  if (pool.slices.size() >= kIdLimit) {
    throw std::length_error(std::string("RouteStore: ") + what +
                            " id space exhausted (2^32 - 2 ids)");
  }
  const auto id = static_cast<std::uint32_t>(pool.slices.size());
  pool.slices.push_back({static_cast<std::uint32_t>(pool.data.size()),
                         static_cast<std::uint32_t>(value.size())});
  pool.data.insert(pool.data.end(), value.begin(), value.end());
  pool.index[i] = {h, id};
  if (pool.slices.size() * 2 > pool.index.size()) growIndex(pool);
  return id;
}

void RouteStore::growIndex(Pool& pool) {
  const std::vector<IndexSlot> old = std::move(pool.index);
  pool.index.assign(old.empty() ? 16 : old.size() * 2, IndexSlot{});
  const std::size_t mask = pool.index.size() - 1;
  for (const IndexSlot slot : old) {
    if (slot.id == kEmptySlot) continue;
    std::size_t i = slot.hash & mask;
    while (pool.index[i].id != kEmptySlot) i = (i + 1) & mask;
    pool.index[i] = slot;
  }
}

RouteId RouteStore::internPath(std::span<const std::uint32_t> gports) {
  return intern(gports, paths_, "path");
}

RouteSetId RouteStore::internSet(std::uint32_t firstUp,
                                 std::span<const RouteId> routes) {
  scratch_.assign(1, firstUp);
  scratch_.insert(scratch_.end(), routes.begin(), routes.end());
  return intern(scratch_, sets_, "route-set");
}

}  // namespace sim
