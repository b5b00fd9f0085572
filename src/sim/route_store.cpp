#include "sim/route_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace sim {

RouteSet RouteStore::store(std::span<const std::uint32_t> words,
                           std::uint32_t len) {
  if (len == 0 || words.empty() || words.size() % len != 0) {
    throw std::invalid_argument(
        "RouteStore::store: need a non-empty whole number of ascents");
  }
  const std::size_t count = words.size() / len;
  if (count > 0xffffffffull) {
    throw std::length_error("RouteStore::store: more than 2^32 - 1 ascents");
  }
  if (words.size() > blockFree_) {
    // Open a new block; the old one's unused tail is left behind, so no
    // stored word ever moves.
    const std::size_t size = std::max(kBlockWords, words.size());
    blocks_.push_back(std::make_unique_for_overwrite<std::uint32_t[]>(size));
    next_ = blocks_.back().get();
    blockFree_ = size;
  }
  std::uint32_t* const at = next_;
  std::copy(words.begin(), words.end(), at);
  next_ += words.size();
  blockFree_ -= words.size();
  numPaths_ += count;
  entries_ += words.size();
  return {at, len, static_cast<std::uint32_t>(count)};
}

}  // namespace sim
