// route_store.hpp — Message routes as ascents, and the arena for the ones
// no forwarding table holds.
//
// In an XGFT a minimal route is fixed by its ascent: the up-port taken at
// each level below the nearest common ancestor (xgft::Route::up, whose
// length is the pair's NCA level).  The way down from the NCA is unique —
// at level l it leaves through the destination's digit l — so the event
// core computes every descending hop from `dst` (Network's per-(level, dst)
// down-port table), and a static message only ever points at its ascent.
// Word 0 of an ascent is the local port of the source NIC the message
// leaves through.
//
// A RouteSet is the handle every static message carries: `count` candidate
// ascents of `len` words each, laid out back to back from `ascents` (the
// candidates of one pair share its NCA level, so candidate i starts at
// ascents + i * len).  The words live wherever the route came from:
//
//  * a compiled forwarding table (core::CompiledRoutes::upPorts, flat or
//    compressed) — the common case; nothing is copied or stored per
//    message;
//  * a RouteStore — the routes no table holds: router-mode Random and
//    colored routes and spray sets, which trace::RouteSetResolver stores
//    once per distinct pair.
//
// The event core never asks which; it reads ascents[route * len + hop].
// Whoever owns the words must outlive every message pointing into them
// (the table-lifetime rule, DESIGN.md §7).
//
// The store is an append-only arena of fixed-size blocks: stored words
// never move, so a handle stays valid for the store's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace sim {

/// A message's candidate routes (see the file comment).  Empty (count 0)
/// for local delivery (src == dst) and, from a resolver, for a pair the
/// active forwarding table declares unroutable (src != dst).
struct RouteSet {
  const std::uint32_t* ascents = nullptr;
  std::uint32_t len = 0;    ///< Words per ascent: the pair's NCA level.
  std::uint32_t count = 0;  ///< Candidate ascents.

  [[nodiscard]] bool empty() const { return count == 0; }
  /// Candidate @p i's up-port choices.
  [[nodiscard]] std::span<const std::uint32_t> ascent(std::uint32_t i) const {
    return {ascents + static_cast<std::size_t>(i) * len, len};
  }
};

class RouteStore {
 public:
  /// Copies @p words — words.size() / @p len ascents of @p len words each,
  /// back to back — into the arena and returns their handle.  @p len must
  /// be at least 1 and divide words.size(), which must not be empty.
  [[nodiscard]] RouteSet store(std::span<const std::uint32_t> words,
                               std::uint32_t len);

  /// Ascents stored so far.
  [[nodiscard]] std::size_t numPaths() const { return numPaths_; }
  /// Words stored so far (arena footprint, for reports).
  [[nodiscard]] std::size_t arenaEntries() const { return entries_; }

 private:
  /// Words per arena block; a larger set gets a block of its own size.
  static constexpr std::size_t kBlockWords = 4096;

  std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  std::uint32_t* next_ = nullptr;  ///< First unused word of the last block.
  std::size_t blockFree_ = 0;      ///< Unused words from next_ on.
  std::size_t numPaths_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace sim
