// route_store.hpp — Interned message routes in flat arenas.
//
// Every message used to carry its own std::vector<std::vector<uint32_t>>
// copy of the global-port path(s) it traverses — one to two heap
// allocations per message on the replayer's hot path, and identical paths
// (every message of a (src, dst) pair, every segment of a sprayed set)
// duplicated thousands of times.  The RouteStore is the slot-pool
// counterpart for routes: paths live once in one contiguous uint32 arena,
// deduplicated by content, and messages/segments refer to them by index —
//
//   path  (RouteId):    one global-output-port sequence, switch tail only —
//                       the hops *after* the source host's NIC port,
//   set (RouteSetId):   the source NIC port all candidates leave through,
//                       then an ordered list of RouteIds (a multipath
//                       message's candidate routes; order matters for
//                       spraying).
//
// Paths deliberately exclude the first (host) hop: that port is unique per
// source, so storing it inside the path would defeat deduplication across
// the sources of an interval-compressed forwarding table, whose switch
// tails are bit-identical within a leaf group.  It lives once per *set*
// instead — word 0 of the set slice, so it participates in content
// interning (equal route lists leaving through different NIC ports stay
// distinct sets) — and messages cache the expanded global port.
//
// Ids are dense uint32 handles below kIdLimit, handed out in first-intern
// order; spans stay valid for the store's lifetime (arenas only grow).
// Exceeding the 32-bit arena or id space throws std::length_error instead
// of silently wrapping (the overflow-hardening contract of sim::Network) —
// and never issues an id equal to one of the reserved handles kNone and
// kUnroutable.
//
// Each arena's content index is one flat open-addressing array of
// {content hash, id} slots (linear probing, power-of-two capacity, at most
// half full): interning probes it once and compares the stored words on a
// hash match, so a repeat intern allocates nothing and a new one appends to
// two vectors (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace sim {

using RouteId = std::uint32_t;
using RouteSetId = std::uint32_t;

class RouteStore {
 public:
  /// Reserved "no route set" handle (messages delivered locally).
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Reserved "pair has no route" handle: a resolver returns this when the
  /// active forwarding table marks the pair unreachable (degraded-topology
  /// partitions).  Never produced by interning; injection layers must
  /// refuse such messages (InjectionOptions::onDrop), not enqueue them.
  static constexpr std::uint32_t kUnroutable = 0xfffffffeu;

  /// Path and set ids are < kIdLimit, so no id aliases a reserved handle.
  static constexpr std::uint32_t kIdLimit = kUnroutable;

  /// Interns one switch-tail global-port path (no host hop; empty for
  /// adaptive messages, whose switches pick ports on the fly); returns the
  /// id of the existing copy when an identical path was interned before.
  [[nodiscard]] RouteId internPath(std::span<const std::uint32_t> gports);

  /// Interns an ordered route-id list (deduplicated like paths) together
  /// with @p firstUp, the local NIC port every candidate leaves the source
  /// host through.
  [[nodiscard]] RouteSetId internSet(std::uint32_t firstUp,
                                     std::span<const RouteId> routes);

  [[nodiscard]] std::span<const std::uint32_t> path(RouteId id) const {
    return paths_.slice(id);
  }
  [[nodiscard]] std::span<const RouteId> set(RouteSetId id) const {
    return sets_.slice(id).subspan(1);
  }
  /// The local source-NIC port of every route in the set.
  [[nodiscard]] std::uint32_t setFirstUp(RouteSetId id) const {
    return sets_.slice(id)[0];
  }

  [[nodiscard]] std::size_t numPaths() const { return paths_.slices.size(); }
  [[nodiscard]] std::size_t numSets() const { return sets_.slices.size(); }
  /// Total interned uint32 entries (arena footprint, for reports).
  [[nodiscard]] std::size_t arenaEntries() const {
    return paths_.data.size() + sets_.data.size();
  }

 private:
  struct Slice {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

  /// Marks a free content-index slot.
  static constexpr std::uint32_t kEmptySlot = kNone;
  static_assert(kEmptySlot >= kIdLimit,
                "the index's empty-slot marker must not be a valid id");

  /// Low 32 bits of the content hash (they also give the home slot, so a
  /// growing index re-places ids without rehashing content) and the id.
  struct IndexSlot {
    std::uint32_t hash = 0;
    std::uint32_t id = kEmptySlot;
  };

  /// One deduplicated arena: the words, each id's slice of them, and the
  /// content index over the slices.
  struct Pool {
    std::vector<std::uint32_t> data;
    std::vector<Slice> slices;
    std::vector<IndexSlot> index;  ///< Power-of-two size, <= half full.

    [[nodiscard]] std::span<const std::uint32_t> slice(std::uint32_t id) const {
      const Slice s = slices[id];
      return {data.data() + s.off, s.len};
    }
  };

  /// Content-hashed interning of @p value into @p pool.
  static std::uint32_t intern(std::span<const std::uint32_t> value, Pool& pool,
                              const char* what);
  /// Doubles @p pool's index (16 slots when empty) and re-places its ids.
  static void growIndex(Pool& pool);

  Pool paths_;
  Pool sets_;
  std::vector<std::uint32_t> scratch_;  ///< internSet staging buffer.
};

}  // namespace sim
