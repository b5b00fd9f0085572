// degraded.hpp — Routing on a topology with failed links.
//
// A DegradedTopology is a read-only view of a Topology plus a failed-link
// mask; it does not rewrite the digit algebra (the wires still exist
// physically — they are just down), so every (level, index, port)
// computation stays valid and only route *selection* changes.
//
// A minimal route is fixed by the NCA it climbs to, and its descent to d
// crosses exactly the links that the same up-port choices would climb from
// d (the descent visits the nodes whose W digits are the route's up-ports,
// and so does d's ascent).  So a route s -> d is clean iff its ascent is
// clean from s and from d.  A CleanAscentMask holds that per-host fact for
// every NCA level and choice, built once per failed-link set.
//
// compileDegraded() patches a scheme's healthy forwarding table
// (core::CompiledRoutes, flat or compressed) around the failures, in the
// healthy table's layout.  A route is an NCA choice here as everywhere
// (routing/router.hpp), and the healthy table stores it: a pair whose
// stored choice is clean — its two mask bits — keeps it; otherwise it
// takes the lowest choice clean from both ends (the AND of two mask rows,
// then its first set bit), behind the same range check a compile makes.
// Pairs with no surviving minimal path are "unreachable" — reported
// explicitly per UnreachablePolicy, never silently dropped and never a
// hang:
//
//  * kThrow — compilation fails naming the first unreachable pair in
//    (src, dst) order, for any thread count and layout (closed-loop
//    campaigns, where a lost message would stall the phase barrier).
//  * kDrop  — the pair compiles to an empty (unroutable) entry; the
//    resolver hands out its empty route set and the injection layer
//    counts the refused messages (open-loop campaigns).
//
// Only table-mode schemes (core::RouteMode::kTable) have a table to patch;
// the per-segment modes (adaptive, spray) pick ports inside the simulator
// and instead honour faults through sim::FaultPolicy.  requireDegradable()
// enforces this with the uniform registry-style error.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace fault {

/// Failed-link view over a Topology.  Immutable after construction; the
/// topology must outlive it.
class DegradedTopology {
 public:
  /// Throws std::invalid_argument on out-of-range link ids.
  DegradedTopology(const xgft::Topology& topo,
                   std::span<const xgft::LinkId> failedLinks);

  [[nodiscard]] const xgft::Topology& base() const { return *topo_; }
  [[nodiscard]] bool linkFailed(xgft::LinkId link) const {
    return failed_[link] != 0;
  }
  [[nodiscard]] std::uint64_t numFailed() const { return numFailed_; }

  /// Does route @p r from @p s to @p d cross any failed link?
  [[nodiscard]] bool routeBlocked(xgft::NodeIndex s, xgft::NodeIndex d,
                                  const xgft::Route& r) const;

 private:
  const xgft::Topology* topo_;
  std::vector<std::uint8_t> failed_;  ///< Indexed by LinkId.
  std::uint64_t numFailed_ = 0;
};

/// One bit per (host x, NCA level L, NCA choice c), for 1 <= L <= h and
/// c < prod_{i<=L} w_i numbered like the topology's catalogue of ascents
/// (xgft::Topology::ascent): set iff the
/// length-L ascent with choice c from x crosses no failed link.  The route
/// s -> d through choice c (L = ncaLevel(s, d)) is clean iff bits (s, L, c)
/// and (d, L, c) are both set.  Level L packs every host's row back to
/// back, so the mask takes n * sum_L prod_{i<=L} w_i bits.  Immutable after
/// construction; the degraded view need not outlive it.
class CleanAscentMask {
 public:
  /// Returned by firstClean() when no choice is clean from both ends.
  static constexpr xgft::Count kNone = ~xgft::Count{0};

  explicit CleanAscentMask(const DegradedTopology& degraded);

  /// Bit (x, level, choice); @p choice < prod_{i<=level} w_i.
  [[nodiscard]] bool clean(xgft::NodeIndex x, std::uint32_t level,
                           xgft::Count choice) const {
    return bit(offset(x, level) + choice);
  }
  /// The lowest choice at @p level clean from both @p s and @p d, or kNone.
  [[nodiscard]] xgft::Count firstClean(xgft::NodeIndex s, xgft::NodeIndex d,
                                       std::uint32_t level) const;

  /// Resident bytes of the bits.
  [[nodiscard]] std::uint64_t bytes() const {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  [[nodiscard]] std::uint64_t offset(xgft::NodeIndex x,
                                     std::uint32_t level) const {
    return levelBase_[level] + x * choices_[level];
  }
  [[nodiscard]] bool bit(std::uint64_t i) const {
    return ((words_[i / 64] >> (i % 64)) & 1) != 0;
  }
  /// The 64 bits starting at bit @p i (zero past the end).
  [[nodiscard]] std::uint64_t window(std::uint64_t i) const;

  std::vector<xgft::Count> choices_;      ///< prod_{i<=L} w_i, L in [0, h].
  std::vector<std::uint64_t> levelBase_;  ///< First bit of level L.
  std::vector<std::uint64_t> words_;
};

/// What compileDegraded does with a pair that has no surviving minimal
/// path.
enum class UnreachablePolicy : std::uint8_t { kThrow, kDrop };

/// A patched forwarding table plus the pairs it could not route
/// (non-empty only under UnreachablePolicy::kDrop; sorted by (src, dst)).
struct DegradedRoutes {
  std::shared_ptr<const core::CompiledRoutes> table;
  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> unreachable;
};

/// Patches @p healthy around @p degraded's failed links (see the header
/// comment for the pair-by-pair rules), in @p healthy's layout, split
/// across @p threads workers.  Deterministic for any @p threads.  Throws
/// std::invalid_argument for a null table, a topology mismatch, and under
/// kThrow for the first unreachable pair in (src, dst) order.  The result
/// does not keep @p healthy or the degraded view alive.
[[nodiscard]] DegradedRoutes compileDegraded(
    const std::shared_ptr<const core::CompiledRoutes>& healthy,
    const DegradedTopology& degraded, UnreachablePolicy policy,
    std::uint32_t threads = 1);

/// Checks that the scheme @p routing can route on a degraded view (table
/// mode).  Returns its SchemeInfo; throws std::invalid_argument in the
/// registry-error shape, listing the degradable schemes, otherwise.
const core::SchemeInfo& requireDegradable(const std::string& routing);

}  // namespace fault
