// degraded.hpp — Routing on a topology with failed links.
//
// A DegradedTopology is a read-only view of a Topology plus a failed-link
// mask; it does not rewrite the digit algebra (the wires still exist
// physically — they are just down), so every (level, index, port)
// computation stays valid and only route *selection* changes.
//
// compileDegraded() rebuilds a scheme's flat forwarding tables
// (core::CompiledRoutes) around the mask: each pair keeps its healthy route
// when unaffected, otherwise the minimal up/down alternatives are scanned
// in NCA order (xgft::routeViaNca) for the first one avoiding every failed
// link.  Pairs with no surviving minimal path are "unreachable" — reported
// explicitly per UnreachablePolicy, never silently dropped and never a
// hang:
//
//  * kThrow — compilation fails with the offending pair (closed-loop
//    campaigns, where a lost message would stall the phase barrier).
//  * kDrop  — the pair compiles to an empty (unroutable) entry; the
//    resolver hands out its empty route set and the injection layer
//    counts the refused messages (open-loop campaigns).
//
// Only table-mode schemes (core::RouteMode::kTable) can be recompiled; the
// per-segment modes (adaptive, spray) pick ports inside the simulator and
// instead honour faults through sim::FaultPolicy.  requireDegradable()
// enforces this with the uniform registry-style error.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "routing/router.hpp"
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

/// What compileDegraded does with a pair that has no surviving minimal
/// path.
enum class UnreachablePolicy : std::uint8_t { kThrow, kDrop };

/// A recompiled forwarding table plus the pairs it could not route
/// (non-empty only under UnreachablePolicy::kDrop; sorted by (src, dst)).
struct DegradedRoutes {
  std::shared_ptr<const core::CompiledRoutes> table;
  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> unreachable;
};

/// Recompiles @p router's forwarding tables around @p degraded's failed
/// links (see the header comment for the pair-by-pair rules).  Deterministic
/// for any @p threads.  Throws std::invalid_argument for unreachable pairs
/// under kThrow, and propagates the router's own errors.  @p layout picks
/// the table representation exactly as for CompiledRoutes::compile(),
/// which finishes before this returns (the degraded view is not kept alive
/// by the table).
[[nodiscard]] DegradedRoutes compileDegraded(
    std::shared_ptr<const routing::Router> router,
    const DegradedTopology& degraded, UnreachablePolicy policy,
    std::uint32_t threads = 1,
    core::TableLayout layout = core::TableLayout::kAuto);

/// Checks that the scheme @p routing can route on a degraded view (table
/// mode).  Returns its SchemeInfo; throws std::invalid_argument in the
/// registry-error shape, listing the degradable schemes, otherwise.
const core::SchemeInfo& requireDegradable(const std::string& routing);

}  // namespace fault
