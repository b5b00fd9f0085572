// route_resolver.hpp — (src, dst) -> route-set resolution.
//
// A static route is its ascent (sim/route_store.hpp), so resolving a pair
// means finding ascent words that already exist, or storing them once.
// Closed-loop replay and open-loop sources (trace/openloop.hpp) resolve
// routes through this one path:
//
//  * compiled   — one forwarding-table lookup per message (core::
//                 CompiledRoutes, flat or interval-compressed): the set
//                 points at the table's upPorts() slice, and nothing is
//                 stored or memoized;
//  * router     — no table: one router->choice() call and its range check
//                 (Router::ascentOf) per distinct pair; the choice's
//                 catalogue ascent is stored in the network's RouteStore and
//                 memoized (Random and Colored closed-loop jobs, open-loop
//                 jobs past the table budget, compileRoutes off);
//  * spray      — up to maxPaths NCA-distinct routes per pair, stored and
//                 memoized the same way, sprayed per segment (the
//                 Greenberg–Leiserson extension): every NCA when the pair
//                 has at most maxPaths, else seeded draws with repeats
//                 skipped until maxPaths distinct ones are found;
//  * adaptive   — no resolver at all (per-hop choice inside the simulator).
//
// Compiled-mode sets point into the table, so every table the resolver is
// given must outlive the network's messages (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <vector>

#include "core/compiled_routes.hpp"
#include "routing/router.hpp"
#include "sim/flat_map.hpp"
#include "sim/injection.hpp"
#include "sim/network.hpp"

namespace trace {

/// Optional per-segment multipath spraying (the Greenberg–Leiserson
/// packet-granular randomized routing, provided as an extension): when
/// enabled, each message is given up to maxPaths NCA-distinct routes and
/// the adapter sprays segments across them.
struct SprayConfig {
  bool enabled = false;
  std::uint32_t maxPaths = 16;
  sim::SprayPolicy policy = sim::SprayPolicy::kRandom;
  std::uint64_t seed = 1;
  /// Minimally-adaptive per-hop routing instead of spraying (mutually
  /// exclusive with `enabled`): every segment picks the least-occupied
  /// up-port at each switch (Network::addMessageAdaptive).
  bool adaptive = false;
};

class RouteSetResolver {
 public:
  /// All references must outlive the resolver, and a compiled table must
  /// also outlive every message resolved through it.  When @p compiled is
  /// given (and no per-segment mode is active) pairs resolve through the
  /// compiled forwarding table; it must be compiled against @p net's
  /// topology (throws std::invalid_argument otherwise).  Per-segment modes
  /// (spray, adaptive) never consult the table, so a compiled handle is
  /// inert for them.
  RouteSetResolver(sim::Network& net, const routing::Router& router,
                   SprayConfig spray = {},
                   const core::CompiledRoutes* compiled = nullptr);

  /// The route set for host pair (src, dst) under the active routing mode.
  /// Empty for src == dst, and also empty for a pair the compiled table
  /// declares unroutable (a degraded-topology partition under
  /// fault::UnreachablePolicy::kDrop): callers must refuse such a message
  /// (sim::InjectionOptions::onDrop), never enqueue it.  Router mode
  /// rejects an out-of-range choice with Router::ascentOf's
  /// std::invalid_argument, which names the router and the pair.
  [[nodiscard]] sim::RouteSet setFor(xgft::NodeIndex src,
                                     xgft::NodeIndex dst);

  /// Swaps in a replacement forwarding table (a mid-run degraded
  /// recompilation, fault::installFaultPlan): later sends resolve through
  /// it, while messages already added keep pointing into the old one.
  /// Only legal when the resolver was constructed in compiled mode;
  /// @p compiled must be non-null and built against the same topology
  /// (throws std::invalid_argument otherwise).  The caller keeps every
  /// table it installs alive until the run ends.
  void setCompiled(const core::CompiledRoutes* compiled);

  [[nodiscard]] const SprayConfig& spray() const { return spray_; }

 private:
  sim::Network* net_;
  const routing::Router* router_;
  const core::CompiledRoutes* compiled_;
  SprayConfig spray_;
  // Router and spray modes: (src << 32 | dst) -> index into sets_.
  sim::FlatMap64 pairSets_;
  std::vector<sim::RouteSet> sets_;
  std::vector<xgft::Count> choices_;    ///< Spray choices of a memo miss.
  std::vector<std::uint32_t> scratch_;  ///< Ascent words of a memo miss.
};

/// The sim::InjectionOptions @p resolver's spray configuration implies —
/// the single translation both the Replayer and the open-loop runner use
/// (callers add their own hostOf mapping).  The resolver must outlive the
/// returned options' routeSet closure.
[[nodiscard]] sim::InjectionOptions injectionOptions(
    RouteSetResolver& resolver);

}  // namespace trace
