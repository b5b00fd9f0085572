// route_resolver.hpp — (src, dst) -> route-set resolution.
//
// A static route is an NCA choice (sim::RouteSet), so resolving a pair
// means finding its NCA level and choice; the up-ports stay in the
// topology's catalogue.  Closed-loop replay and open-loop sources
// (trace/openloop.hpp) resolve routes through this one path:
//
//  * compiled   — one forwarding-table lookup per message (core::
//                 CompiledRoutes::entry, flat or interval-compressed);
//  * router     — no table: one router->choice() call and its range check
//                 (Router::ascentOf) per message, nothing stored (Random
//                 and Colored closed-loop jobs, open-loop jobs past the
//                 table budget, compileRoutes off);
//  * spray      — up to maxPaths NCA-distinct choices per pair, sprayed per
//                 segment (the Greenberg–Leiserson extension): every NCA
//                 when the pair has at most maxPaths — one list per NCA
//                 level, shared by all its pairs — else seeded draws with
//                 repeats skipped until maxPaths distinct ones are found,
//                 kept per pair;
//  * adaptive   — no resolver at all (per-hop choice inside the simulator).
//
// A set from the first two modes holds its one choice by value.  A spray
// set points at a list the resolver owns, so the resolver must outlive
// the messages it resolved; tables need not.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/compiled_routes.hpp"
#include "routing/router.hpp"
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
  /// All references must outlive the resolver; a compiled table need not
  /// outlive anything else.  When @p compiled is given (and no per-segment
  /// mode is active) pairs resolve through the compiled forwarding table;
  /// it must be compiled against @p net's topology (throws
  /// std::invalid_argument otherwise).  Per-segment modes (spray, adaptive)
  /// never consult the table, so a compiled handle is inert for them.
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
  /// it, while messages already added keep the choices they were given.
  /// Only legal when the resolver was constructed in compiled mode;
  /// @p compiled must be non-null and built against the same topology
  /// (throws std::invalid_argument otherwise).  The caller keeps the
  /// installed table alive while the resolver may read it.
  void setCompiled(const core::CompiledRoutes* compiled);

  [[nodiscard]] const SprayConfig& spray() const { return spray_; }

 private:
  sim::Network* net_;
  const routing::Router* router_;
  const core::CompiledRoutes* compiled_;
  SprayConfig spray_;
  /// Spray mode: levelSprays_[L] lists every level-L choice sharing choice
  /// 0's first hop when a level-L pair has at most maxPaths NCAs; empty
  /// otherwise.
  std::vector<std::vector<std::uint32_t>> levelSprays_;
  /// Spray mode, pairs with more NCAs than maxPaths: (src << 32 | dst) ->
  /// the pair's drawn choices.  Node-based, so a list never moves.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> pairSprays_;
};

/// The sim::InjectionOptions @p resolver's spray configuration implies —
/// the single translation both the Replayer and the open-loop runner use
/// (callers add their own hostOf mapping).  The resolver must outlive the
/// returned options' routeSet closure.
[[nodiscard]] sim::InjectionOptions injectionOptions(
    RouteSetResolver& resolver);

}  // namespace trace
