// route_resolver.hpp — Memoized (src, dst) -> interned-route-set resolution.
//
// Every injection mode builds its per-pair route material exactly once and
// interns it in the network's RouteStore (sim/route_store.hpp); repeat
// messages between the same endpoints are a pure record append.  This used
// to live inside trace::Replayer; the streaming refactor hoists it here so
// closed-loop replay and open-loop sources (trace/openloop.hpp) resolve
// routes through one path:
//
//  * compiled   — a forwarding-table lookup (core::CompiledRoutes, flat or
//                 interval-compressed), memoized per share representative;
//  * router     — no table: one router->route() call and one validation per
//                 distinct pair (Random and Colored closed-loop jobs,
//                 open-loop jobs past the table budget, compileRoutes off);
//  * spray      — up to maxPaths NCA-distinct routes per pair, sprayed per
//                 segment (the Greenberg–Leiserson extension);
//  * adaptive   — no resolver at all (per-hop choice inside the simulator).
#pragma once

#include <cstdint>

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
  /// setFor()'s "this pair has no route" sentinel: returned when the active
  /// compiled table marks (src, dst) unroutable (a degraded-topology
  /// partition under fault::UnreachablePolicy::kDrop).  Distinct from every
  /// real RouteSetId and from sim::RouteStore::kNone.  Callers must refuse
  /// the message (sim::InjectionOptions::onDrop), never enqueue it.
  static constexpr sim::RouteSetId kUnroutable = sim::RouteStore::kUnroutable;

  /// All references must outlive the resolver.  When @p compiled is given
  /// (and no per-segment mode is active) pairs resolve through the compiled
  /// forwarding table; it must be compiled against @p net's topology
  /// (throws std::invalid_argument otherwise).  Per-segment modes (spray,
  /// adaptive) never consult the table, so a compiled handle is inert for
  /// them.
  RouteSetResolver(sim::Network& net, const routing::Router& router,
                   SprayConfig spray = {},
                   const core::CompiledRoutes* compiled = nullptr);

  /// The interned route set for host pair (src, dst) under the active
  /// routing mode, built on first use and memoized — or kUnroutable for a
  /// pair the compiled table declares unreachable.  Router mode rejects an
  /// invalid route with std::invalid_argument("addMessage: route ...").
  [[nodiscard]] sim::RouteSetId setFor(xgft::NodeIndex src,
                                       xgft::NodeIndex dst);

  /// Swaps in a replacement forwarding table (a mid-run degraded
  /// recompilation, fault::installFaultPlan) and invalidates every memoized
  /// pair so later sends re-resolve through it.  Only legal when the
  /// resolver was constructed in compiled mode; @p compiled must be non-null
  /// and built against the same topology (throws std::invalid_argument
  /// otherwise).  The caller keeps @p compiled alive past the resolver.
  void setCompiled(const core::CompiledRoutes* compiled);

  [[nodiscard]] const SprayConfig& spray() const { return spray_; }

 private:
  sim::Network* net_;
  const routing::Router* router_;
  const core::CompiledRoutes* compiled_;
  SprayConfig spray_;
  // (shareRep, dst) -> interned route set in the network's RouteStore.
  sim::FlatMap64 pairSets_;
};

/// The sim::InjectionOptions @p resolver's spray configuration implies —
/// the single translation both the Replayer and the open-loop runner use
/// (callers add their own hostOf mapping).  The resolver must outlive the
/// returned options' routeSet closure.
[[nodiscard]] sim::InjectionOptions injectionOptions(
    RouteSetResolver& resolver);

}  // namespace trace
