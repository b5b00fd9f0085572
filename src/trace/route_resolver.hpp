// route_resolver.hpp — How a run routes its messages, and the one place
// that acts on it.
//
// Every run routes in exactly one of four ways, held by one Routing value
// that the engine builds once per job from its scheme's mode:
//
//  * router     — no table: one router choice() and its range check
//                 (Router::ascentOf) per message, nothing stored — healthy
//                 jobs of every table scheme;
//  * table      — one forwarding-table lookup per message (core::
//                 CompiledRoutes::entry) — jobs with a fault plan, whose
//                 table is patched around the failed links;
//  * Spray      — up to maxPaths NCA-distinct choices per pair, sprayed per
//                 segment (the Greenberg–Leiserson extension): every NCA
//                 when the pair has at most maxPaths — one list per NCA
//                 level, shared by all its pairs — else seeded draws with
//                 repeats skipped until maxPaths distinct ones are found,
//                 kept per pair;
//  * Adaptive   — no route: each segment picks the least-occupied up-port
//                 at every switch (sim::Network::addMessageAdaptive).
//
// A static route is an NCA choice (sim::RouteSet), so resolving a pair
// means finding its NCA level and choice; the up-ports stay in the
// topology's catalogue.  Closed-loop replay (trace::Replayer) and open-loop
// sources (trace/openloop.hpp) add every message through
// RouteSetResolver::add, the only code below the engine that reads the
// Routing value.
//
// A set from the router and table modes holds its one choice by value.  A
// spray set points at a list the resolver owns, so the resolver must
// outlive the messages it resolved; tables need not.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/compiled_routes.hpp"
#include "routing/router.hpp"
#include "sim/network.hpp"

namespace trace {

/// Spray mode: each message gets up to maxPaths NCA-distinct routes and
/// the adapter sprays its segments across them per `policy`; `seed` drives
/// the draws of pairs with more NCAs than maxPaths and kRandom's picks.
struct Spray {
  std::uint32_t maxPaths = 16;
  sim::SprayPolicy policy = sim::SprayPolicy::kRandom;
  std::uint64_t seed = 1;
};

/// Adaptive mode: minimally-adaptive per-hop routing; it has no parameters.
struct Adaptive {};

/// How a run routes its messages: its router, a forwarding table, Spray or
/// Adaptive, and nothing else.  A router or a table converts implicitly;
/// either must outlive the runs routed through it.
using Routing =
    std::variant<std::reference_wrapper<const routing::Router>,
                 std::reference_wrapper<const core::CompiledRoutes>, Spray,
                 Adaptive>;

class RouteSetResolver {
 public:
  /// @p net must outlive the resolver.  A table must be compiled against
  /// @p net's topology, and a spray needs maxPaths >= 1 (both throw
  /// std::invalid_argument otherwise).
  RouteSetResolver(sim::Network& net, Routing mode);

  /// Adds a message of @p bytes from host @p src to host @p dst to the
  /// network, routed by the resolver's mode, and returns its id.  Returns
  /// std::nullopt, adding nothing, for a pair the active forwarding table
  /// declares unroutable (a degraded-topology partition under
  /// fault::UnreachablePolicy::kDrop): the caller refuses that message.
  [[nodiscard]] std::optional<sim::MsgId> add(xgft::NodeIndex src,
                                              xgft::NodeIndex dst,
                                              sim::Bytes bytes);

  /// The route set for host pair (src, dst) in router, table or spray
  /// mode (adaptive mode has none: throws std::logic_error).  Empty for
  /// src == dst, and also empty for a pair the table declares unroutable.
  /// Router mode rejects an out-of-range choice with Router::ascentOf's
  /// std::invalid_argument, which names the router and the pair.
  [[nodiscard]] sim::RouteSet setFor(xgft::NodeIndex src,
                                     xgft::NodeIndex dst);

  /// Swaps in a replacement forwarding table (a mid-run degraded patch,
  /// fault::installFaultPlan): later sends resolve through it, while
  /// messages already added keep the choices they were given.  Only legal
  /// in table mode, with a table built against the same topology (throws
  /// std::invalid_argument otherwise).  The caller keeps the installed
  /// table alive while the resolver may read it.
  void setTable(const core::CompiledRoutes& table);

 private:
  sim::Network* net_;
  Routing mode_;
  /// Spray mode: levelSprays_[L] lists every level-L choice sharing choice
  /// 0's first hop when a level-L pair has at most maxPaths NCAs; empty
  /// otherwise.
  std::vector<std::vector<std::uint32_t>> levelSprays_;
  /// Spray mode, pairs with more NCAs than maxPaths: (src << 32 | dst) ->
  /// the pair's drawn choices.  Node-based, so a list never moves.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> pairSprays_;
};

}  // namespace trace
