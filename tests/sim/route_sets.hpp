// route_sets.hpp — Hand-made xgft::Routes as the route sets sim::Network
// takes, for tests.
//
// Network::addMessageSet takes a static message's routes as NCA choices,
// which production code gets from trace::RouteSetResolver.  Tests state
// routes the readable way, as xgft::Routes.  RouteSets checks them the way
// a resolver's choices are guaranteed to be — each a valid minimal route
// for the pair (xgft::validateRoute), all leaving through one NIC port —
// converts each to its choice with Topology::choiceOf, and owns the choice
// lists of the multi-route sets it hands out, so it must outlive the
// messages added over them.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "xgft/route.hpp"

namespace sim {

class RouteSets {
 public:
  /// The route set of (src, dst) over @p routes; empty for src == dst.
  /// Throws std::invalid_argument for no routes, an invalid route, or
  /// routes that leave through different NIC ports.
  RouteSet set(const xgft::Topology& topo, xgft::NodeIndex src,
               xgft::NodeIndex dst, const std::vector<xgft::Route>& routes) {
    if (routes.empty()) {
      throw std::invalid_argument("RouteSets: need >= 1 route");
    }
    if (src == dst) return {};
    std::vector<std::uint32_t>& list = lists_.emplace_back();
    for (const xgft::Route& route : routes) {
      std::string error;
      if (!xgft::validateRoute(topo, src, dst, route, &error)) {
        throw std::invalid_argument("RouteSets: " + error);
      }
      if (route.up[0] != routes[0].up[0]) {
        throw std::invalid_argument(
            "RouteSets: routes must share the first-hop port");
      }
      list.push_back(static_cast<std::uint32_t>(topo.choiceOf(route.up)));
    }
    return RouteSet::of(routes[0].ncaLevel(), list);
  }

  /// Adds a message over @p routes (see set()), sprayed per @p policy.
  MsgId add(Network& net, xgft::NodeIndex src, xgft::NodeIndex dst,
            Bytes bytes, const std::vector<xgft::Route>& routes,
            SprayPolicy policy = SprayPolicy::kRoundRobin,
            std::uint64_t spraySeed = 1) {
    return net.addMessageSet(src, dst, bytes,
                             set(net.topology(), src, dst, routes), policy,
                             spraySeed);
  }

 private:
  std::deque<std::vector<std::uint32_t>> lists_;  ///< Entries never move.
};

/// Adds a message over the one route @p route.  A one-route set holds its
/// choice inline, so nothing has to outlive the call.
inline MsgId addRouted(Network& net, xgft::NodeIndex src, xgft::NodeIndex dst,
                       Bytes bytes, const xgft::Route& route) {
  return RouteSets().add(net, src, dst, bytes, {route});
}

}  // namespace sim
