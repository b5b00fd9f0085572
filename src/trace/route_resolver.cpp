#include "trace/route_resolver.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "xgft/rng.hpp"
#include "xgft/route.hpp"

namespace trace {

RouteSetResolver::RouteSetResolver(sim::Network& net,
                                   const routing::Router& router,
                                   SprayConfig spray,
                                   const core::CompiledRoutes* compiled)
    : net_(&net), router_(&router), compiled_(compiled), spray_(spray) {
  if (spray_.adaptive || spray_.enabled) compiled_ = nullptr;
  if (compiled_ != nullptr && &compiled_->topology() != &net.topology()) {
    throw std::invalid_argument(
        "RouteSetResolver: compiled routes built for a different topology");
  }
}

void RouteSetResolver::setCompiled(const core::CompiledRoutes* compiled) {
  if (spray_.adaptive || spray_.enabled) {
    throw std::invalid_argument(
        "RouteSetResolver::setCompiled: per-segment modes (spray, adaptive) "
        "do not consult forwarding tables");
  }
  if (compiled_ == nullptr) {
    throw std::invalid_argument(
        "RouteSetResolver::setCompiled: resolver was not constructed in "
        "compiled mode");
  }
  if (compiled == nullptr ||
      &compiled->topology() != &net_->topology()) {
    throw std::invalid_argument(
        "RouteSetResolver::setCompiled: replacement table is null or built "
        "for a different topology");
  }
  compiled_ = compiled;
  pairSets_.clear();
}

sim::InjectionOptions injectionOptions(RouteSetResolver& resolver) {
  const SprayConfig& spray = resolver.spray();
  sim::InjectionOptions opt;
  opt.adaptive = spray.adaptive;
  opt.policy = spray.enabled ? spray.policy : sim::SprayPolicy::kRoundRobin;
  opt.spraySeed = spray.enabled ? spray.seed : 1;
  opt.routeSet = [&resolver](xgft::NodeIndex s, xgft::NodeIndex d) {
    return resolver.setFor(s, d);
  };
  return opt;
}

sim::RouteSetId RouteSetResolver::setFor(xgft::NodeIndex src,
                                         xgft::NodeIndex dst) {
  // Compiled tables memoize per share-representative instead of per source:
  // every source in the same forwarding interval and leaf group maps to one
  // interned set (identical NIC port + switch tail), so the memo and the
  // route arenas stay O(intervals), not O(pairs).  shareRep == src for flat
  // tables, making this the exact historical key there.  The same interval
  // probe yields the up-ports a memo miss interns.
  core::CompiledRoutes::ShareLookup share{src, {}};
  if (compiled_ != nullptr) share = compiled_->shareLookup(src, dst);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(share.rep) << 32) | dst;
  if (const sim::RouteSetId* memo = pairSets_.find(key)) return *memo;
  sim::RouteSetId set;
  if (spray_.enabled) {
    const xgft::Topology& topo = net_->topology();
    const xgft::Count n = topo.numNcas(src, dst);
    std::vector<xgft::Route> routes;
    if (n <= spray_.maxPaths) {
      for (xgft::Count c = 0; c < n; ++c) {
        routes.push_back(routeViaNca(topo, src, dst, c));
      }
    } else {
      for (std::uint32_t i = 0; i < spray_.maxPaths; ++i) {
        routes.push_back(routeViaNca(
            topo, src, dst, xgft::hashMix(spray_.seed, src, dst, i) % n));
      }
    }
    // Spraying happens above the first hop: all candidate routes must
    // leave the host through the same NIC port (relevant only when
    // w1 > 1).
    if (!routes.empty() && !routes[0].up.empty()) {
      const std::uint32_t port0 = routes[0].up[0];
      std::erase_if(routes, [port0](const xgft::Route& r) {
        return r.up[0] != port0;
      });
    }
    set = net_->internRoutes(src, dst, routes);
  } else if (compiled_ != nullptr) {
    set = src != dst && share.upPorts.empty()
              ? kUnroutable
              : net_->internCompiledPath(src, dst, share.upPorts);
  } else if (src == dst) {
    set = sim::RouteStore::kNone;
  } else {
    // internRoutes' checks and error text for one route, without its
    // vector temporaries.
    const xgft::Route route = router_->route(src, dst);
    std::string error;
    if (!xgft::validateRoute(net_->topology(), src, dst, route, &error)) {
      throw std::invalid_argument("addMessage: " + error);
    }
    set = net_->internCompiledPath(src, dst, route.up);
  }
  pairSets_.insert(key, set);
  return set;
}

}  // namespace trace
