#include "trace/route_resolver.hpp"

#include <span>
#include <stdexcept>

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

sim::RouteSet RouteSetResolver::setFor(xgft::NodeIndex src,
                                       xgft::NodeIndex dst) {
  if (compiled_ != nullptr) {
    // The table holds every pair's ascent already: point at it.  An empty
    // slice is the diagonal or a pair the table marks unroutable.
    const std::span<const std::uint32_t> up = compiled_->upPorts(src, dst);
    return {up.data(), static_cast<std::uint32_t>(up.size()),
            up.empty() ? 0u : 1u};
  }
  if (src == dst) return {};
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  if (const std::uint32_t* memo = pairSets_.find(key)) return sets_[*memo];
  scratch_.clear();
  if (spray_.enabled) {
    const xgft::Topology& topo = net_->topology();
    const xgft::Count n = topo.numNcas(src, dst);
    if (n <= spray_.maxPaths) {
      for (xgft::Count c = 0; c < n; ++c) {
        scratch_.push_back(routeViaNca(topo, src, dst, c));
      }
    } else {
      for (std::uint32_t i = 0; i < spray_.maxPaths; ++i) {
        scratch_.push_back(routeViaNca(
            topo, src, dst, xgft::hashMix(spray_.seed, src, dst, i) % n));
      }
    }
    // Spraying happens above the first hop: all candidate routes must
    // leave the host through the same NIC port (relevant only when
    // w1 > 1).
    if (!scratch_.empty()) {
      const std::uint32_t port0 = scratch_[0].up[0];
      std::erase_if(scratch_, [port0](const xgft::Route& r) {
        return r.up[0] != port0;
      });
    }
  } else {
    scratch_.push_back(router_->route(src, dst));
  }
  const sim::RouteSet set = net_->internRoutes(src, dst, scratch_);
  pairSets_.insert(key, static_cast<std::uint32_t>(sets_.size()));
  sets_.push_back(set);
  return set;
}

}  // namespace trace
