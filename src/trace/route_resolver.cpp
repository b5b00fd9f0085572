#include "trace/route_resolver.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "xgft/rng.hpp"

namespace trace {

RouteSetResolver::RouteSetResolver(sim::Network& net,
                                   const routing::Router& router,
                                   SprayConfig spray,
                                   const core::CompiledRoutes* compiled)
    : net_(&net), router_(&router), compiled_(compiled), spray_(spray) {
  if (spray_.enabled && spray_.maxPaths == 0) {
    throw std::invalid_argument("RouteSetResolver: spraying needs maxPaths >= 1");
  }
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
  const xgft::Topology& topo = net_->topology();
  const std::uint32_t level = topo.ncaLevel(src, dst);
  scratch_.clear();
  if (spray_.enabled) {
    // Up to maxPaths NCA-distinct choices: all of them when there are few
    // enough, else seeded draws i = 0, 1, ... with repeats skipped.
    const xgft::Count n = topo.ncaChoices(level);
    choices_.clear();
    if (n <= spray_.maxPaths) {
      for (xgft::Count c = 0; c < n; ++c) choices_.push_back(c);
    } else {
      for (std::uint64_t i = 0; choices_.size() < spray_.maxPaths; ++i) {
        const xgft::Count c = xgft::hashMix(spray_.seed, src, dst, i) % n;
        if (std::find(choices_.begin(), choices_.end(), c) == choices_.end()) {
          choices_.push_back(c);
        }
      }
    }
    // Spraying happens above the first hop: all candidate routes must
    // leave the host through the same NIC port (relevant only when
    // w1 > 1).
    const std::uint32_t port0 = topo.ascent(level, choices_[0])[0];
    for (const xgft::Count c : choices_) {
      const std::span<const std::uint32_t> up = topo.ascent(level, c);
      if (up[0] == port0) scratch_.insert(scratch_.end(), up.begin(), up.end());
    }
  } else {
    const std::span<const std::uint32_t> up =
        router_->ascentOf(src, dst, level, router_->choice(src, dst));
    scratch_.assign(up.begin(), up.end());
  }
  const sim::RouteSet set = net_->storeAscents(scratch_, level);
  pairSets_.insert(key, static_cast<std::uint32_t>(sets_.size()));
  sets_.push_back(set);
  return set;
}

}  // namespace trace
