#include "trace/route_resolver.hpp"

#include <algorithm>
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
  if (!spray_.enabled) return;
  // Catalogue choice c leaves the host through NIC port c mod w1, so the
  // choices sharing choice 0's first hop are the multiples of w1.
  const xgft::Topology& topo = net.topology();
  const std::uint32_t w1 = topo.params().w(1);
  levelSprays_.resize(topo.height() + 1);
  for (std::uint32_t level = 1; level <= topo.height(); ++level) {
    const xgft::Count n = topo.ncaChoices(level);
    if (n > spray_.maxPaths) continue;
    for (xgft::Count c = 0; c < n; c += w1) {
      levelSprays_[level].push_back(static_cast<std::uint32_t>(c));
    }
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
    // Level 0 is the diagonal or a pair the table marks unroutable.
    const core::CompiledRoutes::Entry e = compiled_->entry(src, dst);
    return e.level == 0 ? sim::RouteSet{}
                        : sim::RouteSet::one(e.level, e.choice);
  }
  if (src == dst) return {};
  const xgft::Topology& topo = net_->topology();
  const std::uint32_t level = topo.ncaLevel(src, dst);
  if (!spray_.enabled) {
    const xgft::Count c = router_->choice(src, dst);
    (void)router_->ascentOf(src, dst, level, c);  // The range check.
    return sim::RouteSet::one(level, static_cast<std::uint32_t>(c));
  }
  if (!levelSprays_[level].empty()) {
    return sim::RouteSet::of(level, levelSprays_[level]);
  }
  // More NCAs than maxPaths: seeded draws i = 0, 1, ... with repeats
  // skipped until maxPaths distinct ones are found, then the ones sharing
  // the first draw's first hop (spraying happens above the NIC port).
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  std::vector<std::uint32_t>& list = pairSprays_[key];
  if (list.empty()) {
    const xgft::Count n = topo.ncaChoices(level);
    std::vector<std::uint32_t> drawn;
    for (std::uint64_t i = 0; drawn.size() < spray_.maxPaths; ++i) {
      const auto c = static_cast<std::uint32_t>(
          xgft::hashMix(spray_.seed, src, dst, i) % n);
      if (std::find(drawn.begin(), drawn.end(), c) == drawn.end()) {
        drawn.push_back(c);
      }
    }
    const std::uint32_t port0 = topo.ascent(level, drawn[0])[0];
    for (const std::uint32_t c : drawn) {
      if (topo.ascent(level, c)[0] == port0) list.push_back(c);
    }
  }
  return sim::RouteSet::of(level, list);
}

}  // namespace trace
