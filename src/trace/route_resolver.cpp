#include "trace/route_resolver.hpp"

#include <algorithm>
#include <stdexcept>

#include "xgft/rng.hpp"

namespace trace {

namespace {

using RouterRef = std::reference_wrapper<const routing::Router>;
using TableRef = std::reference_wrapper<const core::CompiledRoutes>;

}  // namespace

RouteSetResolver::RouteSetResolver(sim::Network& net, Routing mode)
    : net_(&net), mode_(mode) {
  const xgft::Topology& topo = net.topology();
  if (const auto* table = std::get_if<TableRef>(&mode_);
      table != nullptr && &table->get().topology() != &topo) {
    throw std::invalid_argument(
        "RouteSetResolver: forwarding table built for a different topology");
  }
  const Spray* spray = std::get_if<Spray>(&mode_);
  if (spray == nullptr) return;
  if (spray->maxPaths == 0) {
    throw std::invalid_argument(
        "RouteSetResolver: spraying needs maxPaths >= 1");
  }
  // Catalogue choice c leaves the host through NIC port c mod w1, so the
  // choices sharing choice 0's first hop are the multiples of w1.
  const std::uint32_t w1 = topo.params().w(1);
  levelSprays_.resize(topo.height() + 1);
  for (std::uint32_t level = 1; level <= topo.height(); ++level) {
    const xgft::Count n = topo.ncaChoices(level);
    if (n > spray->maxPaths) continue;
    for (xgft::Count c = 0; c < n; c += w1) {
      levelSprays_[level].push_back(static_cast<std::uint32_t>(c));
    }
  }
}

void RouteSetResolver::setTable(const core::CompiledRoutes& table) {
  if (!std::holds_alternative<TableRef>(mode_)) {
    throw std::invalid_argument(
        "RouteSetResolver::setTable: the resolver is not in table mode");
  }
  if (&table.topology() != &net_->topology()) {
    throw std::invalid_argument(
        "RouteSetResolver::setTable: replacement table built for a "
        "different topology");
  }
  mode_ = std::cref(table);
}

std::optional<sim::MsgId> RouteSetResolver::add(xgft::NodeIndex src,
                                                xgft::NodeIndex dst,
                                                sim::Bytes bytes) {
  if (std::holds_alternative<Adaptive>(mode_)) {
    return net_->addMessageAdaptive(src, dst, bytes);
  }
  const sim::RouteSet set = setFor(src, dst);
  if (set.empty() && src != dst) return std::nullopt;
  if (const Spray* spray = std::get_if<Spray>(&mode_)) {
    return net_->addMessageSet(src, dst, bytes, set, spray->policy,
                               spray->seed);
  }
  return net_->addMessageSet(src, dst, bytes, set);
}

sim::RouteSet RouteSetResolver::setFor(xgft::NodeIndex src,
                                       xgft::NodeIndex dst) {
  if (const auto* table = std::get_if<TableRef>(&mode_)) {
    // Level 0 is the diagonal or a pair the table marks unroutable.
    const core::CompiledRoutes::Entry e = table->get().entry(src, dst);
    return e.level == 0 ? sim::RouteSet{}
                        : sim::RouteSet::one(e.level, e.choice);
  }
  if (std::holds_alternative<Adaptive>(mode_)) {
    throw std::logic_error(
        "RouteSetResolver::setFor: adaptive routing has no route sets");
  }
  if (src == dst) return {};
  const xgft::Topology& topo = net_->topology();
  const std::uint32_t level = topo.ncaLevel(src, dst);
  if (const auto* router = std::get_if<RouterRef>(&mode_)) {
    const routing::Router& r = *router;
    const xgft::Count c = r.choice(src, dst, level);
    (void)r.ascentOf(src, dst, level, c);  // The range check.
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
    const Spray& spray = std::get<Spray>(mode_);
    const xgft::Count n = topo.ncaChoices(level);
    std::vector<std::uint32_t> drawn;
    for (std::uint64_t i = 0; drawn.size() < spray.maxPaths; ++i) {
      const auto c = static_cast<std::uint32_t>(
          xgft::hashMix(spray.seed, src, dst, i) % n);
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
