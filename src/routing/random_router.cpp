#include "routing/random_router.hpp"

#include "xgft/rng.hpp"

namespace routing {

xgft::Count RandomRouter::choice(NodeIndex s, NodeIndex d,
                                 std::uint32_t level) const {
  return xgft::hashMix(seed_, s, d) % topo_->ncaChoices(level);
}

RouterPtr makeRandom(const Topology& topo, std::uint64_t seed) {
  return std::make_unique<RandomRouter>(topo, seed);
}

}  // namespace routing
