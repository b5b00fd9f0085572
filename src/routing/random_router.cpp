#include "routing/random_router.hpp"

#include "xgft/rng.hpp"

namespace routing {

xgft::Count RandomRouter::choice(NodeIndex s, NodeIndex d) const {
  return xgft::hashMix(seed_, s, d) % topo_->numNcas(s, d);
}

RouterPtr makeRandom(const Topology& topo, std::uint64_t seed) {
  return std::make_unique<RandomRouter>(topo, seed);
}

}  // namespace routing
