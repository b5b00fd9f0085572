// random_router.hpp — Static Random routing (Greenberg & Leiserson [16];
// the default mechanism in Myrinet and InfiniBand per Sec. V).
//
// Every ordered pair (s, d) is independently assigned one of its
// numNcas(s, d) nearest common ancestors uniformly at random.  The choice is
// a pure function of (seed, s, d) (counter-based hashing), so no N^2 table
// is stored and a seed reproduces the exact same route set.
//
// Unlike S/D-mod-k, Random does *not* concentrate endpoint contention: two
// flows sharing a source (or destination) usually take different ascents,
// turning unavoidable endpoint contention into avoidable network contention
// (Sec. VII) — the effect the paper's proposal removes.
#pragma once

#include <cstdint>

#include "routing/router.hpp"

namespace routing {

class RandomRouter final : public Router {
 public:
  RandomRouter(const Topology& topo, std::uint64_t seed)
      : Router(topo), seed_(seed) {}

  /// hashMix(seed, s, d) mod numNcas(s, d).
  [[nodiscard]] xgft::Count choice(NodeIndex s, NodeIndex d,
                                   std::uint32_t level) const override;
  [[nodiscard]] std::string name() const override { return "Random"; }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

[[nodiscard]] RouterPtr makeRandom(const Topology& topo, std::uint64_t seed);

}  // namespace routing
