// colored.hpp — Pattern-aware "Colored" routing (the upper-bound baseline
// of Figs. 2 and 5, from the authors' companion paper [4]).
//
// Given the communication phases an application will execute, Colored picks
// NCAs so that the *effective* contention — the metric of Sec. IV, where
// flows sharing an endpoint may share links for free because they are
// already serialized at the edge — is minimized:
//
//   * each flow f = (s, d) gets ascent weight  1/fanout_phase(s) and descent
//     weight 1/fanin_phase(d): the rate the flow can sustain anyway given
//     endpoint serialization;
//   * a channel's demand is the sum of the weights of the flows crossing it;
//     demand <= 1 means the channel adds no slowdown beyond the endpoints;
//   * the optimizer minimizes (max channel demand, then sum of squares).
//
// Algorithm: for 2-level XGFTs (the paper's whole evaluation) permutation
// phases are seeded with an *exact* König edge coloring of the
// source-switch x destination-switch multigraph — provably optimal max link
// load ceil(Δ / w₂) — and every phase is then refined by bounded local
// search under the effective-contention objective.  Taller trees use the
// greedy + local-search path directly.
//
// Routes are static per (s, d) pair across phases (hardware routing tables
// do not change mid-run): a pair seen in an earlier phase keeps its route.
// The optimizer stores each optimized pair's NCA choice; pairs absent from
// the pattern fall back to D-mod-k's choice.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "patterns/pattern.hpp"
#include "routing/relabel.hpp"
#include "routing/router.hpp"

namespace routing {

/// Which initial assignment each phase's local search starts from.  kBest
/// tries them all and keeps the winner (the default); the others force one
/// strategy — used by the seeding ablation bench to quantify what the exact
/// König seed buys over pure greedy.
enum class ColoredSeed : std::uint8_t {
  kBest,
  kEdgeColoring,  ///< König edge coloring (2-level trees only).
  kDModK,         ///< Start from the D-mod-k assignment.
  kSModK,         ///< Start from the S-mod-k assignment.
  kGreedy,        ///< No seed: heavy-flows-first greedy placement.
};

struct ColoredOptions {
  std::uint64_t seed = 1;          ///< Tie-breaking / sampling determinism.
  std::uint32_t refinePasses = 3;  ///< Local-search sweeps per phase.
  std::size_t maxCandidates = 64;  ///< NCA candidates examined per flow.
  ColoredSeed seedStrategy = ColoredSeed::kBest;
};

class ColoredRouter final : public Router {
 public:
  ColoredRouter(const Topology& topo, const patterns::PhasedPattern& app,
                ColoredOptions options = {});
  ColoredRouter(const Topology& topo, const patterns::Pattern& pattern,
                ColoredOptions options = {});

  /// The stored choice of an optimized pair, else D-mod-k's.
  [[nodiscard]] xgft::Count choice(NodeIndex s, NodeIndex d,
                                   std::uint32_t level) const override;
  [[nodiscard]] std::string name() const override { return "colored"; }
  [[nodiscard]] bool isOblivious() const override { return false; }

  /// Worst effective channel demand over all phases after optimization
  /// (>= 1.0 whenever any phase has inter-switch traffic); the optimizer's
  /// own estimate of the residual network contention.
  [[nodiscard]] double estimatedMaxDemand() const { return maxDemand_; }

  /// Number of (s, d) pairs with a dedicated route.
  [[nodiscard]] std::size_t numOptimizedPairs() const {
    return choices_.size();
  }

 private:
  void optimize(const patterns::PhasedPattern& app);

  [[nodiscard]] std::uint64_t key(NodeIndex s, NodeIndex d) const {
    return s * topo_->numHosts() + d;
  }

  ColoredOptions options_;
  std::unordered_map<std::uint64_t, xgft::Count> choices_;
  RelabelScheme fallback_;  ///< D-mod-k digits for un-optimized pairs.
  double maxDemand_ = 0.0;
};

/// Convenience factories mirroring the oblivious makeXxx() helpers.
[[nodiscard]] RouterPtr makeColored(const Topology& topo,
                                    const patterns::PhasedPattern& app,
                                    ColoredOptions options = {});
[[nodiscard]] RouterPtr makeColored(const Topology& topo,
                                    const patterns::Pattern& pattern,
                                    ColoredOptions options = {});

}  // namespace routing
