// router.hpp — The routing-scheme interface.
//
// A Router answers "which minimal up/down route does the pair (s, d) take?".
// Oblivious schemes (Random, S-mod-k, D-mod-k, r-NCA-u, r-NCA-d) answer
// without looking at the communication pattern; the pattern-aware Colored
// baseline is constructed *from* a pattern and only answers for pairs that
// appear in it (it falls back to D-mod-k for strangers, mirroring how a
// pattern-aware scheme would leave default routes in place).
//
// In an XGFT a minimal route is fixed by the nearest common ancestor it
// climbs to, so a scheme states a route as an NCA *choice*: one of the
// pair's numNcas(s, d) ancestors, numbered like the topology's catalogue of
// ascents (xgft::Topology::ascent, xgft::routeViaNca order).  The schemes
// differ only in how they choose: Random hashes the pair, the relabel
// schemes read the guide endpoint's digits, Colored returns what its
// optimizer stored.  The route's up-ports are the catalogue slice of the
// choice, so nothing is built per pair, and the only check a choice needs
// is its range: ascentOf() is that check, and every consumer (table
// compile and patch, router-mode resolution, route()) goes through it.
//
// Choices are required to be deterministic: calling choice(s, d, level)
// twice returns the same value.  Randomized schemes derive their choices
// from an explicit seed.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace routing {

using xgft::NodeIndex;
using xgft::Route;
using xgft::Topology;

/// Which endpoint's label guides the ascent.
enum class Guide {
  Source,      ///< Unique path up per source (S-mod-k family).
  Destination  ///< Unique path down per destination (D-mod-k family).
};

/// Abstract routing scheme over a fixed topology.
class Router {
 public:
  explicit Router(const Topology& topo) : topo_(&topo) {}
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// The NCA the ordered pair (s, d) climbs to, in [0, numNcas(s, d)) —
  /// the index of its ascent among the topology's level-@p level ascents.
  /// @p level must be ncaLevel(s, d), which every caller already holds, so
  /// no scheme walks the labels again.  Must be deterministic; 0 for
  /// s == d.  Consumers read it through ascentOf(), which rejects a value
  /// out of range.
  [[nodiscard]] virtual xgft::Count choice(NodeIndex s, NodeIndex d,
                                           std::uint32_t level) const = 0;

  /// Short identifier used in reports ("s-mod-k", "r-NCA-u", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// The catalogue ascent of NCA choice @p c for the pair (s, d), whose NCA
  /// level is @p level: the one range check every consumer of a choice
  /// makes.  Throws std::invalid_argument naming this router and the pair
  /// unless c < ncaChoices(level).  The span lives as long as the topology.
  [[nodiscard]] std::span<const std::uint32_t> ascentOf(
      NodeIndex s, NodeIndex d, std::uint32_t level, xgft::Count c) const {
    // Checked where it is free; release builds trust the caller's level.
    assert(level == topo_->ncaLevel(s, d));
    if (c >= topo_->ncaChoices(level)) throwBadChoice(s, d, level, c);
    return topo_->ascent(level, c);
  }

  /// The minimal up/down route for the ordered pair (s, d): the ascent of
  /// its choice(), materialized for analysis-style callers.  s == d yields
  /// the empty route.
  [[nodiscard]] Route route(NodeIndex s, NodeIndex d) const {
    const std::uint32_t level = topo_->ncaLevel(s, d);
    const std::span<const std::uint32_t> up =
        ascentOf(s, d, level, choice(s, d, level));
    return Route{{up.begin(), up.end()}};
  }

  /// The endpoint whose label alone picks the up-ports, for self-routing
  /// schemes.  When set, choice(s, d, level) depends on the other endpoint
  /// only through the NCA level — the contract core::CompiledRoutes relies
  /// on to ask once per NCA-level run instead of once per pair.
  /// std::nullopt (the default) promises nothing.
  [[nodiscard]] virtual std::optional<Guide> ascentGuide() const {
    return std::nullopt;
  }

  /// True when the scheme ignores the communication pattern (Sec. I).
  [[nodiscard]] virtual bool isOblivious() const { return true; }

  [[nodiscard]] const Topology& topology() const { return *topo_; }

 protected:
  const Topology* topo_;

 private:
  [[noreturn]] void throwBadChoice(NodeIndex s, NodeIndex d,
                                   std::uint32_t level, xgft::Count c) const;
};

using RouterPtr = std::unique_ptr<Router>;

}  // namespace routing
