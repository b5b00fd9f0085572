// router.hpp — The routing-scheme interface.
//
// A Router answers "which minimal up/down route does the pair (s, d) take?".
// Oblivious schemes (Random, S-mod-k, D-mod-k, r-NCA-u, r-NCA-d) answer
// without looking at the communication pattern; the pattern-aware Colored
// baseline is constructed *from* a pattern and only answers for pairs that
// appear in it (it falls back to D-mod-k for strangers, mirroring how a
// pattern-aware scheme would leave default routes in place).
//
// Routes are computed on demand and are required to be deterministic:
// calling route(s, d) twice returns the same route.  Randomized schemes
// derive their choices from an explicit seed.
#pragma once

#include <memory>
#include <optional>
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

  /// The minimal up/down route for the ordered pair (s, d).  Must be
  /// deterministic.  s == d yields the empty route.
  [[nodiscard]] virtual Route route(NodeIndex s, NodeIndex d) const = 0;

  /// Short identifier used in reports ("s-mod-k", "r-NCA-u", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// The endpoint whose label alone picks the up-ports, for self-routing
  /// schemes.  When set, route(s, d) depends on the other endpoint only
  /// through ncaLevel(s, d) — the contract core::CompiledRoutes relies on
  /// to compile one route per NCA-level run instead of one per pair.
  /// std::nullopt (the default) promises nothing.
  [[nodiscard]] virtual std::optional<Guide> ascentGuide() const {
    return std::nullopt;
  }

  /// True when the scheme ignores the communication pattern (Sec. I).
  [[nodiscard]] virtual bool isOblivious() const { return true; }

  [[nodiscard]] const Topology& topology() const { return *topo_; }

 protected:
  const Topology* topo_;
};

using RouterPtr = std::unique_ptr<Router>;

}  // namespace routing
