// route.hpp — Minimal up/down routes in an XGFT (Sec. V of the paper).
//
// A minimal deadlock-free path between two leaves ascends to one of their
// Nearest Common Ancestors and descends along the unique downward path to
// the destination.  The only freedom is the ascent: at each level i the
// message picks one of w_{i+1} parents.  A Route therefore stores just the
// ascending port choices; everything else (the descent, the links used, the
// NCA reached) is derived.
//
// A route r = <r_0, ..., r_{L-1}> with r_i in [0, w_{i+1}) reaches the NCA
// whose W digits are exactly (r_0, ..., r_{L-1}); the route <-> NCA
// correspondence is a bijection for a fixed (s, d) pair.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "xgft/topology.hpp"

namespace xgft {

/// Ascending parent-port choices; up[i] is taken at the level-i node.
/// Empty route means s == d (delivered locally, no network traversal).
struct Route {
  std::vector<std::uint32_t> up;

  [[nodiscard]] std::uint32_t ncaLevel() const {
    return static_cast<std::uint32_t>(up.size());
  }
  friend bool operator==(const Route&, const Route&) = default;
};

/// One traversal step for simulators doing source routing: the node being
/// exited and the output port taken (host ports / switch port numbering as
/// defined in Topology).
struct Hop {
  std::uint32_t level = 0;
  NodeIndex node = 0;
  std::uint32_t outPort = 0;
};

/// Index of the level-L NCA that route @p r reaches from leaf @p s.
/// L = r.ncaLevel() and must not exceed the tree height.
[[nodiscard]] NodeIndex ncaOf(const Topology& topo, NodeIndex s,
                              const Route& r);

/// Builds the route from @p s to @p d that ascends to NCA number @p choice,
/// where @p choice enumerates the numNcas(s, d) available ancestors in
/// mixed-radix (w_1, ..., w_L) order: choice == 0 picks parent 0 at every
/// level; successive choices vary the lowest-level parent fastest.  The
/// up-ports are Topology::ascent(L, choice); throws std::out_of_range for a
/// choice past numNcas(s, d).
[[nodiscard]] Route routeViaNca(const Topology& topo, NodeIndex s, NodeIndex d,
                                Count choice);

/// The unidirectional channels traversed by route @p r from @p s to @p d:
/// first the ascending channels (in order), then the descending ones.
[[nodiscard]] std::vector<Channel> channelsOf(const Topology& topo,
                                              NodeIndex s, NodeIndex d,
                                              const Route& r);
/// The same for the route whose ascent is @p up (a catalogue slice).
[[nodiscard]] std::vector<Channel> channelsOf(
    const Topology& topo, NodeIndex s, NodeIndex d,
    std::span<const std::uint32_t> up);

/// The full hop-by-hop traversal (source host first, then every switch with
/// the output port taken).  Empty when s == d.
[[nodiscard]] std::vector<Hop> hopsOf(const Topology& topo, NodeIndex s,
                                      NodeIndex d, const Route& r);

/// Checks that @p r is a well-formed minimal up/down route for (s, d):
/// correct length (== ncaLevel(s, d)), each port in range, and the walk
/// up-then-down lands exactly on @p d.  On failure returns false and, if
/// @p error is non-null, stores a human-readable reason.
[[nodiscard]] bool validateRoute(const Topology& topo, NodeIndex s,
                                 NodeIndex d, const Route& r,
                                 std::string* error = nullptr);

}  // namespace xgft
