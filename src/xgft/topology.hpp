// topology.hpp — Concrete XGFT topology: node numbering, port-level
// adjacency, link identification and Nearest-Common-Ancestor algebra.
//
// The Topology class turns a Params description into an addressable network:
//
//  * Nodes.  Each node is addressed by (level, index) with a dense per-level
//    index; a flattened global id (hosts first, then switches level by level)
//    is provided for simulators that want flat arrays.
//
//  * Ports.  A switch at level l has m_l down-ports numbered [0, m_l) and
//    w_{l+1} up-ports numbered [m_l, m_l + w_{l+1}).  Down-port c of a
//    level-l switch leads to the child whose digit M_l equals c; up-port
//    m_l + p leads to parent number p (the child's digit W_{l+1} becomes p).
//    Hosts (level 0) have w_1 up-ports numbered [0, w_1).
//
//  * Links.  The bidirectional wire between a level-l node and one of its
//    parents is identified by LinkId; Channel = (LinkId, direction) names one
//    of its two unidirectional halves.  Analysis code accumulates loads per
//    Channel; the simulator maps Channels to queues.
//
//  * NCA catalogue.  A minimal route between two leaves is fixed by which of
//    their nearest common ancestors it climbs to (Sec. V): a level-L pair
//    has prod_{i<=L} w_i of them, and the route's ascent is that NCA's W
//    digits whatever the pair.  The topology builds every such ascent once,
//    per level, in NCA-choice order (choice c takes up-port
//    (c / prod_{j<=i} w_j) mod w_{i+1} at level i), so a route is named by
//    its choice and its up-ports are a slice of the catalogue: 21 words on
//    XGFT(2; 16,16; 1,10), 209 on xgft3:16:16:16:1:8:8.  The level-h part
//    holds h words per root, so the catalogue never outgrows the switches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "xgft/labels.hpp"
#include "xgft/params.hpp"

namespace xgft {

/// Dense identifier of a bidirectional link (wire) in the tree.
using LinkId = std::uint64_t;

/// Flattened global node id (hosts first, then switches level by level).
using GlobalNodeId = std::uint64_t;

/// One unidirectional half of a link.
struct Channel {
  LinkId link = 0;
  bool up = true;  ///< true: child -> parent direction.

  friend bool operator==(const Channel&, const Channel&) = default;
};

/// A (level, per-level index) node address.
struct NodeAddr {
  std::uint32_t level = 0;
  NodeIndex index = 0;

  friend bool operator==(const NodeAddr&, const NodeAddr&) = default;
};

/// Endpoints and placement of a link: the child side sits at `level`, the
/// parent side at `level + 1`; `parentPort` is the child's up-port number in
/// [0, w_{level+1}) and `childPort` the parent's down-port (the child's
/// M_{level+1} digit).
struct LinkInfo {
  std::uint32_t level = 0;  ///< Level of the lower (child) endpoint.
  NodeIndex child = 0;
  NodeIndex parent = 0;
  std::uint32_t parentPort = 0;  ///< Which of the child's parents.
  std::uint32_t childPort = 0;   ///< Which of the parent's children.
};

/// Concrete XGFT topology with precomputed strides for O(h) digit algebra.
class Topology {
 public:
  explicit Topology(Params params);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] std::uint32_t height() const { return params_.height(); }
  [[nodiscard]] Count numHosts() const { return nodesAt_[0]; }
  [[nodiscard]] Count nodesAtLevel(std::uint32_t l) const {
    return nodesAt_.at(l);
  }
  [[nodiscard]] Count numSwitches() const { return numSwitches_; }
  [[nodiscard]] Count numNodes() const { return numHosts() + numSwitches(); }
  [[nodiscard]] Count numLinks() const { return numLinks_; }

  // --- digit algebra -------------------------------------------------------

  /// Digit at position i (1-based) of the level-l node with index @p idx.
  [[nodiscard]] std::uint32_t digit(std::uint32_t level, NodeIndex idx,
                                    std::uint32_t i) const;

  /// Radix of digit position i at level l (w_i below/at the level, m_i above).
  [[nodiscard]] std::uint32_t radix(std::uint32_t level,
                                    std::uint32_t i) const {
    return i <= level ? params_.w(i) : params_.m(i);
  }

  // --- adjacency -----------------------------------------------------------

  /// Index (at level l+1) of parent number @p port of the level-l node @p idx.
  /// @p port must be in [0, w_{l+1}).
  [[nodiscard]] NodeIndex parentIndex(std::uint32_t level, NodeIndex idx,
                                      std::uint32_t port) const;

  /// Index (at level l-1) of the child of level-l node @p idx reached through
  /// down-port @p childPort (the child's M_l digit).  @p childPort in [0,m_l).
  [[nodiscard]] NodeIndex childIndex(std::uint32_t level, NodeIndex idx,
                                     std::uint32_t childPort) const;

  /// Up-port (i.e. W_{l} digit) by which the level-(l-1) node @p child hangs
  /// from its level-l parent: recovered from the child's own W_l... note the
  /// W digit lives on the *parent* label; this returns the down-port on the
  /// parent side instead: the child's M_l digit.
  [[nodiscard]] std::uint32_t downPortOf(std::uint32_t parentLevel,
                                         NodeIndex child) const {
    return digit(parentLevel - 1, child, parentLevel);
  }

  // --- link identification ---------------------------------------------------

  /// LinkId of the wire from level-l node @p child up to its parent number
  /// @p port.
  [[nodiscard]] LinkId upLink(std::uint32_t level, NodeIndex child,
                              std::uint32_t port) const;

  /// LinkId of the wire from level-l node @p parent down through its
  /// down-port @p childPort; identical wire as the child's corresponding
  /// up-link.
  [[nodiscard]] LinkId downLink(std::uint32_t level, NodeIndex parent,
                                std::uint32_t childPort) const;

  /// Decodes a LinkId back into its endpoints.
  [[nodiscard]] LinkInfo linkInfo(LinkId id) const;

  // --- NCA algebra -----------------------------------------------------------

  /// Hosts below one level-@p level node: prod_{j<=level} m_j (1 at level
  /// 0, numHosts() at the roots).
  [[nodiscard]] Count hostsBelow(std::uint32_t level) const {
    return hostsBelow_[level];
  }

  /// Level of the nearest common ancestors of two leaves: the highest digit
  /// position at which their labels differ (0 if s == d) — the lowest level
  /// whose switches hold both below them.
  [[nodiscard]] std::uint32_t ncaLevel(NodeIndex s, NodeIndex d) const {
    std::uint32_t level = params_.height();
    while (level > 0 &&
           s / hostsBelow_[level - 1] == d / hostsBelow_[level - 1]) {
      --level;
    }
    return level;
  }

  /// Number of distinct NCAs available to the pair (s, d):
  /// prod_{j=1..ncaLevel} w_j.
  [[nodiscard]] Count numNcas(NodeIndex s, NodeIndex d) const {
    return ncaChoices(ncaLevel(s, d));
  }

  /// NCA choices of a level-@p level pair: prod_{i<=level} w_i (1 at
  /// level 0).
  [[nodiscard]] Count ncaChoices(std::uint32_t level) const {
    return ncaChoices_[level];
  }

  /// The catalogue ascent of NCA choice @p choice at @p level: its @p level
  /// up-ports, up[i] taken at the level-i node.  Unchecked: @p choice must be
  /// below ncaChoices(level).  The words live as long as the topology, and
  /// two ascents are equal iff their slices are the same catalogue words.
  [[nodiscard]] std::span<const std::uint32_t> ascent(std::uint32_t level,
                                                      Count choice) const {
    return {catalogue_.data() + catalogueBase_[level] + choice * level,
            level};
  }

  /// The NCA choice whose ascent is @p ascent (its length is the level);
  /// the inverse of ascent().
  [[nodiscard]] Count choiceOf(std::span<const std::uint32_t> ascent) const {
    Count choice = 0;
    for (std::size_t i = 0; i < ascent.size(); ++i) {
      choice += ascent[i] * ncaChoices_[i];
    }
    return choice;
  }

  // --- global ids ------------------------------------------------------------

  [[nodiscard]] GlobalNodeId globalId(std::uint32_t level,
                                      NodeIndex idx) const {
    return globalOffset_.at(level) + idx;
  }
  [[nodiscard]] NodeAddr addrOf(GlobalNodeId id) const;

  /// Number of ports of the node at @p level: hosts have w_1 ports; a level-l
  /// switch has m_l + w_{l+1} ports (w_{h+1} taken as 0 for roots).
  [[nodiscard]] std::uint32_t numPorts(std::uint32_t level) const;

  /// First up-port number of a node at @p level (0 for hosts, m_l for
  /// switches).
  [[nodiscard]] std::uint32_t upPortBase(std::uint32_t level) const {
    return level == 0 ? 0u : params_.m(level);
  }

 private:
  Params params_;
  std::vector<Count> nodesAt_;       ///< nodesAt_[l], l in [0, h].
  std::vector<Count> globalOffset_;  ///< globalOffset_[l], l in [0, h].
  std::vector<LinkId> upLinkBase_;   ///< upLinkBase_[l], l in [0, h).
  std::vector<Count> hostsBelow_;    ///< prod_{j<=l} m_j, l in [0, h].
  std::vector<Count> ncaChoices_;    ///< prod_{i<=L} w_i, L in [0, h].
  std::vector<Count> catalogueBase_; ///< First word of level L's ascents.
  std::vector<std::uint32_t> catalogue_;  ///< Every ascent, level by level.
  Count numSwitches_ = 0;
  Count numLinks_ = 0;
};

}  // namespace xgft
