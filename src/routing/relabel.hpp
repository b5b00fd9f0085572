// relabel.hpp — The relabeling framework of Sec. VIII: the paper's proposed
// class of oblivious routing algorithms, of which S-mod-k and D-mod-k are
// the degenerate members.
//
// A minimal up/down route is fixed by the ascending parent choice at each
// level.  The "self-routing" schemes derive the choice at level l from digit
// M_l of one endpoint's Table-I label via a per-level map
//
//     W_{l+1} := DigitMap_l( M_l )  with  DigitMap_l : [0, m_l) -> [0, w_{l+1}).
//
// * DigitMap_l(v) = v mod w_{l+1}                   => S-mod-k / D-mod-k.
// * DigitMap_l = a *balanced random* surjection,
//   drawn independently for every subtree context
//   (the digits above position l of the guiding
//   endpoint)                                       => r-NCA-u / r-NCA-d.
//
// Balanced means every port receives either floor(m_l / w_{l+1}) or
// ceil(m_l / w_{l+1}) digit values, so routes spread as evenly over the NCAs
// as the mod rule — but *which* digits share a port is randomized per
// subtree, which breaks the congruence pathologies of Sec. VII-A (CG's
// Eq. (2) clashing with the modulo), while still concentrating endpoint
// contention exactly like S/D-mod-k.
//
// The guiding endpoint is the source (concentrate endpoint contention on the
// way up; "-u") or the destination (on the way down; "-d").
//
// Level 0 (hosts) has w_1 parallel uplinks; the paper's topologies all have
// w_1 = 1 (footnote 5).  For generality we route level 0 by applying the
// same framework to digit M_1 with port radix w_1 — when w_1 = 1 this
// degenerates to the paper's behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/router.hpp"
#include "xgft/labels.hpp"

namespace routing {

[[nodiscard]] std::string toString(Guide g);

/// A full set of per-level, per-subtree digit maps.
///
/// For each level l in [0, h) the scheme stores, for every subtree context
/// (the guiding leaf's digits strictly above position max(l, 1)), a table
/// mapping digit M_{max(l,1)} to an up-port in [0, w_{l+1}).
class RelabelScheme {
 public:
  /// The modulo maps: DigitMap_l(v) = v mod w_{l+1}, identical in every
  /// context.  Yields S-mod-k / D-mod-k.
  [[nodiscard]] static RelabelScheme mod(const Topology& topo);

  /// Independent balanced random surjections per (level, context), derived
  /// deterministically from @p seed.  Yields r-NCA-u / r-NCA-d.
  [[nodiscard]] static RelabelScheme balancedRandom(const Topology& topo,
                                                    std::uint64_t seed);

  /// User-supplied tables: tables[l] must have contextCount(l) * digitRadix(l)
  /// entries laid out as [context][digit], each value < w_{l+1}.  This is the
  /// extension point for further members of the class of algorithms the
  /// paper proposes.
  [[nodiscard]] static RelabelScheme fromTables(
      const Topology& topo, std::vector<std::vector<std::uint32_t>> tables);

  /// Up-port for the level-l ascent step given the guiding leaf.
  [[nodiscard]] std::uint32_t port(std::uint32_t level,
                                   xgft::NodeIndex guideLeaf) const;

  /// The NCA choice of the length-@p level ascent the guiding leaf's digits
  /// pick: port(i, guideLeaf) at every level i < @p level, encoded in
  /// Topology::ascent order.
  [[nodiscard]] xgft::Count choice(std::uint32_t level,
                                   xgft::NodeIndex guideLeaf) const;

  /// The digit position consulted at level l: max(l, 1).
  [[nodiscard]] static std::uint32_t digitPosition(std::uint32_t level) {
    return level == 0 ? 1u : level;
  }

  /// Number of distinct subtree contexts at level l:
  /// prod_{j > digitPosition(l)} m_j.
  [[nodiscard]] std::uint64_t contextCount(std::uint32_t level) const;

  /// Radix of the digit consulted at level l (m_{digitPosition(l)}).
  [[nodiscard]] std::uint32_t digitRadix(std::uint32_t level) const;

  /// True iff every (level, context) map is balanced: port preimage sizes
  /// differ by at most one.  The mod and balancedRandom constructions both
  /// satisfy this; fromTables need not.
  [[nodiscard]] bool isBalanced() const;

  [[nodiscard]] const Topology& topology() const { return *topo_; }

 private:
  explicit RelabelScheme(const Topology& topo) : topo_(&topo) {}

  void buildGeometry();

  const Topology* topo_;
  // tables_[l][context * digitRadix(l) + digit] = port.
  std::vector<std::vector<std::uint32_t>> tables_;
  std::vector<std::uint64_t> contextCount_;
  std::vector<std::uint32_t> digitRadix_;
  std::vector<std::uint32_t> portRadix_;
};

/// The generalized self-routing router: ascends by consulting the relabel
/// scheme on the guiding endpoint's digits; descends (as always) along the
/// destination's digits.  A choice depends only on the guide leaf and the
/// NCA level, so the router holds every guide leaf's choice for every level
/// — n * (h + 1) u32, 64 KiB at 4096 hosts — and answers a pair with one
/// load.
class RelabelRouter final : public Router {
 public:
  RelabelRouter(const Topology& topo, RelabelScheme scheme, Guide guide,
                std::string name);

  /// scheme().choice(level, guide leaf), read from the array.
  [[nodiscard]] xgft::Count choice(NodeIndex s, NodeIndex d,
                                   std::uint32_t level) const override {
    const NodeIndex leaf = guide_ == Guide::Source ? s : d;
    return choices_[leaf * levels_ + level];
  }
  [[nodiscard]] std::string name() const override { return name_; }
  /// choice() reads only the guide leaf's digits and the NCA level.
  [[nodiscard]] std::optional<Guide> ascentGuide() const override {
    return guide_;
  }

  [[nodiscard]] Guide guide() const { return guide_; }
  [[nodiscard]] const RelabelScheme& scheme() const { return scheme_; }

 private:
  RelabelScheme scheme_;
  Guide guide_;
  std::string name_;
  std::uint32_t levels_ = 0;  ///< h + 1: NCA levels 0..h.
  /// choices_[leaf * levels_ + L] = scheme_.choice(L, leaf).
  std::vector<std::uint32_t> choices_;
};

/// S-mod-k: source-guided modulo maps (Leiserson's self-routing default).
[[nodiscard]] RouterPtr makeSModK(const Topology& topo);

/// D-mod-k: destination-guided modulo maps.
[[nodiscard]] RouterPtr makeDModK(const Topology& topo);

/// r-NCA-u ("Random NCA Up"): source-guided balanced random maps.
[[nodiscard]] RouterPtr makeRNcaUp(const Topology& topo, std::uint64_t seed);

/// r-NCA-d ("Random NCA Down"): destination-guided balanced random maps.
[[nodiscard]] RouterPtr makeRNcaDown(const Topology& topo, std::uint64_t seed);

}  // namespace routing
