#include "xgft/topology.hpp"

#include <stdexcept>
#include <string>

namespace xgft {

Topology::Topology(Params params) : params_(std::move(params)) {
  const std::uint32_t h = params_.height();
  nodesAt_.resize(h + 1);
  globalOffset_.resize(h + 1);
  upLinkBase_.resize(h);
  for (std::uint32_t l = 0; l <= h; ++l) {
    nodesAt_[l] = params_.nodesAtLevel(l);
  }
  globalOffset_[0] = 0;
  for (std::uint32_t l = 1; l <= h; ++l) {
    globalOffset_[l] = globalOffset_[l - 1] + nodesAt_[l - 1];
  }
  numSwitches_ = 0;
  for (std::uint32_t l = 1; l <= h; ++l) numSwitches_ += nodesAt_[l];
  LinkId base = 0;
  for (std::uint32_t l = 0; l < h; ++l) {
    upLinkBase_[l] = base;
    base += nodesAt_[l] * params_.w(l + 1);
  }
  numLinks_ = base;
  hostsBelow_.assign(h + 1, 1);
  for (std::uint32_t l = 1; l <= h; ++l) {
    hostsBelow_[l] = hostsBelow_[l - 1] * params_.m(l);
  }

  // The NCA catalogue: level L lists its prod_{i<=L} w_i ascents, choice by
  // choice, the lowest level's up-port varying fastest.  Level L has
  // nodesAt_[L] >= ncaChoices_[L] switches, so it takes at most L words per
  // level-L switch; a tree past kMaxCatalogueWords could not be simulated
  // anyway, and is refused before anything is allocated.
  constexpr Count kMaxCatalogueWords = Count{1} << 26;
  ncaChoices_.assign(h + 1, 1);
  catalogueBase_.assign(h + 1, 0);
  Count words = 0;
  for (std::uint32_t L = 1; L <= h; ++L) {
    ncaChoices_[L] = ncaChoices_[L - 1] * params_.w(L);
    catalogueBase_[L] = words;
    if (ncaChoices_[L] > (kMaxCatalogueWords - words) / L) {
      throw std::invalid_argument(
          "XGFT too large: more than " + std::to_string(kMaxCatalogueWords) +
          " words of NCA ascents (" + params_.toString() + ")");
    }
    words += ncaChoices_[L] * L;
  }
  catalogue_.reserve(words);
  for (std::uint32_t L = 1; L <= h; ++L) {
    for (Count c = 0; c < ncaChoices_[L]; ++c) {
      Count rest = c;
      for (std::uint32_t i = 1; i <= L; ++i) {
        catalogue_.push_back(static_cast<std::uint32_t>(rest % params_.w(i)));
        rest /= params_.w(i);
      }
    }
  }
}

std::uint32_t Topology::digit(std::uint32_t level, NodeIndex idx,
                              std::uint32_t i) const {
  NodeIndex rest = idx;
  for (std::uint32_t j = 1; j < i; ++j) rest /= radix(level, j);
  return static_cast<std::uint32_t>(rest % radix(level, i));
}

NodeIndex Topology::parentIndex(std::uint32_t level, NodeIndex idx,
                                std::uint32_t port) const {
  const std::uint32_t h = params_.height();
  if (level >= h) throw std::out_of_range("parentIndex: node has no parents");
  if (port >= params_.w(level + 1)) {
    throw std::out_of_range("parentIndex: parent port out of range");
  }
  // Decode with level-l radices, substitute digit (level+1) <- port, encode
  // with level-(l+1) radices.  Digits 1..level keep their W radices, digits
  // level+2..h keep their M radices, so only the strides around position
  // level+1 change; we re-encode from scratch for clarity (h is tiny).
  NodeIndex rest = idx;
  NodeIndex result = 0;
  Count stride = 1;
  for (std::uint32_t i = 1; i <= h; ++i) {
    const std::uint32_t rOld = radix(level, i);
    const std::uint32_t dOld = static_cast<std::uint32_t>(rest % rOld);
    rest /= rOld;
    const std::uint32_t rNew = radix(level + 1, i);
    const std::uint32_t dNew = (i == level + 1) ? port : dOld;
    result += static_cast<Count>(dNew) * stride;
    stride *= rNew;
  }
  return result;
}

NodeIndex Topology::childIndex(std::uint32_t level, NodeIndex idx,
                               std::uint32_t childPort) const {
  if (level == 0) throw std::out_of_range("childIndex: hosts have no children");
  if (childPort >= params_.m(level)) {
    throw std::out_of_range("childIndex: down port out of range");
  }
  const std::uint32_t h = params_.height();
  NodeIndex rest = idx;
  NodeIndex result = 0;
  Count stride = 1;
  for (std::uint32_t i = 1; i <= h; ++i) {
    const std::uint32_t rOld = radix(level, i);
    const std::uint32_t dOld = static_cast<std::uint32_t>(rest % rOld);
    rest /= rOld;
    const std::uint32_t rNew = radix(level - 1, i);
    const std::uint32_t dNew = (i == level) ? childPort : dOld;
    result += static_cast<Count>(dNew) * stride;
    stride *= rNew;
  }
  return result;
}

LinkId Topology::upLink(std::uint32_t level, NodeIndex child,
                        std::uint32_t port) const {
  if (level >= params_.height()) {
    throw std::out_of_range("upLink: no links above the root level");
  }
  if (port >= params_.w(level + 1)) {
    throw std::out_of_range("upLink: port out of range");
  }
  return upLinkBase_[level] + child * params_.w(level + 1) + port;
}

LinkId Topology::downLink(std::uint32_t level, NodeIndex parent,
                          std::uint32_t childPort) const {
  if (level == 0) throw std::out_of_range("downLink: hosts have no children");
  const NodeIndex child = childIndex(level, parent, childPort);
  // Which of the child's up-ports leads back to this parent: the parent's
  // own W_level digit.
  const std::uint32_t port = digit(level, parent, level);
  return upLink(level - 1, child, port);
}

LinkInfo Topology::linkInfo(LinkId id) const {
  const std::uint32_t h = params_.height();
  for (std::uint32_t l = 0; l < h; ++l) {
    const LinkId next =
        (l + 1 < h) ? upLinkBase_[l + 1] : numLinks_;
    if (id < next) {
      const LinkId local = id - upLinkBase_[l];
      LinkInfo info;
      info.level = l;
      info.child = local / params_.w(l + 1);
      info.parentPort = static_cast<std::uint32_t>(local % params_.w(l + 1));
      info.parent = parentIndex(l, info.child, info.parentPort);
      info.childPort = digit(l, info.child, l + 1);
      return info;
    }
  }
  throw std::out_of_range("linkInfo: link id out of range");
}

NodeAddr Topology::addrOf(GlobalNodeId id) const {
  for (std::uint32_t l = 0; l <= params_.height(); ++l) {
    if (id < globalOffset_[l] + nodesAt_[l]) {
      return NodeAddr{l, id - globalOffset_[l]};
    }
  }
  throw std::out_of_range("addrOf: global node id out of range");
}

std::uint32_t Topology::numPorts(std::uint32_t level) const {
  const std::uint32_t h = params_.height();
  if (level == 0) return params_.w(1);
  const std::uint32_t up = level < h ? params_.w(level + 1) : 0;
  return params_.m(level) + up;
}

}  // namespace xgft
