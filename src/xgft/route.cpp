#include "xgft/route.hpp"

#include <sstream>
#include <stdexcept>

namespace xgft {

NodeIndex ncaOf(const Topology& topo, NodeIndex s, const Route& r) {
  const std::uint32_t L = r.ncaLevel();
  if (L > topo.height()) {
    throw std::out_of_range("ncaOf: route longer than tree height");
  }
  NodeIndex node = s;
  for (std::uint32_t i = 0; i < L; ++i) {
    node = topo.parentIndex(i, node, r.up[i]);
  }
  return node;
}

Route routeViaNca(const Topology& topo, NodeIndex s, NodeIndex d,
                  Count choice) {
  const std::uint32_t L = topo.ncaLevel(s, d);
  if (choice >= topo.ncaChoices(L)) {
    throw std::out_of_range("routeViaNca: NCA choice out of range");
  }
  const std::span<const std::uint32_t> up = topo.ascent(L, choice);
  return Route{{up.begin(), up.end()}};
}

std::vector<Channel> channelsOf(const Topology& topo, NodeIndex s, NodeIndex d,
                                const Route& r) {
  return channelsOf(topo, s, d, std::span<const std::uint32_t>(r.up));
}

std::vector<Channel> channelsOf(const Topology& topo, NodeIndex s, NodeIndex d,
                                std::span<const std::uint32_t> up) {
  const auto L = static_cast<std::uint32_t>(up.size());
  std::vector<Channel> channels;
  channels.reserve(2 * static_cast<std::size_t>(L));
  // Ascent.
  NodeIndex node = s;
  for (std::uint32_t i = 0; i < L; ++i) {
    channels.push_back(Channel{topo.upLink(i, node, up[i]), true});
    node = topo.parentIndex(i, node, up[i]);
  }
  // Descent: at each level j the down-port is the destination's M_j digit.
  for (std::uint32_t j = L; j >= 1; --j) {
    const std::uint32_t port = topo.digit(0, d, j);
    channels.push_back(Channel{topo.downLink(j, node, port), false});
    node = topo.childIndex(j, node, port);
  }
  return channels;
}

std::vector<Hop> hopsOf(const Topology& topo, NodeIndex s, NodeIndex d,
                        const Route& r) {
  const std::uint32_t L = r.ncaLevel();
  std::vector<Hop> hops;
  if (L == 0) return hops;
  hops.reserve(2 * static_cast<std::size_t>(L));
  NodeIndex node = s;
  for (std::uint32_t i = 0; i < L; ++i) {
    // Host out-ports start at 0; switch up-ports start at m_l.
    const std::uint32_t outPort = topo.upPortBase(i) + r.up[i];
    hops.push_back(Hop{i, node, outPort});
    node = topo.parentIndex(i, node, r.up[i]);
  }
  for (std::uint32_t j = L; j >= 1; --j) {
    const std::uint32_t port = topo.digit(0, d, j);
    hops.push_back(Hop{j, node, port});
    node = topo.childIndex(j, node, port);
  }
  return hops;
}

bool validateRoute(const Topology& topo, NodeIndex s, NodeIndex d,
                   const Route& r, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      std::ostringstream os;
      os << "route " << s << " -> " << d << ": " << why;
      *error = os.str();
    }
    return false;
  };
  const std::uint32_t expected = topo.ncaLevel(s, d);
  if (r.ncaLevel() != expected) {
    return fail("length " + std::to_string(r.ncaLevel()) +
                " != NCA level " + std::to_string(expected));
  }
  for (std::uint32_t i = 0; i < r.ncaLevel(); ++i) {
    if (r.up[i] >= topo.params().w(i + 1)) {
      return fail("up-port " + std::to_string(r.up[i]) + " at level " +
                  std::to_string(i) + " out of range");
    }
  }
  // Walk the full path; the descent is forced, so this checks that the
  // ascent indeed reaches a common ancestor.
  NodeIndex node = s;
  for (std::uint32_t i = 0; i < r.ncaLevel(); ++i) {
    node = topo.parentIndex(i, node, r.up[i]);
  }
  for (std::uint32_t j = r.ncaLevel(); j >= 1; --j) {
    node = topo.childIndex(j, node, topo.digit(0, d, j));
  }
  if (node != d) {
    return fail("walk ended at leaf " + std::to_string(node));
  }
  return true;
}

}  // namespace xgft
