#include "routing/relabel.hpp"

#include <stdexcept>

#include "xgft/rng.hpp"

namespace routing {

std::string toString(Guide g) {
  return g == Guide::Source ? "source" : "destination";
}

void RelabelScheme::buildGeometry() {
  const xgft::Params& p = topo_->params();
  const std::uint32_t h = p.height();
  contextCount_.resize(h);
  digitRadix_.resize(h);
  portRadix_.resize(h);
  for (std::uint32_t l = 0; l < h; ++l) {
    const std::uint32_t pos = digitPosition(l);
    digitRadix_[l] = p.m(pos);
    portRadix_[l] = p.w(l + 1);
    std::uint64_t ctx = 1;
    for (std::uint32_t j = pos + 1; j <= h; ++j) ctx *= p.m(j);
    contextCount_[l] = ctx;
  }
}

RelabelScheme RelabelScheme::mod(const Topology& topo) {
  RelabelScheme s(topo);
  s.buildGeometry();
  const std::uint32_t h = topo.height();
  s.tables_.resize(h);
  for (std::uint32_t l = 0; l < h; ++l) {
    std::vector<std::uint32_t> table(s.contextCount_[l] * s.digitRadix_[l]);
    for (std::uint64_t c = 0; c < s.contextCount_[l]; ++c) {
      for (std::uint32_t v = 0; v < s.digitRadix_[l]; ++v) {
        table[c * s.digitRadix_[l] + v] = v % s.portRadix_[l];
      }
    }
    s.tables_[l] = std::move(table);
  }
  return s;
}

RelabelScheme RelabelScheme::balancedRandom(const Topology& topo,
                                            std::uint64_t seed) {
  RelabelScheme s(topo);
  s.buildGeometry();
  const std::uint32_t h = topo.height();
  s.tables_.resize(h);
  for (std::uint32_t l = 0; l < h; ++l) {
    const std::uint32_t m = s.digitRadix_[l];
    const std::uint32_t w = s.portRadix_[l];
    std::vector<std::uint32_t> table(s.contextCount_[l] * m);
    for (std::uint64_t c = 0; c < s.contextCount_[l]; ++c) {
      xgft::Rng rng(xgft::hashMix(seed, l, c));
      // Balanced pool: each port appears floor(m/w) or ceil(m/w) times; a
      // random rotation decides which ports carry the extra digit, and a
      // shuffle randomizes which digits land on which port.
      std::vector<std::uint32_t> pool(m);
      const std::uint32_t offset = static_cast<std::uint32_t>(rng.below(w));
      for (std::uint32_t v = 0; v < m; ++v) pool[v] = (v + offset) % w;
      rng.shuffle(pool);
      for (std::uint32_t v = 0; v < m; ++v) table[c * m + v] = pool[v];
    }
    s.tables_[l] = std::move(table);
  }
  return s;
}

RelabelScheme RelabelScheme::fromTables(
    const Topology& topo, std::vector<std::vector<std::uint32_t>> tables) {
  RelabelScheme s(topo);
  s.buildGeometry();
  const std::uint32_t h = topo.height();
  if (tables.size() != h) {
    throw std::invalid_argument("fromTables: need one table per level");
  }
  for (std::uint32_t l = 0; l < h; ++l) {
    if (tables[l].size() != s.contextCount_[l] * s.digitRadix_[l]) {
      throw std::invalid_argument("fromTables: table size mismatch at level " +
                                  std::to_string(l));
    }
    for (const std::uint32_t port : tables[l]) {
      if (port >= s.portRadix_[l]) {
        throw std::invalid_argument("fromTables: port out of range at level " +
                                    std::to_string(l));
      }
    }
  }
  s.tables_ = std::move(tables);
  return s;
}

std::uint32_t RelabelScheme::port(std::uint32_t level,
                                  xgft::NodeIndex guideLeaf) const {
  const xgft::Params& p = topo_->params();
  const std::uint32_t pos = digitPosition(level);
  xgft::NodeIndex rest = guideLeaf;
  for (std::uint32_t j = 1; j < pos; ++j) rest /= p.m(j);
  const std::uint32_t digit = static_cast<std::uint32_t>(rest % p.m(pos));
  const std::uint64_t context = rest / p.m(pos);
  return tables_[level][context * digitRadix_[level] + digit];
}

xgft::Count RelabelScheme::choice(std::uint32_t level,
                                  xgft::NodeIndex guideLeaf) const {
  xgft::Count c = 0;
  for (std::uint32_t i = 0; i < level; ++i) {
    c += port(i, guideLeaf) * topo_->ncaChoices(i);
  }
  return c;
}

std::uint64_t RelabelScheme::contextCount(std::uint32_t level) const {
  return contextCount_.at(level);
}

std::uint32_t RelabelScheme::digitRadix(std::uint32_t level) const {
  return digitRadix_.at(level);
}

bool RelabelScheme::isBalanced() const {
  for (std::uint32_t l = 0; l < tables_.size(); ++l) {
    const std::uint32_t m = digitRadix_[l];
    const std::uint32_t w = portRadix_[l];
    for (std::uint64_t c = 0; c < contextCount_[l]; ++c) {
      std::vector<std::uint32_t> count(w, 0);
      for (std::uint32_t v = 0; v < m; ++v) {
        ++count[tables_[l][c * m + v]];
      }
      std::uint32_t lo = count[0];
      std::uint32_t hi = count[0];
      for (const std::uint32_t k : count) {
        lo = std::min(lo, k);
        hi = std::max(hi, k);
      }
      if (hi - lo > 1) return false;
    }
  }
  return true;
}

RelabelRouter::RelabelRouter(const Topology& topo, RelabelScheme scheme,
                             Guide guide, std::string name)
    : Router(topo),
      scheme_(std::move(scheme)),
      guide_(guide),
      name_(std::move(name)),
      levels_(topo.height() + 1),
      choices_(topo.numHosts() * levels_, 0) {
  // Level by level: the length-(L + 1) ascent extends the length-L one by
  // port(L), which adds port(L) * ncaChoices(L) to its choice.
  for (NodeIndex leaf = 0; leaf < topo.numHosts(); ++leaf) {
    std::uint32_t* row = choices_.data() + leaf * levels_;
    for (std::uint32_t l = 0; l + 1 < levels_; ++l) {
      row[l + 1] = row[l] + static_cast<std::uint32_t>(
                                scheme_.port(l, leaf) * topo.ncaChoices(l));
    }
  }
}

RouterPtr makeSModK(const Topology& topo) {
  return std::make_unique<RelabelRouter>(topo, RelabelScheme::mod(topo),
                                         Guide::Source, "s-mod-k");
}

RouterPtr makeDModK(const Topology& topo) {
  return std::make_unique<RelabelRouter>(topo, RelabelScheme::mod(topo),
                                         Guide::Destination, "d-mod-k");
}

RouterPtr makeRNcaUp(const Topology& topo, std::uint64_t seed) {
  return std::make_unique<RelabelRouter>(
      topo, RelabelScheme::balancedRandom(topo, seed), Guide::Source,
      "r-NCA-u");
}

RouterPtr makeRNcaDown(const Topology& topo, std::uint64_t seed) {
  return std::make_unique<RelabelRouter>(
      topo, RelabelScheme::balancedRandom(topo, seed), Guide::Destination,
      "r-NCA-d");
}

}  // namespace routing
