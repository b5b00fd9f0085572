#include "fault/degraded.hpp"

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

namespace fault {

namespace {

/// A CleanAscentMask hoisted into whole words, host by host: host x's words
/// are words[x * perHost, (x + 1) * perHost), and its row at level L takes
/// words [off[L], off[L + 1]) of them — one word unless the level has more
/// than 64 NCA choices.  Word 0 is level 0's row and stays zero, so an
/// entry without a route never tests clean.  A pair's choice is then
/// tested with one AND of its endpoints' words instead of two unaligned bit
/// reads.
struct CleanRows {
  std::vector<std::uint64_t> off;  ///< h + 2 entries; off[h + 1] = perHost.
  std::vector<std::uint64_t> words;

  CleanRows(const CleanAscentMask& mask, const xgft::Topology& topo) {
    const std::uint32_t h = topo.height();
    off.assign(h + 2, 1);
    off[0] = 0;
    for (std::uint32_t L = 1; L <= h; ++L) {
      off[L + 1] = off[L] + (topo.ncaChoices(L) + 63) / 64;
    }
    const std::uint64_t perHost = off[h + 1];
    words.assign(topo.numHosts() * perHost, 0);
    for (xgft::NodeIndex x = 0; x < topo.numHosts(); ++x) {
      for (std::uint32_t L = 1; L <= h; ++L) {
        for (std::uint64_t k = 0; k < off[L + 1] - off[L]; ++k) {
          words[x * perHost + off[L] + k] = mask.rowWord(x, L, k);
        }
      }
    }
  }
};

}  // namespace

DegradedTopology::DegradedTopology(const xgft::Topology& topo,
                                   std::span<const xgft::LinkId> failedLinks)
    : topo_(&topo), failed_(topo.numLinks(), 0) {
  for (const xgft::LinkId link : failedLinks) {
    if (link >= topo.numLinks()) {
      throw std::invalid_argument(
          "DegradedTopology: link " + std::to_string(link) +
          " out of range (topology has " + std::to_string(topo.numLinks()) +
          " links)");
    }
    if (failed_[link] == 0) {
      failed_[link] = 1;
      ++numFailed_;
    }
  }
}

bool DegradedTopology::routeBlocked(xgft::NodeIndex s, xgft::NodeIndex d,
                                    const xgft::Route& r) const {
  if (numFailed_ == 0) return false;
  for (const xgft::Channel& ch : xgft::channelsOf(*topo_, s, d, r)) {
    if (failed_[ch.link] != 0) return true;
  }
  return false;
}

CleanAscentMask::CleanAscentMask(const DegradedTopology& degraded) {
  const xgft::Topology& topo = degraded.base();
  const std::uint32_t h = topo.height();
  const xgft::Count n = topo.numHosts();
  choices_.assign(h + 1, 1);
  levelBase_.assign(h + 1, 0);
  std::uint64_t total = 0;
  for (std::uint32_t L = 1; L <= h; ++L) {
    choices_[L] = topo.ncaChoices(L);
    levelBase_[L] = total;
    total += n * choices_[L];
  }
  const std::uint64_t numWords = (total + 63) / 64;
  if (degraded.numFailed() == 0) {
    words_.assign(numWords, ~std::uint64_t{0});
    return;
  }
  words_.assign(numWords, 0);

  // Choice c at level L is choice c % choices_[L-1] below plus port
  // c / choices_[L-1] taken at level L - 1.  The level-(L-1) nodes a host's
  // ascents reach, and so the links they take up to level L, depend only on
  // the host's level-(L-1) subtree: each subtree's links are tested once,
  // and each host ANDs that with its own level-(L-1) row.
  std::vector<xgft::NodeIndex> below;  // Level-(L-1) node of each choice.
  std::vector<xgft::NodeIndex> above;
  std::vector<std::uint8_t> upClean;  // Link of choice c at level L is up.
  for (std::uint32_t L = 1; L <= h; ++L) {
    const xgft::Count lower = choices_[L - 1];
    const std::uint32_t ports = topo.params().w(L);
    const xgft::Count subtree = topo.hostsBelow(L - 1);
    upClean.resize(choices_[L]);
    for (xgft::NodeIndex first = 0; first < n; first += subtree) {
      below.assign(1, first);
      for (std::uint32_t l = 1; l < L; ++l) {
        above.resize(choices_[l]);
        for (xgft::Count c = 0; c < choices_[l]; ++c) {
          above[c] = topo.parentIndex(
              l - 1, below[c % choices_[l - 1]],
              static_cast<std::uint32_t>(c / choices_[l - 1]));
        }
        below.swap(above);
      }
      for (std::uint32_t port = 0; port < ports; ++port) {
        for (xgft::Count low = 0; low < lower; ++low) {
          const xgft::LinkId link = topo.upLink(L - 1, below[low], port);
          upClean[port * lower + low] = degraded.linkFailed(link) ? 0 : 1;
        }
      }
      for (xgft::NodeIndex x = first; x < first + subtree; ++x) {
        for (std::uint32_t port = 0; port < ports; ++port) {
          for (xgft::Count low = 0; low < lower; ++low) {
            const xgft::Count c = port * lower + low;
            if (upClean[c] != 0 && (L == 1 || clean(x, L - 1, low))) {
              const std::uint64_t i = offset(x, L) + c;
              words_[i / 64] |= std::uint64_t{1} << (i % 64);
            }
          }
        }
      }
    }
  }
}

std::uint64_t CleanAscentMask::rowWord(xgft::NodeIndex x, std::uint32_t level,
                                       xgft::Count k) const {
  const std::uint64_t i = offset(x, level) + 64 * k;
  const std::uint64_t word = i / 64;
  const std::uint64_t shift = i % 64;
  std::uint64_t bits = words_[word] >> shift;
  if (shift != 0 && word + 1 < words_.size()) {
    bits |= words_[word + 1] << (64 - shift);
  }
  const xgft::Count left = choices_[level] - 64 * k;
  if (left < 64) bits &= (std::uint64_t{1} << left) - 1;
  return bits;
}

DegradedRoutes compileDegraded(
    const std::shared_ptr<const core::CompiledRoutes>& healthy,
    const DegradedTopology& degraded, UnreachablePolicy policy,
    std::uint32_t threads) {
  if (!healthy) {
    throw std::invalid_argument("compileDegraded: null healthy table");
  }
  const xgft::Topology& topo = healthy->topology();
  if (&topo != &degraded.base()) {
    throw std::invalid_argument(
        "compileDegraded: table and degraded view disagree on the topology");
  }

  const CleanRows rows(CleanAscentMask(degraded), topo);
  // A pair keeps its ascent when that is clean from both ends — one AND of
  // their words, without branches; otherwise it takes the lowest choice
  // clean from both, or none (unreachable).  Unreachable pairs are
  // collected, never thrown from a worker, so the kThrow error below names
  // the same pair for any thread count.  Both callables capture the rows'
  // pointers by value, so the walk can keep them in registers.
  const std::uint64_t* words = rows.words.data();
  const std::uint64_t* off = rows.off.data();
  const std::uint64_t perHost = rows.off.back();
  const auto keeps = [words, off, perHost](xgft::NodeIndex s,
                                           xgft::NodeIndex d,
                                           core::CompiledRoutes::Entry stored) {
    const std::uint64_t i = off[stored.level] + stored.choice / 64;
    const std::uint64_t both = words[s * perHost + i] & words[d * perHost + i];
    return ((both >> (stored.choice % 64)) & 1) != 0;
  };
  const auto rewrite = [words, off, perHost, &topo](
                           xgft::NodeIndex s, xgft::NodeIndex d,
                           core::CompiledRoutes::Entry stored) -> xgft::Count {
    // A routed entry's level is the pair's NCA level.
    std::uint32_t level = stored.level;
    if (level == 0) [[unlikely]] level = topo.ncaLevel(s, d);
    for (std::uint64_t i = off[level]; i < off[level + 1]; ++i) {
      const std::uint64_t both =
          words[s * perHost + i] & words[d * perHost + i];
      if (both != 0) return (i - off[level]) * 64 + std::countr_zero(both);
    }
    return core::CompiledRoutes::kUnroutable;
  };

  DegradedRoutes out;
  out.table = healthy->patched(keeps, rewrite, threads, &out.unreachable);
  if (policy == UnreachablePolicy::kThrow && !out.unreachable.empty()) {
    const auto [s, d] = out.unreachable.front();
    throw std::invalid_argument(
        "compileDegraded(" + healthy->router().name() + "): pair " +
        std::to_string(s) + " -> " + std::to_string(d) +
        " is unreachable on the degraded topology (" +
        std::to_string(degraded.numFailed()) + " links failed)");
  }
  return out;
}

const core::SchemeInfo& requireDegradable(const std::string& routing) {
  return core::requireTableScheme(
      routing,
      "cannot run on a degraded topology: per-segment port selection "
      "(adaptive/spray) honours faults via the fault policy, not table "
      "recompilation",
      "degradable");
}

}  // namespace fault
