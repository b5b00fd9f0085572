#include "fault/degraded.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"

namespace fault {

namespace {

/// Unreachable pairs reported by the patch workers.  Guarded: workers for
/// different rows or columns may discover unreachable pairs concurrently.
struct UnreachableSink {
  core::Mutex mu;
  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> pairs
      XGFT_GUARDED_BY(mu);

  void add(xgft::NodeIndex s, xgft::NodeIndex d) {
    core::LockGuard lock(mu);
    pairs.emplace_back(s, d);
  }
  [[nodiscard]] std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>>
  takeSorted() {
    core::LockGuard lock(mu);
    std::sort(pairs.begin(), pairs.end());
    return std::move(pairs);
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

  // Per host, extend every clean level-(L-1) ascent by each up-port: choice
  // c at level L is choice c % choices_[L-1] below plus port
  // c / choices_[L-1] taken at level L - 1.
  std::vector<xgft::NodeIndex> below;  // Level-(L-1) node of each choice.
  std::vector<xgft::NodeIndex> above;
  for (xgft::NodeIndex x = 0; x < n; ++x) {
    below.assign(1, x);
    for (std::uint32_t L = 1; L <= h; ++L) {
      const xgft::Count lower = choices_[L - 1];
      above.resize(choices_[L]);
      for (xgft::Count c = 0; c < choices_[L]; ++c) {
        const xgft::NodeIndex node = below[c % lower];
        const auto port = static_cast<std::uint32_t>(c / lower);
        above[c] = topo.parentIndex(L - 1, node, port);
        if ((L == 1 || clean(x, L - 1, c % lower)) &&
            !degraded.linkFailed(topo.upLink(L - 1, node, port))) {
          const std::uint64_t i = offset(x, L) + c;
          words_[i / 64] |= std::uint64_t{1} << (i % 64);
        }
      }
      below.swap(above);
    }
  }
}

std::uint64_t CleanAscentMask::window(std::uint64_t i) const {
  const std::uint64_t word = i / 64;
  const std::uint64_t shift = i % 64;
  std::uint64_t bits = words_[word] >> shift;
  if (shift != 0 && word + 1 < words_.size()) {
    bits |= words_[word + 1] << (64 - shift);
  }
  return bits;
}

xgft::Count CleanAscentMask::firstClean(xgft::NodeIndex s, xgft::NodeIndex d,
                                        std::uint32_t level) const {
  const std::uint64_t sRow = offset(s, level);
  const std::uint64_t dRow = offset(d, level);
  const xgft::Count count = choices_[level];
  for (xgft::Count c = 0; c < count; c += 64) {
    std::uint64_t both = window(sRow + c) & window(dRow + c);
    if (count - c < 64) both &= (std::uint64_t{1} << (count - c)) - 1;
    if (both != 0) return c + static_cast<xgft::Count>(std::countr_zero(both));
  }
  return kNone;
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

  const CleanAscentMask mask(degraded);
  UnreachableSink unreachable;
  // A pair keeps its ascent when that is clean from both ends; otherwise
  // it takes the lowest choice clean from both, or none (unreachable).
  // Unreachable pairs are collected, never thrown from a worker, so the
  // kThrow error below names the same pair for any thread count.
  const auto patch = [&](xgft::NodeIndex s, xgft::NodeIndex d,
                         core::CompiledRoutes::Entry stored) {
    if (stored.level != 0 && mask.clean(s, stored.level, stored.choice) &&
        mask.clean(d, stored.level, stored.choice)) {
      return core::CompiledRoutes::kKeep;
    }
    const xgft::Count choice = mask.firstClean(s, d, topo.ncaLevel(s, d));
    if (choice == CleanAscentMask::kNone) {
      unreachable.add(s, d);
      return core::CompiledRoutes::kUnroutable;
    }
    return choice;
  };

  DegradedRoutes out;
  out.table = healthy->patched(patch, threads);
  out.unreachable = unreachable.takeSorted();
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
  const core::SchemeInfo& info = core::schemeRegistry().at(routing);
  if (info.mode != core::RouteMode::kTable) {
    std::string degradable;
    const auto names = core::schemeRegistry().names();
    for (const std::string& name : *names) {
      if (core::schemeRegistry().at(name).mode == core::RouteMode::kTable) {
        if (!degradable.empty()) degradable += ", ";
        degradable += name;
      }
    }
    throw std::invalid_argument(
        "routing scheme '" + routing +
        "' cannot run on a degraded topology: per-segment port selection "
        "(adaptive/spray) honours faults via the fault policy, not table "
        "recompilation (degradable: " +
        degradable + ")");
  }
  return info;
}

}  // namespace fault
