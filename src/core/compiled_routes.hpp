// compiled_routes.hpp — Per-(src, dst) forwarding tables compiled from any
// Router, for the jobs that route around failed links.
//
// A router states a route as an NCA choice (routing/router.hpp) and answers
// choice(s, d, level) per message, so a healthy job needs no table: the
// resolver asks its router.  A fault plan does.  Its routes are the healthy ones with
// the broken pairs rewritten (fault::compileDegraded), and a patch needs
// every pair's healthy route in hand.  A CompiledRoutes table holds them:
// each pair's NCA level and choice, never the up-ports, which are the
// choice's slice of the topology's catalogue of ascents.  Two dense arrays —
//
//      choices_[s * numHosts + d]  =  NCA choice (u32),
//      lens_   [s * numHosts + d]  =  NCA level (u8; 0 = no route),
//
// 5 bytes per pair, O(1) lookup.
//
// The table compiles one guide column at a time, one run at a time.  A run
// is a maximal rank range of the other endpoint that shares one NCA level
// with the guide; for a self-routing router (Router::ascentGuide()) every
// pair of a run takes the same choice, so the builder asks once per run —
// at most 2h + 1 runs per column — instead of once per pair.  Other
// routers are asked once per pair, row by row.  The only check is the
// choice's range (Router::ascentOf), once per run or pair: a catalogue
// ascent of the pair's NCA level is a valid route for it by construction.
//
// patched() copies a table with some pairs rewritten — the
// degraded-topology path (fault::compileDegraded).  The caller decides
// with two callables inlined into the walk: a test of whether a pair keeps
// its stored entry, and the pair's rewrite, asked only for the pairs the
// test rejects.  The copy is patched row by row: one pass without branches
// lists the row's rejected pairs, a second rewrites them in place.  A
// rewrite is an NCA choice too, range-checked like a compiled one.
//
// Compilation finishes inside compile(); the handle is immutable afterwards,
// so it is freely shared across threads.  The engine memoizes a router's
// table and its degraded patches, and only jobs with a fault plan ask for
// them (engine/runner.hpp).
//
// trace::RouteSetResolver makes one entry() lookup per message and hands
// the simulator the (level, choice) by value, so a message never points
// into a table: a table may be dropped while messages resolved through it
// are still in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "routing/router.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace core {

class CompiledRoutes {
 public:
  /// Compiles the ordered-pair table from @p router, splitting the guide
  /// columns across @p threads workers (0 means hardware concurrency,
  /// which also caps any larger count; the result is identical for any
  /// thread count).  Every stored choice is in range for its pair's NCA
  /// level; an out-of-range choice throws std::invalid_argument naming the
  /// router and the pair.  The router (and through it the topology) is
  /// kept alive by the returned handle.
  [[nodiscard]] static std::shared_ptr<const CompiledRoutes> compile(
      std::shared_ptr<const routing::Router> router, std::uint32_t threads = 1);

  /// A pair's stored route: its NCA level and NCA choice.  Level 0 means
  /// no route — the diagonal, or a pair a patch marked unroutable — and
  /// then the choice is 0.
  struct Entry {
    std::uint32_t level = 0;
    std::uint32_t choice = 0;
  };

  /// The rewrite that marks a pair unroutable, besides an NCA choice.
  static constexpr xgft::Count kUnroutable = ~xgft::Count{0};

  /// An ordered (src, dst) pair.
  using Pair = std::pair<xgft::NodeIndex, xgft::NodeIndex>;

  /// A copy of this table with every off-diagonal pair that
  /// @p keeps(s, d, stored) rejects rewritten to @p rewrite(s, d, stored):
  /// kUnroutable, or the NCA choice that replaces the pair's (stored is
  /// the pair's entry here).  Both are inlined into the walk and called
  /// concurrently from @p threads workers (0 = hardware concurrency; the
  /// result is identical for any count), so they must be thread-safe and
  /// free of side effects; @p keeps may also be asked about the diagonal,
  /// whose answer is ignored, and should be branch-free.  A replacement
  /// choice out of range for its pair throws std::invalid_argument naming
  /// this table's router and the pair.  When @p unroutable is given it
  /// receives the pairs rewritten to kUnroutable, in (src, dst) order.  The
  /// copy shares this table's router and does not need this table.
  template <typename Keeps, typename Rewrite>
  [[nodiscard]] std::shared_ptr<const CompiledRoutes> patched(
      const Keeps& keeps, const Rewrite& rewrite, std::uint32_t threads = 1,
      std::vector<Pair>* unroutable = nullptr) const;

  /// A table's size in bytes for a topology (5 per ordered pair), before
  /// building — callers bound memory with this (the engine rejects a fault
  /// plan whose table would exceed its budget).
  [[nodiscard]] static std::uint64_t tableBytes(const xgft::Topology& topo);

  /// The stored route of (s, d); level 0 for the diagonal and for pairs a
  /// patch marked unroutable.
  [[nodiscard]] Entry entry(xgft::NodeIndex s, xgft::NodeIndex d) const {
    const std::size_t pair = static_cast<std::size_t>(s) * numHosts_ + d;
    return {lens_[pair], choices_[pair]};
  }

  /// The ascending port choices for (s, d) — the catalogue ascent of its
  /// entry; length == ncaLevel(s, d), empty when s == d — and also empty
  /// for pairs a patch marked unroutable.  Valid for the topology's
  /// lifetime.
  [[nodiscard]] std::span<const std::uint32_t> upPorts(
      xgft::NodeIndex s, xgft::NodeIndex d) const {
    const Entry e = entry(s, d);
    if (e.level == 0) return {};
    return topology().ascent(e.level, e.choice);
  }

  /// True iff a patch declared (s, d) unreachable.  A route for s != d
  /// always has level ncaLevel(s, d) >= 1, so a zero level is unambiguous.
  [[nodiscard]] bool unroutable(xgft::NodeIndex s, xgft::NodeIndex d) const {
    return s != d && entry(s, d).level == 0;
  }

  /// Materializes the xgft::Route for (s, d) — for analysis-style callers.
  [[nodiscard]] xgft::Route route(xgft::NodeIndex s, xgft::NodeIndex d) const;

  /// bench/e2e only; delete at the next benchmark change.
  void compileAll(std::uint32_t /*threads*/ = 1) const {}
  /// bench/e2e only; delete at the next benchmark change.
  [[nodiscard]] bool compressed() const { return false; }

  /// Bytes resident for the forwarding state: the two dense arrays.
  [[nodiscard]] std::uint64_t forwardingBytes() const;

  [[nodiscard]] const routing::Router& router() const { return *router_; }
  [[nodiscard]] const xgft::Topology& topology() const {
    return router_->topology();
  }
  [[nodiscard]] std::size_t numHosts() const { return numHosts_; }

 private:
  /// Runs worker @p worker's contiguous block [begin, end) of rows or
  /// guide columns.
  using BlockBody = std::function<void(std::size_t worker, std::size_t begin,
                                       std::size_t end)>;

  explicit CompiledRoutes(std::shared_ptr<const routing::Router> router);

  /// Worker count for @p threads over @p n rows or guide columns: 0 means
  /// hardware concurrency, no count exceeds it, and no worker goes without
  /// a row or column.
  [[nodiscard]] static std::uint32_t clampThreads(std::uint32_t threads,
                                                  std::size_t n);
  /// Splits [0, n) into at most @p threads contiguous blocks and runs
  /// body(worker, begin, end) for each on its own thread; rethrows the
  /// first failure once every worker has joined.  One block runs inline,
  /// so a single-threaded walk keeps @p body inlined.
  template <typename Body>
  static void forEachBlock(std::size_t n, std::uint32_t threads,
                           const Body& body) {
    if (threads <= 1) {
      body(std::size_t{0}, std::size_t{0}, n);
      return;
    }
    runBlocks(n, threads, body);
  }
  /// forEachBlock() for more than one worker.
  static void runBlocks(std::size_t n, std::uint32_t threads,
                        const BlockBody& body);

  /// The entry @p rewrite installs for (s, d), whose entry here is
  /// @p stored: no route for kUnroutable (the pair joins @p lost), else the
  /// choice.  The range check is inline against @p topo (this table's
  /// topology, hoisted by the walk); a failure reports Router::ascentOf's
  /// error.
  [[nodiscard]] Entry replacement(const xgft::Topology& topo,
                                  xgft::NodeIndex s, xgft::NodeIndex d,
                                  Entry stored, xgft::Count rewrite,
                                  std::vector<Pair>& lost) const {
    if (rewrite == kUnroutable) {
      lost.emplace_back(s, d);
      return {};
    }
    // A routed entry's level is the pair's NCA level.
    const std::uint32_t level =
        stored.level != 0 ? stored.level : topo.ncaLevel(s, d);
    if (rewrite >= topo.ncaChoices(level)) {
      (void)router_->ascentOf(s, d, level, rewrite);  // Throws.
    }
    return {level, static_cast<std::uint32_t>(rewrite)};
  }
  /// Patches row @p s of @p out, a flat copy of this table, in place;
  /// @p todo holds numHosts() ranks of scratch.  The callables are taken by
  /// value, so the walk may keep what they captured in registers.
  template <typename Keeps, typename Rewrite>
  void patchRow(xgft::NodeIndex s, Keeps keeps, Rewrite rewrite,
                CompiledRoutes& out, std::vector<std::uint32_t>& todo,
                std::vector<Pair>& lost) const;

  std::shared_ptr<const routing::Router> router_;
  std::size_t numHosts_ = 0;
  std::vector<std::uint32_t> choices_;  ///< numHosts^2 NCA choices.
  std::vector<std::uint8_t> lens_;      ///< numHosts^2 NCA levels.
};

template <typename Keeps, typename Rewrite>
std::shared_ptr<const CompiledRoutes> CompiledRoutes::patched(
    const Keeps& keeps, const Rewrite& rewrite, std::uint32_t threads,
    std::vector<Pair>* unroutable) const {
  auto table = std::shared_ptr<CompiledRoutes>(new CompiledRoutes(router_));
  const std::size_t n = numHosts_;
  threads = clampThreads(threads, n);
  // Each worker collects the pairs it marks unroutable; no lock per pair.
  std::vector<std::vector<Pair>> lost(threads);

  // Copy the arrays, then rewrite the changed entries row by row.
  table->choices_ = choices_;
  table->lens_ = lens_;
  forEachBlock(n, threads,
               [&](std::size_t w, std::size_t begin, std::size_t end) {
                 std::vector<std::uint32_t> todo(n);
                 for (std::size_t s = begin; s < end; ++s) {
                   patchRow(s, keeps, rewrite, *table, todo, lost[w]);
                 }
               });
  if (unroutable != nullptr) {
    // Workers own contiguous blocks of rows, in order, so concatenating
    // their lists keeps (src, dst) order.
    unroutable->clear();
    for (const std::vector<Pair>& block : lost) {
      unroutable->insert(unroutable->end(), block.begin(), block.end());
    }
  }
  return table;
}

template <typename Keeps, typename Rewrite>
void CompiledRoutes::patchRow(xgft::NodeIndex s, Keeps keeps, Rewrite rewrite,
                              CompiledRoutes& out,
                              std::vector<std::uint32_t>& todo,
                              std::vector<Pair>& lost) const {
  // The row is read and rewritten in the copy, through local pointers:
  // a byte store may alias any member, which would otherwise be reloaded
  // after every rewrite.
  const std::size_t n = numHosts_;
  std::uint8_t* lens = out.lens_.data() + s * n;
  std::uint32_t* choices = out.choices_.data() + s * n;
  // Pass 1, without branches, so an irregular keep pattern (Random's)
  // costs no mispredictions: list the ranks keeps() rejects.
  std::uint32_t* rejected = todo.data();
  std::size_t count = 0;
  for (std::size_t d = 0; d < n; ++d) {
    rejected[count] = static_cast<std::uint32_t>(d);
    count += keeps(s, d, Entry{lens[d], choices[d]}) ? 0 : 1;
  }
  // Pass 2: rewrite them in place, skipping the diagonal.  The common
  // rewrite keeps a routed pair's level with a choice in range, so only
  // the choice is stored; the rest (a route lost or regained, or a choice
  // out of range, which throws) go through replacement().
  const xgft::Topology& topo = topology();
  for (std::size_t k = 0; k < count; ++k) {
    const xgft::NodeIndex d = rejected[k];
    if (d == s) continue;
    const Entry stored{lens[d], choices[d]};
    const xgft::Count c = rewrite(s, d, stored);
    if (stored.level != 0 && c < topo.ncaChoices(stored.level)) [[likely]] {
      choices[d] = static_cast<std::uint32_t>(c);
      continue;
    }
    const Entry e = replacement(topo, s, d, stored, c, lost);
    lens[d] = static_cast<std::uint8_t>(e.level);
    choices[d] = e.choice;
  }
}

}  // namespace core
