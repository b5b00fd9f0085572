// compiled_routes.hpp — Per-(src, dst) forwarding tables compiled from any
// Router, in a flat or an interval-compressed layout.
//
// Every simulated message used to pay a virtual Router::route(s, d) call
// (plus route validation and hop expansion) on the replayer's hot path.  A
// CompiledRoutes handle is the compile-once/route-many split packet-routing
// simulators rely on: routes are built once per (topology, scheme, seed)
// and looked up by (s, d) afterwards.  A router states a route as an NCA
// choice (routing/router.hpp), and so does a table: it stores each pair's
// NCA level and choice, never the up-ports, which are the choice's slice
// of the topology's catalogue of ascents.  Two layouts serve two scales:
//
//  * Flat (small topologies).  Two dense arrays —
//
//      choices_[s * numHosts + d]  =  NCA choice (u32),
//      lens_   [s * numHosts + d]  =  NCA level (u8; 0 = no route),
//
//    5 bytes per pair, O(1) lookup.
//
//  * Interval-compressed (large topologies).  The paper's oblivious schemes
//    choose up-ports by arithmetic on node labels, so for a fixed guide
//    column (the destination for d-mod-k-style schemes, the source for
//    s-mod-k-style ones — the router's ascentGuide() when it has one,
//    deterministic sampling otherwise) the choice is
//    piecewise-constant in the other endpoint: consecutive ranks sharing
//    the same (level, choice) collapse into sorted half-open intervals of
//    12 bytes each.  entry(s, d) is a branch-free binary search over the
//    column's intervals.  Tables shrink from O(H^2) entries to
//    O(H * levels * distinct-choices); schemes with per-pair randomness
//    (Random) do not compress, which estimateCompressedBytes() detects so
//    the engine can keep its virtual-routing fallback for them.
//
// Both layouts compile one guide column at a time, one run at a time.  A
// run is a maximal rank range of the other endpoint that shares one NCA
// level with the guide; for a self-routing router (Router::ascentGuide())
// every pair of a run takes the same choice, so the builder asks once per
// run — at most 2h + 1 runs per column — instead of once per pair.  Other
// routers are asked once per pair.  The only check is the choice's range
// (Router::ascentOf), once per run or pair: a catalogue ascent of the
// pair's NCA level is a valid route for it by construction.
//
// patched() copies a table in its own layout with some pairs rewritten —
// the degraded-topology path (fault::compileDegraded): a flat copy rewrites
// the changed entries in place, a compressed copy re-merges each column's
// intervals around them.  A rewrite is an NCA choice too, range-checked
// like a compiled one.
//
// Compilation finishes inside compile(); the handle is immutable afterwards,
// so it is freely shared across threads.  The engine memoizes open-loop
// jobs' tables next to the router; a closed-loop job compiles a compressed
// table of its own for a self-routing scheme and frees it when the job
// ends, while Random and Colored closed-loop jobs build no table at all.
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
#include <vector>

#include "routing/router.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace core {

/// Which representation compile() builds.  kAuto picks kFlat below an
/// 8 MiB flat-table footprint and kCompressed above it, so small paper
/// topologies keep the exact historical layout.
enum class TableLayout : std::uint8_t { kAuto, kFlat, kCompressed };

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
      std::shared_ptr<const routing::Router> router, std::uint32_t threads = 1,
      TableLayout layout = TableLayout::kAuto);

  /// A pair's stored route: its NCA level and NCA choice.  Level 0 means
  /// no route — the diagonal, or a pair a patch marked unroutable — and
  /// then the choice is 0.
  struct Entry {
    std::uint32_t level = 0;
    std::uint32_t choice = 0;
  };

  /// PairPatch verdicts besides an NCA choice: keep the pair's route, or
  /// mark the pair unroutable.
  static constexpr xgft::Count kKeep = ~xgft::Count{0};
  static constexpr xgft::Count kUnroutable = ~xgft::Count{0} - 1;

  /// Decides one off-diagonal pair for patched(): given (s, d) and the
  /// pair's entry in the source table, returns kKeep, kUnroutable, or the
  /// NCA choice that replaces the pair's.  Called concurrently from the
  /// patch workers, once per pair, so it must be thread-safe.
  using PairPatch = std::function<xgft::Count(
      xgft::NodeIndex s, xgft::NodeIndex d, Entry stored)>;

  /// A copy of this table in the same layout (and compressed axis), with
  /// every off-diagonal pair passed through @p patch, split across
  /// @p threads workers (0 = hardware concurrency; the result is identical
  /// for any count).  A replacement choice out of range for its pair throws
  /// std::invalid_argument naming this table's router and the pair.  The
  /// copy shares this table's router and does not need this table.
  [[nodiscard]] std::shared_ptr<const CompiledRoutes> patched(
      const PairPatch& patch, std::uint32_t threads = 1) const;

  /// Flat-layout size in bytes for a topology (5 per ordered pair), before
  /// building — callers bound memory with this (the engine's open-loop
  /// jobs try the compressed layout above its limit, then fall back to
  /// virtual routing).
  [[nodiscard]] static std::uint64_t tableBytes(const xgft::Topology& topo);

  /// Deterministic sampled estimate of the compressed-layout footprint for
  /// @p router's scheme: a handful of guide columns are scanned both ways
  /// (one choice per run, as compile() asks) and the denser axis'
  /// per-column bytes extrapolate to the full table.
  /// Schemes with per-pair randomness estimate near the flat size, which is
  /// how the engine keeps its virtual-routing fallback for them.
  [[nodiscard]] static std::uint64_t estimateCompressedBytes(
      const routing::Router& router);

  /// The stored route of (s, d); level 0 for the diagonal and for pairs a
  /// patch marked unroutable.
  [[nodiscard]] Entry entry(xgft::NodeIndex s, xgft::NodeIndex d) const {
    if (!compressed_) {
      const std::size_t pair = static_cast<std::size_t>(s) * numHosts_ + d;
      return {lens_[pair], choices_[pair]};
    }
    const bool byDst = axis_ == Axis::kByDst;
    const Interval& run = intervalOf(static_cast<std::uint32_t>(byDst ? d : s),
                                     static_cast<std::uint32_t>(byDst ? s : d));
    return {run.len, run.choice};
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

  /// No-op, kept for callers that predate eager compilation: every table
  /// is complete when compile() returns.
  void compileAll(std::uint32_t /*threads*/ = 1) const {}

  [[nodiscard]] bool compressed() const { return compressed_; }
  /// Bytes resident for the forwarding state: the dense arrays in the flat
  /// layout, the column offsets and intervals in the compressed one.
  [[nodiscard]] std::uint64_t forwardingBytes() const;

  [[nodiscard]] const routing::Router& router() const { return *router_; }
  [[nodiscard]] const xgft::Topology& topology() const {
    return router_->topology();
  }
  [[nodiscard]] std::size_t numHosts() const { return numHosts_; }

 private:
  /// Which endpoint indexes the columns: guide = destination (runs over
  /// sources — destination-oriented schemes like d-mod-k) or guide = source
  /// (runs over destinations — s-mod-k and friends).
  enum class Axis : std::uint8_t { kByDst, kBySrc };

  /// One maximal run of ranks sharing a route within a guide column.
  struct Interval {
    std::uint32_t begin = 0;   ///< First rank of the run.
    std::uint32_t choice = 0;  ///< Entry::choice.
    std::uint32_t len = 0;     ///< Entry::level; 0 = unroutable/diagonal.
  };

  /// Compressed guide columns: column g's intervals are
  /// intervals[colOff[g], colOff[g + 1]).
  struct Columns {
    std::vector<std::uint32_t> colOff;
    std::vector<Interval> intervals;
  };

  /// Fills guide column @p guide of a compressed layout into @p out.
  using ColumnFill = std::function<void(std::uint32_t guide, Columns& out)>;

  explicit CompiledRoutes(std::shared_ptr<const routing::Router> router);

  /// The entry a patch verdict other than kKeep installs for (s, d): no
  /// route for kUnroutable, else the range-checked choice.
  [[nodiscard]] Entry replacement(xgft::NodeIndex s, xgft::NodeIndex d,
                                  xgft::Count verdict) const;
  /// Builds every guide column through @p fill, split across @p threads
  /// workers, and concatenates the workers' blocks in guide order.
  [[nodiscard]] static Columns buildColumns(std::size_t n,
                                            std::uint32_t threads,
                                            const ColumnFill& fill);
  /// Appends a run starting at rank @p begin to the column being built in
  /// @p out, or extends the column's last interval when its entry matches.
  static void appendRun(Columns& out, std::uint32_t begin, Entry e);
  /// Appends the patched copy of this table's column @p guide to @p out.
  void patchColumn(std::uint32_t guide, const PairPatch& patch,
                   Columns& out) const;
  [[nodiscard]] const Interval& intervalOf(std::uint32_t guide,
                                           std::uint32_t pos) const;

  std::shared_ptr<const routing::Router> router_;
  std::size_t numHosts_ = 0;
  Axis axis_ = Axis::kByDst;

  // Flat layout.
  std::vector<std::uint32_t> choices_;  ///< numHosts^2 NCA choices.
  std::vector<std::uint8_t> lens_;      ///< numHosts^2 NCA levels.

  // Compressed layout.
  bool compressed_ = false;
  Columns columns_;
};

}  // namespace core
