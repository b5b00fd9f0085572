// compiled_routes.hpp — Per-(src, dst) forwarding tables compiled from any
// Router, in a flat or an interval-compressed layout.
//
// Every simulated message used to pay a virtual Router::route(s, d) call
// (plus route validation and hop expansion) on the replayer's hot path.  A
// CompiledRoutes handle is the compile-once/route-many split packet-routing
// simulators rely on: routes are built once per (topology, scheme, seed)
// and looked up by (s, d) afterwards.  Two layouts serve two scales:
//
//  * Flat (small topologies).  One dense O(H^2) array —
//
//      ports_[(s * numHosts + d) * stride + i]  =  up-port taken at level i,
//      lens_ [ s * numHosts + d]                =  route length (NCA level),
//
//    O(1) lookup.
//
//  * Interval-compressed (large topologies).  The paper's oblivious schemes
//    choose up-ports by arithmetic on node labels, so for a fixed guide
//    column (the destination for d-mod-k-style schemes, the source for
//    s-mod-k-style ones — the router's ascentGuide() when it has one,
//    deterministic sampling otherwise) the route is
//    piecewise-constant in the other endpoint: consecutive ranks sharing
//    the same up-port vector collapse into sorted half-open intervals, each
//    carrying one copy of the ports.  lookup(s, d) is a branch-free binary
//    search over the column's intervals.  Tables shrink from O(H^2) entries
//    to O(H * levels * distinct-choices); schemes with per-pair randomness
//    (Random) do not compress, which estimateCompressedBytes() detects so
//    the engine can keep its virtual-routing fallback for them.
//
// A router states a route as an NCA choice (routing/router.hpp), and the
// route's up-ports are that choice's slice of the topology's catalogue of
// ascents.  So compiling is copying catalogue slices: both layouts compile
// one guide column at a time, one run at a time.  A run is a maximal rank
// range of the other endpoint that shares one NCA level with the guide;
// for a self-routing router (Router::ascentGuide()) every pair of a run
// takes the same choice, so the builder asks once per run — at most
// 2h + 1 runs per column — instead of once per pair.  Other routers are
// asked once per pair.  The only check is the choice's range
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
// A table also stores the messages' routes.  A route is its ascent
// (sim/route_store.hpp), and upPorts(s, d) is exactly that ascent, so
// trace::RouteSetResolver hands the simulator a pointer into the table —
// one lookup per message, nothing copied or stored — and the event core
// reads every up-port from the table as the segment climbs.  The table
// must therefore outlive every message resolved through it (DESIGN.md
// §7).  Without a table the resolver asks the router once per distinct
// pair and stores the ascent in the network's RouteStore, which keeps
// route selection off the per-message hot path in every mode.
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
  /// columns across @p threads workers (0 means hardware concurrency; the
  /// result is identical for any thread count).  Every stored ascent is a
  /// catalogue ascent of its pair's NCA level; an out-of-range choice
  /// throws std::invalid_argument naming the router and the pair.  The
  /// router (and through it the topology) is kept alive by the returned
  /// handle.
  [[nodiscard]] static std::shared_ptr<const CompiledRoutes> compile(
      std::shared_ptr<const routing::Router> router, std::uint32_t threads = 1,
      TableLayout layout = TableLayout::kAuto);

  /// PairPatch verdicts besides an NCA choice: keep the pair's ascent, or
  /// mark the pair unroutable.
  static constexpr xgft::Count kKeep = ~xgft::Count{0};
  static constexpr xgft::Count kUnroutable = ~xgft::Count{0} - 1;

  /// Decides one off-diagonal pair for patched(): given (s, d) and the
  /// pair's ascent in the source table, returns kKeep, kUnroutable, or the
  /// NCA choice whose catalogue ascent replaces the pair's.  Called
  /// concurrently from the patch workers, once per pair, so it must be
  /// thread-safe.
  using PairPatch =
      std::function<xgft::Count(xgft::NodeIndex s, xgft::NodeIndex d,
                                std::span<const std::uint32_t> ascent)>;

  /// A copy of this table in the same layout (and compressed axis), with
  /// every off-diagonal pair passed through @p patch, split across
  /// @p threads workers (0 = hardware concurrency; the result is identical
  /// for any count).  A replacement choice out of range for its pair throws
  /// std::invalid_argument naming this table's router and the pair.  The
  /// copy shares this table's router and does not need this table.
  [[nodiscard]] std::shared_ptr<const CompiledRoutes> patched(
      const PairPatch& patch, std::uint32_t threads = 1) const;

  /// Flat-layout size in bytes for a topology, before building — callers
  /// bound memory with this (the engine's open-loop jobs try the
  /// compressed layout above its limit, then fall back to virtual
  /// routing).
  [[nodiscard]] static std::uint64_t tableBytes(const xgft::Topology& topo);

  /// Deterministic sampled estimate of the compressed-layout footprint for
  /// @p router's scheme: a handful of guide columns are scanned both ways
  /// (one choice per run, as compile() asks) and the denser axis'
  /// per-column bytes extrapolate to the full table.
  /// Schemes with per-pair randomness estimate near the flat size, which is
  /// how the engine keeps its virtual-routing fallback for them.
  [[nodiscard]] static std::uint64_t estimateCompressedBytes(
      const routing::Router& router);

  /// The ascending port choices for (s, d) — the route's ascent; length ==
  /// ncaLevel(s, d), empty when s == d — and also empty for pairs a patch
  /// marked unroutable.  The pair is unroutable iff s != d and the span is
  /// empty.  Valid for the handle's lifetime.
  [[nodiscard]] std::span<const std::uint32_t> upPorts(
      xgft::NodeIndex s, xgft::NodeIndex d) const {
    if (!compressed_) {
      const std::size_t pair = static_cast<std::size_t>(s) * numHosts_ + d;
      return {ports_.data() + pair * stride_, lens_[pair]};
    }
    return compressedLookup(s, d);
  }

  /// True iff a patch declared (s, d) unreachable.  A valid route for
  /// s != d always has length ncaLevel(s, d) >= 1, so a zero length is
  /// unambiguous.
  [[nodiscard]] bool unroutable(xgft::NodeIndex s, xgft::NodeIndex d) const {
    return s != d && upPorts(s, d).empty();
  }

  /// Materializes the xgft::Route for (s, d) — for analysis-style callers.
  [[nodiscard]] xgft::Route route(xgft::NodeIndex s, xgft::NodeIndex d) const;

  /// No-op, kept for callers that predate eager compilation: every table
  /// is complete when compile() returns.
  void compileAll(std::uint32_t /*threads*/ = 1) const {}

  [[nodiscard]] bool compressed() const { return compressed_; }
  /// Bytes resident for the forwarding state: the dense arrays in the flat
  /// layout, the column offsets, intervals and port arena in the compressed
  /// one.
  [[nodiscard]] std::uint64_t forwardingBytes() const;

  [[nodiscard]] const routing::Router& router() const { return *router_; }
  [[nodiscard]] const xgft::Topology& topology() const {
    return router_->topology();
  }
  [[nodiscard]] std::size_t numHosts() const { return numHosts_; }
  [[nodiscard]] std::uint32_t stride() const { return stride_; }

 private:
  /// Which endpoint indexes the columns: guide = destination (runs over
  /// sources — destination-oriented schemes like d-mod-k) or guide = source
  /// (runs over destinations — s-mod-k and friends).
  enum class Axis : std::uint8_t { kByDst, kBySrc };

  /// One maximal run of ranks sharing a route within a guide column.
  struct Interval {
    std::uint32_t begin = 0;     ///< First rank of the run.
    std::uint32_t portsOff = 0;  ///< Offset of the ports in Columns::ports.
    std::uint32_t len = 0;       ///< Route length; 0 = unroutable/diagonal.
  };

  /// Compressed guide columns: column g's intervals are
  /// intervals[colOff[g], colOff[g + 1]).
  struct Columns {
    std::vector<std::uint32_t> colOff;
    std::vector<Interval> intervals;
    std::vector<std::uint32_t> ports;
  };

  /// Fills guide column @p guide of a compressed layout into @p out.
  using ColumnFill = std::function<void(std::uint32_t guide, Columns& out)>;

  explicit CompiledRoutes(std::shared_ptr<const routing::Router> router);

  /// The ascent a patch verdict other than kKeep installs for (s, d): empty
  /// for kUnroutable, else the range-checked catalogue ascent.
  [[nodiscard]] std::span<const std::uint32_t> replacement(
      xgft::NodeIndex s, xgft::NodeIndex d, xgft::Count verdict) const;
  /// Builds every guide column through @p fill, split across @p threads
  /// workers, and concatenates the workers' blocks in guide order.
  [[nodiscard]] static Columns buildColumns(std::size_t n,
                                            std::uint32_t threads,
                                            const ColumnFill& fill);
  /// Appends a run starting at rank @p begin to the column being built in
  /// @p out, or extends the column's last interval when its ports match.
  static void appendRun(Columns& out, std::uint32_t begin,
                        std::span<const std::uint32_t> ports);
  /// Appends the patched copy of this table's column @p guide to @p out.
  void patchColumn(std::uint32_t guide, const PairPatch& patch,
                   Columns& out) const;
  [[nodiscard]] const Interval& intervalOf(std::uint32_t guide,
                                           std::uint32_t pos) const;
  [[nodiscard]] std::span<const std::uint32_t> compressedLookup(
      xgft::NodeIndex s, xgft::NodeIndex d) const;

  std::shared_ptr<const routing::Router> router_;
  std::size_t numHosts_ = 0;
  std::uint32_t stride_ = 0;           ///< Tree height.
  Axis axis_ = Axis::kByDst;

  // Flat layout.
  std::vector<std::uint32_t> ports_;   ///< numHosts^2 * stride.
  std::vector<std::uint8_t> lens_;     ///< numHosts^2 route lengths.

  // Compressed layout.
  bool compressed_ = false;
  Columns columns_;
};

}  // namespace core
