// replayer.hpp — Trace replay engine coupled to the network simulator.
//
// Mirrors the Venus–Dimemas co-simulation of Sec. VI-B: the replayer walks
// every rank's program, hands point-to-point messages to the Network (routed
// by the configured routing scheme), and advances ranks as completions come
// back.  Semantics:
//
//  * kIsend starts a message; it counts as outstanding until delivered
//    end-to-end (we model synchronous completion — DESIGN.md).
//  * kIrecv matches arrivals by (source rank, tag), multiset semantics;
//    arrivals before the post are buffered as unexpected messages.
//  * kWaitAll blocks until the rank's outstanding sends are delivered and
//    posted receives have arrived.
//  * kBarrier blocks until every rank reached the same barrier index.
//  * kCompute advances the rank after a fixed local delay.
//
// Since the streaming refactor (DESIGN.md §8) the replayer is the
// closed-loop *source* of the shared injection mechanism: it implements
// patterns::TrafficSource — the rank state machine emits messages (and
// kWake timers for compute bursts) as it unblocks — and run() drives it
// through a sim::InjectionProcess, the same process that runs open-loop
// streams.  Route material resolves through trace::RouteSetResolver (one
// compiled-table lookup, router choice or spray list per message, each an
// NCA choice): no per-message route construction on any path.  The engine
// hands closed-loop jobs of self-routing schemes a compressed table
// compiled for the job alone and gives Random and Colored jobs none, since
// a replay reaches few of the n^2 pairs.
//
// The replayer is single-use: construct, run(), read the makespan.  A
// second run() throws std::logic_error; results of the first run stay
// readable.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/compiled_routes.hpp"
#include "patterns/source.hpp"
#include "routing/router.hpp"
#include "sim/injection.hpp"
#include "sim/network.hpp"
#include "trace/mapping.hpp"
#include "trace/route_resolver.hpp"
#include "trace/trace.hpp"

namespace trace {

class Replayer final : public patterns::TrafficSource {
 public:
  /// All references must outlive the replayer.  The replayer's injection
  /// process installs itself as the network's sink.  When @p compiled is
  /// given (and no per-segment mode is active) pairs route through the
  /// compiled forwarding table, which must be compiled against @p net's
  /// topology; without one each message costs one router.choice().
  Replayer(sim::Network& net, const Trace& trace, const Mapping& mapping,
           const routing::Router& router, SprayConfig spray = {},
           const core::CompiledRoutes* compiled = nullptr);

  /// Replays the whole trace; returns the time the last rank finished.
  /// Throws std::runtime_error if ranks are left blocked when the network
  /// drains (e.g. an unmatched receive).
  sim::TimeNs run();

  /// Completion time of an individual rank (valid after run()).
  [[nodiscard]] sim::TimeNs finishTimeOf(patterns::Rank r) const {
    return finishNs_.at(r);
  }

  /// Completion time of every global barrier, in order (valid after
  /// run()).  For traces built by traceFromPhases these are exactly the
  /// phase boundaries, so barrierTimes()[i] - barrierTimes()[i-1] is the
  /// duration of phase i — the per-phase breakdown behind the Sec. VII-A
  /// "fifth phase takes eight times longer" analysis.
  [[nodiscard]] const std::vector<sim::TimeNs>& barrierTimes() const {
    return barrierNs_;
  }

  // ---- patterns::TrafficSource (the closed-loop source) --------------------

  [[nodiscard]] patterns::Rank numRanks() const override {
    return trace_->numRanks;
  }
  [[nodiscard]] patterns::Pull pull(sim::TimeNs now,
                                    patterns::SourceMessage& out) override;
  void onDelivered(std::uint64_t token, sim::TimeNs now) override;
  void onWake(std::uint64_t cookie, sim::TimeNs now) override;

 private:
  struct RankState {
    std::size_t pc = 0;
    std::uint32_t pendingSends = 0;       ///< Isends not yet delivered.
    std::uint32_t outstandingRecvs = 0;   ///< Posted, not yet arrived.
    std::int64_t blockingSend = -1;       ///< Token a kSend waits on.
    bool blockingRecv = false;            ///< A kRecv waits for a match.
    bool inCompute = false;
    std::uint32_t barriersPassed = 0;
    bool finished = false;
  };

  /// One pending source action in program order: a message to inject or a
  /// compute-timer request.  Keeping both in one queue preserves the exact
  /// walk order (and therefore the event insertion order) of the
  /// pre-streaming replayer.
  struct Pending {
    patterns::SourceMessage m;
    bool wake = false;
  };

  /// Advances rank r until it blocks or finishes, queueing its actions.
  void progress(patterns::Rank r);

  [[nodiscard]] std::uint64_t matchKey(patterns::Rank src,
                                       std::uint32_t tag) const;

  sim::Network* net_;
  const Trace* trace_;
  const Mapping* mapping_;
  RouteSetResolver resolver_;
  sim::InjectionProcess driver_;

  std::vector<RankState> ranks_;
  std::vector<sim::TimeNs> finishNs_;
  std::uint32_t finishedRanks_ = 0;
  // Message bookkeeping: token -> (sender, receiver, tag); tokens are
  // assigned densely in injection order.
  struct MsgInfo {
    patterns::Rank src = 0;
    patterns::Rank dst = 0;
    std::uint32_t tag = 0;
  };
  std::vector<MsgInfo> msgInfo_;
  std::deque<Pending> pending_;
  bool started_ = false;
  // Per receiving rank: (src, tag) -> counts.
  std::vector<std::map<std::uint64_t, std::uint32_t>> postedRecvs_;
  std::vector<std::map<std::uint64_t, std::uint32_t>> unexpected_;
  // Barrier accounting: barrier index -> arrivals so far.
  std::map<std::uint32_t, std::uint32_t> barrierArrivals_;
  std::vector<sim::TimeNs> barrierNs_;  ///< Completion time per barrier.
  bool ran_ = false;
};

}  // namespace trace
