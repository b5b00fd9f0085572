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
//  * kBarrier blocks until every rank reached the same barrier index; a
//    rank arrives once, however often it is woken while it waits.
//  * kCompute advances the rank after a fixed local delay.
//
// Since the streaming refactor (DESIGN.md §8) the replayer is the
// closed-loop *source* of the shared injection mechanism: it implements
// patterns::TrafficSource — the rank state machine emits messages (and
// kWake timers for compute bursts) as it unblocks — and run() drives it
// through a sim::InjectionProcess, the same process that runs open-loop
// streams.  Every message is added through trace::RouteSetResolver, which
// routes it as the run's Routing value says: one router choice, table
// lookup or spray list per message (each an NCA choice), or per-hop
// adaptive choices — no per-message route construction on any path.  The
// engine hands a replay a table only when a fault plan patched one; a
// healthy replay asks its router.
//
// Given a trace::EpochMemo, the replayer simulates each barrier-to-barrier
// epoch the memo does not hold and records it, and fast-forwards through
// each one it holds: the network advances by the recorded delta and every
// rank passes the closing barrier (epoch_memo.hpp; DESIGN.md §2, "Epoch
// reuse").  Only epochs that provably replay alike are looked up; every
// other one simulates as without a memo.
//
// The replayer is single-use: construct, run(), read the makespan.  A
// second run() throws std::logic_error; results of the first run stay
// readable.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "patterns/source.hpp"
#include "sim/injection.hpp"
#include "sim/network.hpp"
#include "trace/epoch_memo.hpp"
#include "trace/mapping.hpp"
#include "trace/route_resolver.hpp"
#include "trace/trace.hpp"

namespace trace {

class Replayer final : public patterns::TrafficSource {
 public:
  /// All references, the router or table @p mode routes through and
  /// @p memo must outlive the replayer.  The replayer's injection process
  /// installs itself as the network's sink.  A table must be compiled
  /// against @p net's topology.  Without a memo every epoch simulates.
  Replayer(sim::Network& net, const Trace& trace, const Mapping& mapping,
           Routing mode, EpochMemo* memo = nullptr);

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

  /// Epochs (barrier-to-barrier stretches that released messages) the run
  /// fast-forwarded through the memo, and epochs it simulated.
  [[nodiscard]] std::uint32_t epochsReused() const { return epochsReused_; }
  [[nodiscard]] std::uint32_t epochsSimulated() const {
    return epochsSimulated_;
  }
  /// The events of the reused epochs: NetworkStats::eventsProcessed counts
  /// them, but no handler ran them.
  [[nodiscard]] std::uint64_t eventsReused() const { return eventsReused_; }

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
    bool atBarrier = false;  ///< Arrived at its next barrier, still there.
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
  /// Completes the barrier every rank has arrived at: records the epoch it
  /// closes if it was simulated for the memo, then releases the ranks other
  /// than @p closing in index order.  @p closing moves on after the call.
  void passBarrier(patterns::Rank closing);

  /// Starts the epoch whose messages pending_ holds: fast-forwards through
  /// it when the memo holds it, else simulates it, marking the network to
  /// record it when it may be reused.
  void startEpoch();
  /// The conditions under which the pending epoch's outcome is a function
  /// of its key (DESIGN.md §2, "Epoch reuse"), but receivesMatch().
  [[nodiscard]] bool reusable() const;
  /// The posted receives pair up with the pending messages: checked before
  /// a reuse, and shown by a recorded epoch that ends clean.
  [[nodiscard]] bool receivesMatch() const;
  [[nodiscard]] EpochKey pendingKey();
  /// Passes every rank through the pending epoch as @p epoch recorded it.
  void fastForward(const Epoch& epoch);

  [[nodiscard]] std::uint64_t matchKey(patterns::Rank src,
                                       std::uint32_t tag) const;

  sim::Network* net_;
  const Trace* trace_;
  const Mapping* mapping_;
  RouteSetResolver resolver_;
  sim::InjectionProcess driver_;
  /// Null unless the run routes through a router (DESIGN.md §2).
  EpochMemo* memo_;
  std::string networkKey_;  ///< EpochKey::network, when memo_ is set.

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
  // Barrier accounting.  Every rank must pass barrier i before any can
  // arrive at barrier i + 1, so one count covers the pending barrier.
  std::uint32_t arrivals_ = 0;
  std::vector<sim::TimeNs> barrierNs_;  ///< Completion time per barrier.
  bool ran_ = false;

  // Epochs.
  bool epochStarts_ = false;  ///< The next pull() starts an epoch.
  /// The simulated epoch's key while it is to be recorded at its barrier.
  std::optional<EpochKey> recording_;
  std::uint32_t epochsReused_ = 0;
  std::uint32_t epochsSimulated_ = 0;
  std::uint64_t eventsReused_ = 0;
};

}  // namespace trace
