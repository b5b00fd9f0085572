// replayer.hpp — Phase replay engine coupled to the network simulator.
//
// Mirrors the Venus–Dimemas co-simulation of Sec. VI-B for the paper's
// injection model, "a series of permutations" (Sec. III): the replayer
// releases one phase of a patterns::PhasedPattern at a time and the next
// one at the previous phase's last delivery, the global barrier that gates
// each phase on its slowest message.  A phase's messages are its non-self
// flows, released rank by rank in index order with the previous phase's
// closing rank last, each rank's flows in pattern order.  The closing rank
// is the receiver of the last delivery (rank n - 1 before the first
// phase).  An empty phase completes at the instant it is released and
// keeps the closing rank.  A send completes when it is delivered
// end-to-end; there is no compute model (DESIGN.md §2).
//
// The replayer is the closed-loop *source* of the shared injection
// mechanism (DESIGN.md §8): it implements patterns::TrafficSource and
// run() drives it through a sim::InjectionProcess, the same process that
// runs open-loop streams.  Every message is added through
// trace::RouteSetResolver, which routes it as the run's Routing value
// says: one router choice, table lookup or spray list per message (each an
// NCA choice), or per-hop adaptive choices.  The engine hands a replay a
// table only when a fault plan patched one; a healthy replay asks its
// router.
//
// Given a trace::EpochMemo, the replayer simulates each phase the memo
// does not hold and records it, and fast-forwards through each one it
// holds: the network advances by the recorded delta and the phase
// completes (epoch_memo.hpp; DESIGN.md §2, "Epoch reuse").  A phase is
// looked up only when the run routes through its router, no probe is
// attached, no link went down and the network is idle; every other phase
// simulates as without a memo.
//
// The replayer is single-use: construct, run(), read the makespan.  A
// second run() throws std::logic_error; results of the first run stay
// readable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "patterns/pattern.hpp"
#include "patterns/source.hpp"
#include "sim/injection.hpp"
#include "sim/network.hpp"
#include "trace/epoch_memo.hpp"
#include "trace/mapping.hpp"
#include "trace/route_resolver.hpp"

namespace trace {

class Replayer final : public patterns::TrafficSource {
 public:
  /// All references, the router or table @p mode routes through and
  /// @p memo must outlive the replayer.  The replayer's injection process
  /// installs itself as the network's sink.  A table must be compiled
  /// against @p net's topology.  Without a memo every phase simulates.
  Replayer(sim::Network& net, const patterns::PhasedPattern& app,
           const Mapping& mapping, Routing mode, EpochMemo* memo = nullptr);

  /// Replays every phase; returns the time the last one completed (0 for
  /// no phases).  Throws std::runtime_error, naming the phase, if the
  /// network drains before a phase's messages are all delivered (a message
  /// dropped at a dead link).
  sim::TimeNs run();

  /// Completion time of every phase, in order (valid after run()), so
  /// barrierTimes()[i] - barrierTimes()[i-1] is the duration of phase i —
  /// the per-phase breakdown behind the Sec. VII-A "fifth phase takes eight
  /// times longer" analysis.
  [[nodiscard]] const std::vector<sim::TimeNs>& barrierTimes() const {
    return barrierNs_;
  }

  /// Epochs (phases that released messages) the run fast-forwarded through
  /// the memo, and epochs it simulated.
  [[nodiscard]] std::uint32_t epochsReused() const { return epochsReused_; }
  [[nodiscard]] std::uint32_t epochsSimulated() const {
    return epochsSimulated_;
  }
  /// The events of the reused epochs: NetworkStats::eventsProcessed counts
  /// them, but no handler ran them.
  [[nodiscard]] std::uint64_t eventsReused() const { return eventsReused_; }

  // ---- patterns::TrafficSource (the closed-loop source) --------------------

  [[nodiscard]] patterns::Rank numRanks() const override {
    return app_->numRanks;
  }
  [[nodiscard]] patterns::Pull pull(sim::TimeNs now,
                                    patterns::SourceMessage& out) override;
  /// @p token is the receiving rank.
  void onDelivered(std::uint64_t token, sim::TimeNs now) override;

 private:
  /// Releases phases from phase_ on: each empty phase and each one the
  /// memo holds completes at once, and the first one to simulate stays
  /// pending until its last delivery.
  void releasePhases();
  /// The memo's record of the pending phase, or null; on a miss it marks
  /// the network to record the phase when the lookup conditions hold.
  [[nodiscard]] const Epoch* lookUp();
  [[nodiscard]] EpochKey pendingKey();
  /// Completes the pending phase as @p epoch recorded it.
  void fastForward(const Epoch& epoch);

  sim::Network* net_;
  const patterns::PhasedPattern* app_;
  const Mapping* mapping_;
  RouteSetResolver resolver_;
  sim::InjectionProcess driver_;
  /// Null unless the run routes through a router (DESIGN.md §2).
  EpochMemo* memo_;
  std::string networkKey_;  ///< EpochKey::network, when memo_ is set.

  std::size_t phase_ = 0;  ///< The pending phase; phases before it completed.
  /// The pending phase's messages in release order; pull() hands out the
  /// ones from next_ on.
  std::vector<patterns::Flow> pending_;
  std::size_t next_ = 0;
  std::size_t undelivered_ = 0;  ///< Of the pending phase's messages.
  patterns::Rank closing_ = 0;   ///< The last completed phase's closing rank.
  std::vector<sim::TimeNs> barrierNs_;  ///< Completion time per phase.
  bool ran_ = false;

  /// The simulated phase's key while it is to be recorded at its end.
  std::optional<EpochKey> recording_;
  std::uint32_t epochsReused_ = 0;
  std::uint32_t epochsSimulated_ = 0;
  std::uint64_t eventsReused_ = 0;
};

}  // namespace trace
