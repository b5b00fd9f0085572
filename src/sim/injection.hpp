// injection.hpp — The pull-based injection process.
//
// One mechanism drives every traffic shape through the simulator: an
// InjectionProcess pumps a patterns::TrafficSource and turns its actions
// into Network calls, scheduled on the event queue —
//
//  * kMessage at the current time injects immediately (addMessageSet /
//    addMessageAdaptive + release);
//  * kMessage with a future time parks until a queued callback reaches
//    it, so the source is asked for its next message only when the
//    previous one's injection time arrived — open-loop streams are never
//    materialized;
//  * kWake schedules a timer callback that re-enters the source
//    (closed-loop compute delays);
//  * kBlocked pauses the pump until a completion re-triggers it (the
//    process is the network's TrafficSink and re-pumps after forwarding
//    every delivery to the source).
//
// Closed-loop phase replay (trace::Replayer implements TrafficSource) and
// open-loop streaming (patterns::OpenLoopSource) are both instances of
// this process; neither owns a private injection path.
//
// The process keeps no per-message state of its own: each message's
// source token rides in the network's message record (release() stamps
// the release time beside it), and onMessageDelivered reads both back
// from the record.  Records never move and the network recycles the slot
// only after that call returns, so the record may be read at any point of
// the call, even after the source's reaction has added more messages.  A
// run's memory therefore follows the messages in flight, however long the
// source streams.
//
// Route construction stays out of this layer: the caller supplies a
// resolver mapping (src, dst) host pairs to route sets (NCA choices; see
// trace::RouteSetResolver) or opts into per-hop adaptive routing.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "patterns/source.hpp"
#include "sim/network.hpp"

namespace sim {

struct InjectionOptions {
  /// Spray policy/seed applied to multi-route sets (single-route sets
  /// ignore them), mirroring trace::SprayConfig.
  SprayPolicy policy = SprayPolicy::kRoundRobin;
  std::uint64_t spraySeed = 1;
  /// Per-hop minimally-adaptive routing instead of resolved route sets.
  bool adaptive = false;

  /// Maps a source rank to its host node; identity when null.
  std::function<xgft::NodeIndex(patterns::Rank)> hostOf;

  /// Route set for a (src, dst) host pair; required unless adaptive.
  /// Called once per injected message.  An empty set for src != dst means
  /// the active (degraded) forwarding table cannot reach the pair — the
  /// message is then refused, not enqueued.
  std::function<RouteSet(xgft::NodeIndex, xgft::NodeIndex)> routeSet;

  /// Invoked for every refused message: (source token, bytes, src host,
  /// dst host).  The refusal is counted in NetworkStats::messagesDropped
  /// either way, but a closed-loop source would wait forever for the
  /// message's delivery — so an unroutable resolution without an onDrop
  /// handler throws std::runtime_error instead of hanging.
  std::function<void(std::uint64_t, Bytes, xgft::NodeIndex, xgft::NodeIndex)>
      onDrop;
};

class InjectionProcess final : public TrafficSink {
 public:
  /// Installs itself as @p net's sink.  All references must outlive the
  /// process.
  InjectionProcess(Network& net, patterns::TrafficSource& source,
                   InjectionOptions opt);

  /// Pumps the source and processes events until the event queue drains
  /// (or @p until); resumable — the windowed measurement layer runs the
  /// same process across warmup/measurement/drain boundaries.
  void run(TimeNs until = std::numeric_limits<TimeNs>::max());

  /// True once the source returned kExhausted.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

  /// Optional per-delivery observer: (source token, message bytes,
  /// injection time, delivery time).  Runs before the source's
  /// onDelivered().
  std::function<void(std::uint64_t, Bytes, TimeNs, TimeNs)> onDelivery;

  void onMessageDelivered(MsgId msg, TimeNs time) override;

 private:
  /// Pulls until the source blocks, exhausts, or hands out a future-time
  /// message (which parks in pendingFuture_ behind a queued callback).
  void pump();
  void inject(const patterns::SourceMessage& m);

  Network* net_;
  patterns::TrafficSource* src_;
  InjectionOptions opt_;

  patterns::SourceMessage future_;  ///< Parked next message, if any.
  bool pendingFuture_ = false;
  bool exhausted_ = false;
};

}  // namespace sim
