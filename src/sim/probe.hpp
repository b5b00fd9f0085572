// probe.hpp — Observation hook points of the event core.
//
// A Probe attached via Network::setProbe observes the simulation without
// perturbing it: hooks fire at the event core's state transitions (segment
// enqueue/dequeue, wire busy/idle, message release/delivery, blocked-wake)
// and an optional periodic sample rides the event queue as a dedicated
// event kind that is excluded from NetworkStats::eventsProcessed and never
// keeps a drained queue alive — a run's measured results (makespan, event
// and queue counters, per-wire busy time) are byte-identical with and
// without a probe attached (pinned by tests/obs/recorder_test.cpp).
//
// The disabled hot path is a single cached-pointer null check per hook
// site; the interface lives here (not in obs/) so sim does not depend on
// any concrete recorder.  obs::Recorder is the standard implementation.
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "xgft/topology.hpp"

namespace sim {

class Network;

/// Observation callbacks.  All hooks default to no-ops so implementations
/// override only what they consume.  Hooks run synchronously inside the
/// event core: they must not call back into the Network's mutating API
/// (read-only accessors are fine from onSample).
class Probe {
 public:
  virtual ~Probe() = default;

  /// Fired once by Network::setProbe — size per-port tables here.
  virtual void onAttach(const Network& /*net*/) {}

  /// A registered message became visible to its source adapter (both
  /// network-traversing and src == dst local deliveries).
  virtual void onMessageReleased(std::uint32_t /*msg*/,
                                 xgft::NodeIndex /*src*/,
                                 xgft::NodeIndex /*dst*/,
                                 std::uint64_t /*bytes*/, TimeNs /*t*/) {}

  /// All segments of the message arrived at its destination host.
  virtual void onMessageDelivered(std::uint32_t /*msg*/, TimeNs /*t*/) {}

  /// A segment joined a switch buffer FIFO; @p depth is the queue's
  /// occupancy including the new segment.  @p input distinguishes the
  /// input- from the output-buffer side of the port.
  virtual void onSegmentEnqueued(std::uint32_t /*gport*/, bool /*input*/,
                                 std::uint32_t /*depth*/, TimeNs /*t*/) {}

  /// A segment left a switch buffer FIFO; @p depth is the remaining
  /// occupancy.
  virtual void onSegmentDequeued(std::uint32_t /*gport*/, bool /*input*/,
                                 std::uint32_t /*depth*/, TimeNs /*t*/) {}

  /// The wire leaving @p gport started serializing a segment of message
  /// @p msg; it stays busy for @p serNs.
  virtual void onWireBusy(std::uint32_t /*gport*/, std::uint32_t /*msg*/,
                          TimeNs /*t*/, TimeNs /*serNs*/) {}

  /// The wire leaving @p gport finished serializing.
  virtual void onWireIdle(std::uint32_t /*gport*/, TimeNs /*t*/) {}

  /// Input @p gInPort parked in @p gOutPort's waiting list (head-of-line
  /// segment found the output buffer full) — the blocking attribution of
  /// queue buildup.
  virtual void onInputBlocked(std::uint32_t /*gInPort*/,
                              std::uint32_t /*gOutPort*/, TimeNs /*t*/) {}

  /// A previously parked input was woken round-robin by a freed output
  /// slot.
  virtual void onInputWoken(std::uint32_t /*gInPort*/, TimeNs /*t*/) {}

  /// The link @p link went down (scheduleLinkDown fired).  Fires once per
  /// transition — a kLinkDown for an already-down link is a no-op.
  virtual void onLinkDown(xgft::LinkId /*link*/, TimeNs /*t*/) {}

  /// The link @p link came back up (scheduleLinkUp fired).
  virtual void onLinkUp(xgft::LinkId /*link*/, TimeNs /*t*/) {}

  /// A segment queued at/behind the dead output @p gport was dropped under
  /// FaultPolicy::kStrand (or kReroute with no live alternative); its
  /// message is marked dropped and will never complete.
  virtual void onSegmentStranded(std::uint32_t /*gport*/,
                                 std::uint32_t /*msg*/, TimeNs /*t*/) {}

  /// A segment escaped a dead output under FaultPolicy::kReroute: it moved
  /// from @p fromGport to the live up-port @p toGport and continues
  /// adaptively (minimally) from there.
  virtual void onSegmentRerouted(std::uint32_t /*fromGport*/,
                                 std::uint32_t /*toGport*/,
                                 std::uint32_t /*msg*/, TimeNs /*t*/) {}

  /// Sampling cadence in simulated ns; 0 disables periodic sampling.
  /// Queried after every sample, so an implementation may stretch its
  /// cadence mid-run (the downsampling recorder does).
  [[nodiscard]] virtual TimeNs samplePeriodNs() const { return 0; }

  /// Periodic snapshot point, driven by the event queue.  @p net is
  /// safe for read-only queries (queue depths, wireBusyNs, stats).
  virtual void onSample(const Network& /*net*/, TimeNs /*t*/) {}
};

}  // namespace sim
