// network.hpp — Event-driven XGFT network simulator (the Venus substitute).
//
// Model (see DESIGN.md for the substitution rationale):
//
//  * Source routing.  A static message carries its route as an NCA
//    choice (RouteSet below): the pair's NCA level and which of its
//    nearest common ancestors the route climbs to.  A switch reads its
//    output on the way up from that choice's catalogue ascent
//    (xgft::Topology::ascent: the up-port taken at each level below the
//    NCA, word 0 being the NIC port) and on the way down from the
//    destination's label digit, where the minimal path is unique.
//  * Adapters.  Each host NIC keeps a round-robin list of active messages
//    per port; whenever the host link is free (and the first switch has
//    buffer credit) the NIC emits the *next segment of the next message* —
//    the per-segment interleaving of Sec. VI-B.
//  * Switches.  Input- and output-buffered: segments arriving on an input
//    port move (after the switch latency) into the FIFO output buffer of
//    their next hop when it has space; otherwise they wait in the input
//    buffer, and inputs blocked on the same output are served round-robin
//    as slots free up.  Input buffer occupancy is governed by credits, so
//    an upstream transmitter never overruns a full input buffer.
//  * Wires.  One segment at a time, serialization time exact in flit
//    arithmetic, plus a propagation latency.
//
// Up/down routes on a tree give an acyclic channel-dependency graph, so the
// credit protocol cannot deadlock; run() checks full drainage and throws on
// any stranded segment (a routing-table bug would surface here, not hang).
// On runs where link faults occurred (scheduleLinkDown) stranded traffic is
// expected, so the drain check converts it to dropped-message accounting
// instead of throwing (DESIGN.md §10).
//
// Data layout (DESIGN.md §7): the inner loop runs entirely over flat
// storage — POD events in per-delay FIFO lanes (event_queue.hpp),
// segments in a contiguous slot pool whose FIFO queues are intrusive
// `next` links (no per-port deques, no allocation after warm-up), and
// routes as NCA choices: a message carries its level and its candidate
// choices, a segment the choice it took and what its hops read of its
// message, and every up-port is read from the topology's catalogue.
// Messages live in a second recycled slot pool: a record is freed once its
// message completed or was dropped, has no segment in flight and sits on no
// NIC's active list, so memory follows the traffic in flight, not the run
// length.  That pool is paged (paged_vector.hpp): it grows a fixed-size
// page at a time and a record never moves, so a reference to a live record
// stays valid across anything that adds messages, a sink call included.
// The MsgId that addMessage* returns and the sink receives is the
// slot; everything else observable (spray hash, NIC striping, Probe hooks)
// sees the message's dense add-order sequence number instead.
//
// Determinism: ties in the event queue break by insertion order, so equal
// configurations and inputs replay identically on every platform.
//
// Overflow semantics are hardened, not silent: message sequence numbers,
// segment counts and the global-port space are 32-bit by design (the flat
// layout depends on it); any workload that would exceed them throws with a
// clear message instead of wrapping.  Slots never outnumber sequence
// numbers, so the guard on the latter covers both.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/paged_vector.hpp"
#include "xgft/rng.hpp"
#include "xgft/topology.hpp"

namespace sim {

using MsgId = std::uint32_t;
using Bytes = std::uint64_t;

class Probe;  // probe.hpp — observation hooks; sim never includes obs/.

/// How a multipath message distributes its segments over its routes.
/// Per-segment spraying is the packet-granular randomized routing of
/// Greenberg & Leiserson [16], provided as an extension (DESIGN.md):
/// segments of one message may arrive out of order, which the paper's
/// segment-reassembling adapters tolerate.
enum class SprayPolicy : std::uint8_t {
  kRoundRobin,  ///< Segment i takes route i mod |routes|.
  kRandom,      ///< Segment i takes a seeded pseudo-random route.
};

/// A static message's candidate routes, as NCA choices of the pair's NCA
/// level (xgft::Topology::ascent numbering): one inline choice for a table
/// or router route, or `count` choices read from a list for a spray set.
/// A route's up-ports are its choice's catalogue ascent, which lives as
/// long as the topology; only a list has an owner of its own (the
/// resolver), which must outlive the messages added over it.  Empty
/// (count 0) for local delivery (src == dst) and, from a resolver, for a
/// pair the active forwarding table declares unroutable (src != dst).
struct RouteSet {
  std::uint32_t level = 0;  ///< The pair's NCA level.
  std::uint32_t count = 0;  ///< Candidate choices.
  /// The candidate inline when count <= 1, else the list: 16 bytes in all,
  /// so a resolver returns a set in two registers.
  union {
    std::uint32_t choice = 0;       ///< The candidate when count == 1.
    const std::uint32_t* choices;  ///< The candidates when count > 1.
  };

  /// The one route through NCA choice @p c.
  [[nodiscard]] static RouteSet one(std::uint32_t level, std::uint32_t c) {
    RouteSet set;
    set.level = level;
    set.count = 1;
    set.choice = c;
    return set;
  }
  /// The candidates @p list (a one-entry list is stored inline).
  [[nodiscard]] static RouteSet of(std::uint32_t level,
                                   std::span<const std::uint32_t> list) {
    if (list.size() == 1) return one(level, list[0]);
    RouteSet set;
    set.level = level;
    set.count = static_cast<std::uint32_t>(list.size());
    if (set.count > 1) set.choices = list.data();
    return set;
  }
  [[nodiscard]] bool empty() const { return count == 0; }
  /// Candidate @p i's choice.
  [[nodiscard]] std::uint32_t at(std::uint32_t i) const {
    return count == 1 ? choice : choices[i];
  }
};
static_assert(sizeof(RouteSet) == 16, "RouteSet must stay 16 bytes");

/// What the event core does with traffic that meets a dead link
/// (scheduleLinkDown).  In every policy an in-flight segment completes its
/// serialization (kWireFree/kWireArrive events already scheduled proceed)
/// and only then the port blocks.
enum class FaultPolicy : std::uint8_t {
  /// Traffic queues behind the dead port and waits for a scheduleLinkUp;
  /// if none ever fires, the affected messages are converted to dropped
  /// when the queue drains (run() never hangs or throws on faulted runs).
  kWait,
  /// Segments queued at or routed to the dead port are dropped immediately
  /// (counted in NetworkStats::segmentsStranded) and their messages marked
  /// dropped.
  kStrand,
  /// Ascending segments escape through the least-occupied live up-port of
  /// the same switch (counted in segmentsRerouted) and continue minimally
  /// adaptive from there; descending segments have a unique minimal path,
  /// so they strand as under kStrand.
  kReroute,
};

/// Receives end-to-end message completions (the Dimemas coupling point).
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;
  /// @p msg is the handle addMessage* returned.  It is valid for the
  /// duration of the call; the network recycles its slot right after, so a
  /// later message may be handed the same value.
  virtual void onMessageDelivered(MsgId msg, TimeNs time) = 0;
};

/// Aggregate counters exposed after (or during) a run.
///
/// Validity contract (pinned by tests/sim/stats_test.cpp): every field is
/// meaningful at any Network::run(until) boundary, not only after a full
/// drain, and every field is monotone non-decreasing across resumed runs.
/// Mid-run they describe the prefix of the simulation processed so far:
///
///  * segmentsInjected / segmentsDelivered — cumulative counts; mid-run
///    `delivered <= injected` always holds and the difference is the number
///    of segments currently inside the network (in-flight invariant).
///    After a clean full drain the two are equal.
///  * messagesDelivered — cumulative completions, including src == dst
///    local deliveries (which never touch segment counters).
///  * eventsProcessed — queue events handled, the one in hand included: an
///    event counts from the moment its handler starts, so a sink or probe
///    called from a handler sees it counted.  Telemetry sampling events
///    (Probe) are explicitly excluded, so the count is identical with and
///    without a probe attached; it feeds the campaign CSV `events` column.
///  * lastDeliveryNs — time of the latest completion so far; only after the
///    queue drains is it the makespan.
///  * maxOutputQueueDepth / maxInputQueueDepth — high-water marks over the
///    prefix, not current occupancy (Network::outputQueueDepth /
///    inputQueueDepth expose instantaneous depths).
///  * segmentsRerouted / segmentsStranded / messagesDropped — fault
///    accounting (scheduleLinkDown + FaultPolicy); all zero on healthy
///    runs.  A stranded segment never delivers, so the in-flight invariant
///    weakens to `delivered + stranded <= injected` once faults occur.
///  * linkDownNs — cumulative down-time summed over links (a link down for
///    d ns contributes d once, not once per direction), accrued up to the
///    current run() boundary, so it is monotone across resumes.
struct NetworkStats {
  std::uint64_t segmentsInjected = 0;
  std::uint64_t segmentsDelivered = 0;
  std::uint64_t messagesDelivered = 0;
  std::uint64_t eventsProcessed = 0;
  TimeNs lastDeliveryNs = 0;
  std::uint32_t maxOutputQueueDepth = 0;
  std::uint32_t maxInputQueueDepth = 0;
  std::uint64_t segmentsRerouted = 0;
  std::uint64_t segmentsStranded = 0;
  std::uint64_t messagesDropped = 0;
  TimeNs linkDownNs = 0;
};

/// What a network did over a stretch that starts idle and ends idle with
/// its last delivery (Network::markIdle to Network::sinceMark), in the
/// terms Network::advanceIdle needs to stand in for it: the counters it
/// added, its own queue high-water marks and each wire's busy time.  An
/// idle network keeps nothing else that changes how the next traffic is
/// served, as long as no probe watches it and no link fails (DESIGN.md §2,
/// "Epoch reuse").
struct IdleDelta {
  TimeNs durationNs = 0;
  std::uint64_t segmentsInjected = 0;
  std::uint64_t segmentsDelivered = 0;
  std::uint64_t messagesDelivered = 0;
  std::uint64_t eventsProcessed = 0;
  std::uint32_t maxOutputQueueDepth = 0;
  std::uint32_t maxInputQueueDepth = 0;
  /// Busy nanoseconds the stretch added to one wire, in 8 bytes: a wire
  /// busy for 2^32 ns or more takes one entry per 2^32 - 1 ns.
  struct PortBusy {
    std::uint32_t port = 0;  ///< Global output port.
    std::uint32_t ns = 0;
  };
  /// The wires that serialized, by ascending port: O(ports touched), not
  /// O(messages).
  std::vector<PortBusy> busy;
};

class Network {
 public:
  /// Builds the port-level machine for @p topo.  The topology reference must
  /// outlive the Network.  Throws std::invalid_argument if the topology's
  /// port count does not fit the 32-bit global-port space.
  Network(const xgft::Topology& topo, SimConfig cfg);

  /// Registers the completion listener (optional).
  void setSink(TrafficSink* sink) { sink_ = sink; }

  /// Attaches an observation probe (optional; nullptr detaches).  Hooks
  /// fire synchronously from the event core; if the probe samples
  /// (samplePeriodNs() > 0) a dedicated queue event drives periodic
  /// onSample calls.  Observation is guaranteed non-perturbing: makespan,
  /// NetworkStats (including eventsProcessed) and per-wire busy times are
  /// identical with and without a probe.  The probe must outlive the runs
  /// it observes.
  void setProbe(Probe* probe);

  /// Registers a static message over @p routes; the message starts
  /// injecting only after release().  @p routes must be empty iff
  /// src == dst (local delivery: the message completes upon release,
  /// without touching the network), and otherwise hold in-range choices of
  /// the pair's NCA level that share their first hop (the NIC port, word 0
  /// of the ascent) — as trace::RouteSetResolver hands them out.  With
  /// more than one candidate each segment takes one per @p policy.
  /// Release builds check only the emptiness rule.
  MsgId addMessageSet(xgft::NodeIndex src, xgft::NodeIndex dst, Bytes bytes,
                      RouteSet routes,
                      SprayPolicy policy = SprayPolicy::kRoundRobin,
                      std::uint64_t spraySeed = 1);

  /// Registers a minimally-adaptive message (the adaptive routing the
  /// paper's Sec. I discusses via Gómez et al. [6]): no precomputed route —
  /// at every switch on the ascent the segment picks the least-occupied
  /// up-port (round-robin tie-breaking per switch) until it reaches an
  /// ancestor of the destination, then descends deterministically.  Routes
  /// stay minimal, so deadlock freedom is preserved.
  MsgId addMessageAdaptive(xgft::NodeIndex src, xgft::NodeIndex dst,
                           Bytes bytes);

  /// Makes the message visible to the source adapter at time @p t (must not
  /// precede the current simulation time).  Throws std::out_of_range for a
  /// handle that names no live message: never issued, or already completed
  /// or dropped (its slot was recycled).
  void release(MsgId msg, TimeNs t);

  /// Schedules an arbitrary callback (trace compute/barrier hooks).
  void scheduleCallback(TimeNs t, std::function<void()> fn);

  // ---- Link faults (src/fault/ drives these) -------------------------------

  /// How traffic that meets a dead link is handled; may be changed between
  /// runs (takes effect from the next fault transition processed).
  void setFaultPolicy(FaultPolicy policy) { faultPolicy_ = policy; }
  [[nodiscard]] FaultPolicy faultPolicy() const { return faultPolicy_; }

  /// Schedules the bidirectional link @p link to fail at time @p t: any
  /// segment serializing on either wire completes (and its arrival is
  /// honoured), then both directions block.  Queued/arriving traffic is
  /// handled per the FaultPolicy.  Failing an already-down link is a no-op
  /// at processing time.  Throws std::invalid_argument for an unknown link
  /// or a time in the past.
  void scheduleLinkDown(TimeNs t, xgft::LinkId link);

  /// Schedules @p link to come back into service at @p t; queued traffic
  /// behind it resumes.  Restoring an up link is a no-op.
  void scheduleLinkUp(TimeNs t, xgft::LinkId link);

  /// Is @p link currently failed?  (Reflects processed events only, not
  /// scheduled future transitions.)
  [[nodiscard]] bool linkIsDown(xgft::LinkId link) const;

  /// External drop accounting: a routing layer that refuses a message (an
  /// unreachable pair on a degraded topology) records it here so
  /// NetworkStats::messagesDropped covers both in-network strands and
  /// never-injected refusals.
  void noteMessageDropped() { ++stats_.messagesDropped; }

  /// Processes events until the queue drains (or @p until, if given).
  /// Throws std::runtime_error if released traffic is left stranded once
  /// the queue is empty — unless link faults occurred this run, in which
  /// case stuck messages are expected and are converted to dropped/stranded
  /// counts instead (faulted runs report, never hang or throw).
  void run(TimeNs until = std::numeric_limits<TimeNs>::max());

  // ---- Idle stretches (trace::Replayer's epoch memo drives these) ---------

  /// Nothing is scheduled and every message added so far has completed: no
  /// segment is in flight, every wire is idle, every buffer is empty and
  /// every credit is home.
  [[nodiscard]] bool idle() const;
  /// Starts a stretch on an idle network (throws std::logic_error
  /// otherwise); sinceMark() reads what the network did since.
  void markIdle();
  /// What the network did since markIdle().  The stretch must end idle, at
  /// the instant of its last delivery (throws std::logic_error otherwise).
  [[nodiscard]] IdleDelta sinceMark() const;
  /// Moves an idle network forward as if it had run @p delta: the clock by
  /// its duration, the counters and wire busy times by its sums, the queue
  /// high-water marks to the larger of the two, lastDeliveryNs to the new
  /// time.  The result equals running the stretch's traffic only when the
  /// delta was read on the same topology and configuration from the same
  /// messages released in the same order, routed alike, with no probe and
  /// no link fault (DESIGN.md §2); so it throws std::logic_error on a
  /// network that is not idle or has a probe attached.
  void advanceIdle(const IdleDelta& delta);
  /// A probe is attached (setProbe).
  [[nodiscard]] bool observed() const { return probe_ != nullptr; }
  /// A link went down at some point of the run (scheduleLinkDown).
  [[nodiscard]] bool faultsSeen() const { return faultsSeen_; }

  [[nodiscard]] TimeNs now() const { return now_; }
  /// The counters so far; by value, because the queue high-water marks
  /// combine the stretch since the last markIdle() with those before it.
  [[nodiscard]] NetworkStats stats() const;
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] const xgft::Topology& topology() const { return *topo_; }
  /// Event pushes the queue's delay lanes could not take (event_queue.hpp);
  /// zero on the paper's workloads, as tests/sim/event_queue_test pins.
  [[nodiscard]] std::uint64_t queueOverflowPushes() const {
    return queue_.overflowPushes();
  }
  /// Event pops that scanned the queue's lane heads instead of taking the
  /// current lane's head (event_queue.hpp); a small share of the pops on
  /// the paper's workloads, as tests/sim/event_queue_test bounds.
  [[nodiscard]] std::uint64_t queueRescans() const {
    return queue_.rescans();
  }
  /// Slots the message pool has handed out: the most messages ever live at
  /// once, not the number ever sent (completed and dropped messages recycle
  /// their slots), nor the capacity of the pool's pages.
  [[nodiscard]] std::size_t messageSlots() const { return messages_.size(); }

  /// Busy (serializing) nanoseconds of the wire leaving global port @p gport.
  [[nodiscard]] TimeNs wireBusyNs(std::uint32_t gport) const;

  /// Global output-port id crossed by hop (level, node, outPort) — exposed
  /// for utilization reports.
  [[nodiscard]] std::uint32_t globalPort(std::uint32_t level,
                                         xgft::NodeIndex node,
                                         std::uint32_t port) const;

  [[nodiscard]] std::uint32_t numGlobalPorts() const {
    return static_cast<std::uint32_t>(peer_.size());
  }

  /// Reverse port lookup: which node owns a global port.
  struct PortOwner {
    std::uint32_t level = 0;
    xgft::NodeIndex node = 0;
    std::uint32_t localPort = 0;
  };
  [[nodiscard]] const PortOwner& portOwnerOf(std::uint32_t gport) const {
    return portOwner_[gport];
  }

  /// Instantaneous buffer occupancies (segments) — probe/report queries;
  /// NetworkStats keeps the high-water marks.
  [[nodiscard]] std::uint32_t inputQueueDepth(std::uint32_t gport) const {
    return ports_[gport].inCount;
  }
  [[nodiscard]] std::uint32_t outputQueueDepth(std::uint32_t gport) const {
    return ports_[gport].outCount;
  }

 private:
  /// InjectionProcess keeps its source token in the message record and
  /// reads it back, with the release time, when the message completes.
  friend class InjectionProcess;

  /// Intrusive-list terminator for segment/message/port links.
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // The event queue packs the kind into 3 bits (event_queue.hpp), so at
  // most 8 kinds exist; kLinkDown/kLinkUp fill the space exactly.
  enum class Kind : std::uint8_t {
    kRelease,
    kWireArrive,
    kWireFree,
    kTransfer,
    kCallback,
    kSample,    ///< Probe sampling tick — excluded from eventsProcessed.
    kLinkDown,  ///< a = LinkId (fits: links < ports < 2^32).
    kLinkUp,    ///< a = LinkId.
  };

  /// One in-flight segment in the contiguous slot pool.  `next` threads the
  /// FIFO queue (input or output buffer) the segment currently sits in — a
  /// segment is in at most one queue at a time, so one link suffices.  The
  /// segment carries a copy of what its hops read of its message (`level`,
  /// `dst`, `adaptive`), so routing a hop never reads the message record;
  /// injection, delivery, probe hooks and fault handling do.
  struct Segment {
    MsgId msg = 0;
    std::uint32_t choice = 0;   ///< The NCA choice this segment climbs to.
    /// Hops completed so far: a minimal route has at most 2h <= 510.
    std::uint16_t hop = 0;
    std::uint8_t level = 0;     ///< Its message's NCA level.
    /// Picks every output on the fly: the segment of an adaptive message,
    /// or one that escaped a dead output port (FaultPolicy::kReroute), whose
    /// choice no longer describes the remaining hops.
    bool adaptive = false;
    std::uint32_t serNs = 0;    ///< Serialization time of its payload.
    std::uint32_t resolvedOut = 0;  ///< Output gport chosen at this switch.
    std::uint32_t next = kNil;      ///< Intrusive FIFO link / free-list link.
    std::uint32_t dst = 0;          ///< Its message's destination host.
  };
  static_assert(sizeof(Segment) == 28, "Segment must stay 28 bytes");

  /// Where a message slot is in its life: release() and host injection
  /// move it forward, completion or a fault drop frees it.
  enum class MsgState : std::uint8_t {
    kFree,    ///< On the free list; a handle naming it is stale.
    kAdded,   ///< Registered; its release event has not been handled.
    kQueued,  ///< Released and on its NIC's active round-robin list.
    kSent,    ///< Released and off that list: every segment injected, or
              ///< the rest abandoned after a fault dropped the message.
  };

  /// POD message record in the recycled slot pool.  A slot is freed when
  /// its message completed or was dropped, no segment of it is in flight
  /// (retiredSegments == injectedSegments) and it is not kQueued; the free
  /// list threads through `nextActive`.  A static message's route is its
  /// RouteSet, kept as `level`, `count`, `choice` and `choices`.
  struct Message {
    Bytes bytes = 0;
    std::uint64_t spraySeed = 1;
    std::uint64_t token = 0;  ///< InjectionProcess's source token.
    TimeNs releaseNs = 0;     ///< The time release() was given.
    /// RouteSet::choices: a spray set's list (count > 1), else null.
    const std::uint32_t* choices = nullptr;
    // Host indices fit 32 bits: the port-space guard keeps every host
    // below 2^32 - 1.
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    MsgId seq = 0;  ///< Dense add-order id: what every observer sees.
    std::uint32_t numSegments = 0;
    std::uint32_t injectedSegments = 0;
    /// Segments that left the network: delivered, or stranded by a fault
    /// (which drops the message, so a count that includes strands never
    /// completes it).
    std::uint32_t retiredSegments = 0;
    std::uint32_t count = 0;   ///< RouteSet::count (0: local, adaptive).
    std::uint32_t choice = 0;  ///< RouteSet::choice (count == 1).
    /// Host-adapter round-robin link while kQueued, free-list link while
    /// kFree.
    std::uint32_t nextActive = kNil;
    SprayPolicy policy = SprayPolicy::kRoundRobin;
    MsgState state = MsgState::kFree;
    std::uint8_t level = 0;  ///< RouteSet::level: the pair's NCA level.
    bool adaptive : 1 = false;
    bool dropped : 1 = false;  ///< Lost to a fault; will never complete.
  };
  static_assert(sizeof(Message) == 80, "Message must stay 80 bytes");

  /// Flat per-port state: all queues are intrusive head/tail links into the
  /// segment pool (inQ/outQ), the port array itself (waiting inputs) or the
  /// message table (host-adapter round robin).  Exactly one cache line per
  /// port — the waiting-list link lives in the cold side array waitLink_.
  struct PortState {
    std::uint32_t peer = 0;  ///< The gport this port's wire ends at.
    // Output side.
    std::uint32_t outHead = kNil;  ///< FIFO of segment pool indices.
    std::uint32_t outTail = kNil;
    std::uint32_t waitHead = kNil;  ///< Blocked input gports (RR order).
    std::uint32_t waitTail = kNil;
    std::uint32_t reserved = 0;  ///< Transfers in flight into the out FIFO.
    std::uint32_t credits = 0;   ///< Free slots at the peer's input buffer.
    std::uint32_t outCount = 0;
    // Input side.
    std::uint32_t inHead = kNil;  ///< FIFO of segment pool indices.
    std::uint32_t inTail = kNil;
    std::uint32_t inCount = 0;
    // Host adapter (host ports only): active-message round robin.
    std::uint32_t activeHead = kNil;  ///< FIFO of MsgIds.
    std::uint32_t activeTail = kNil;
    bool wireBusy = false;
    bool transferring = false;
    bool queuedWaiting = false;  ///< Already parked in some waiting list.
    bool down = false;           ///< This port's link is failed (both ends).
    // Accounting.
    TimeNs busyNs = 0;
  };
  static_assert(sizeof(PortState) == 64, "PortState must stay one cache line");

  void schedule(TimeNs t, Kind kind, std::uint32_t a, std::uint32_t seg = 0) {
    queue_.push(t, static_cast<std::uint8_t>(kind), a, seg);
  }
  /// (Re)schedules the probe's next sampling tick at now_ + period.
  void scheduleSample();

  /// A probe sampling tick due at @p t: not an event of the simulation.
  void handleSample(TimeNs t);
  void handleRelease(MsgId msg);
  void handleWireArrive(std::uint32_t gInPort, std::uint32_t seg);
  void handleWireFree(std::uint32_t gOutPort);
  void handleTransfer(std::uint32_t gInPort, std::uint32_t seg);
  void handleLinkDown(std::uint32_t link);
  void handleLinkUp(std::uint32_t link);

  void tryInjectHost(std::uint32_t gOutPort);
  void tryTransmitSwitch(std::uint32_t gOutPort);
  void startTransmission(std::uint32_t gOutPort, std::uint32_t seg);
  void tryAdvanceInput(std::uint32_t gInPort);
  /// tryAdvanceInput for an input woken from a waiting list: the blocked
  /// front segment's resolved output is still valid for static routes, so
  /// only adaptive segments re-resolve.
  void wakeInput(std::uint32_t gInPort);
  /// Shared tail of tryAdvanceInput/wakeInput: reserve the output slot or
  /// park the input in @p out's waiting list.
  void advanceInputTo(std::uint32_t gInPort, std::uint32_t seg,
                      std::uint32_t out);
  void serveWaitingInputs(std::uint32_t gOutPort);
  void returnCredit(std::uint32_t gOutPort);
  void deliverSegment(std::uint32_t gInPort, std::uint32_t seg);
  /// Counts @p msg delivered, tells the sink and the probe, then frees it.
  void completeMessage(MsgId msg);
  void outputDispatch(std::uint32_t gOutPort);

  // ---- fault machinery -----------------------------------------------------

  /// The child-side global port of @p link (its peer is the parent side).
  [[nodiscard]] std::uint32_t linkChildGport(std::uint32_t link) const;
  /// Strand-or-escape every segment queued in the dead output @p gOutPort
  /// (kStrand/kReroute only).
  void processDeadOutput(std::uint32_t gOutPort);
  /// Re-runs every input parked on the dead output @p gOutPort so its head
  /// segment is stranded or rerouted instead of waiting forever.
  void flushDeadWaiters(std::uint32_t gOutPort);
  /// Drops the head segment of @p gInPort's input queue (strand path).
  void strandInputHead(std::uint32_t gInPort);
  /// Least-occupied live up-port of the switch owning the dead output
  /// @p gOutPort, or kNil when the output descends (unique minimal path) or
  /// no live up-port remains.
  [[nodiscard]] std::uint32_t rerouteAlternative(std::uint32_t gOutPort);
  /// Drops segment @p seg, dequeued at @p gport, and with it its message.
  void strandSegment(std::uint32_t gport, std::uint32_t seg);
  /// Marks @p msg dropped (counted once) and frees it if nothing refers to
  /// it any more.
  void dropMessage(MsgId msg);
  /// Folds the pending down-time of currently-down links up to @p t into
  /// stats_.linkDownNs (called at run() boundaries).
  void accrueLinkDownTo(TimeNs t);

  // Intrusive FIFO helpers over the segment pool / message table.
  void segPushBack(std::uint32_t& head, std::uint32_t& tail,
                   std::uint32_t seg) {
    segments_[seg].next = kNil;
    if (tail == kNil) {
      head = seg;
    } else {
      segments_[tail].next = seg;
    }
    tail = seg;
  }
  std::uint32_t segPopFront(std::uint32_t& head, std::uint32_t& tail) {
    const std::uint32_t seg = head;
    head = segments_[seg].next;
    if (head == kNil) tail = kNil;
    return seg;
  }
  /// Appends @p msg to a host port's active-message round-robin FIFO.
  void activePushBack(PortState& port, MsgId msg) {
    messages_[msg].nextActive = kNil;
    if (port.activeTail == kNil) {
      port.activeHead = msg;
    } else {
      messages_[port.activeTail].nextActive = msg;
    }
    port.activeTail = msg;
  }

  /// Fills a message slot (a recycled one if any) with the bookkeeping
  /// shared by both add paths; guards the 32-bit sequence and
  /// segment-count spaces.
  MsgId addRecord(xgft::NodeIndex src, xgft::NodeIndex dst, Bytes bytes,
                  RouteSet routes, SprayPolicy policy, std::uint64_t spraySeed,
                  bool adaptive);

  /// Takes a segment slot for the next segment of message @p msg, record
  /// @p m: its payload's serialization time, its route choice and the
  /// header its hops read.
  [[nodiscard]] std::uint32_t allocSegment(MsgId msg, const Message& m);
  /// The NCA choice @p m's next segment takes: the only one of a
  /// single-route message, else the spray policy's pick among its
  /// candidates for segment number injectedSegments.  The one route pick.
  [[nodiscard]] static std::uint32_t pickChoice(const Message& m) {
    if (m.count <= 1) return m.choice;
    if (m.policy == SprayPolicy::kRoundRobin) {
      return m.choices[m.injectedSegments % m.count];
    }
    return m.choices[xgft::hashMix(m.spraySeed, m.seq, m.injectedSegments) %
                     m.count];
  }
  /// The catalogue ascent of NCA choice @p choice at @p level, from the
  /// cached per-level bases.
  [[nodiscard]] const std::uint32_t* ascent(std::uint32_t level,
                                            std::uint32_t choice) const {
    return levelAscents_[level] + static_cast<std::size_t>(choice) * level;
  }
  /// The NIC gport @p m leaves through: NIC port seq % w1 for an adaptive
  /// message, else word 0 of its candidates' shared ascent.
  [[nodiscard]] std::uint32_t hostPortOf(const Message& m) const;
  /// The output gport segment @p seg takes at the switch owning @p gInPort,
  /// where it has just arrived: the adaptive pick for adaptive and escaped
  /// segments, otherwise the static decode — before the NCA (hop < level)
  /// the switch sits at level hop and leaves through word hop of its
  /// choice's ascent, from the NCA on through dst's down-port at its level.
  /// The one next-hop read; it reads the segment and the ports only.
  [[nodiscard]] std::uint32_t nextOutput(std::uint32_t gInPort,
                                         const Segment& seg);
  /// Picks the output gport for an adaptive segment sitting at the node
  /// owning @p gInPort; reads the segment's header, not its message.
  [[nodiscard]] std::uint32_t resolveAdaptive(std::uint32_t gInPort,
                                              const Segment& seg);
  /// Local down-port a level-@p level switch above @p dst leaves through
  /// towards it: dst's label digit @p level.
  [[nodiscard]] std::uint32_t downPort(std::uint32_t level,
                                       std::uint32_t dst) const {
    return downPorts_[static_cast<std::size_t>(dst) * height_ + level - 1];
  }
  void freeSegment(std::uint32_t seg) {
    segments_[seg].next = freeSegments_;
    freeSegments_ = seg;
  }
  /// Returns @p msg's slot to the free list; the caller has checked the
  /// free rule (see Message).
  void freeMessage(MsgId msg) {
    Message& m = messages_[msg];
    m.state = MsgState::kFree;
    m.nextActive = freeMessages_;
    freeMessages_ = msg;
  }
  /// Frees a dropped message once its last in-flight segment retired and
  /// it left its NIC's active list.
  void freeIfDrained(MsgId msg) {
    const Message& m = messages_[msg];
    if (m.dropped && m.state == MsgState::kSent &&
        m.retiredSegments == m.injectedSegments) {
      freeMessage(msg);
    }
  }
  [[nodiscard]] bool isHostPort(std::uint32_t gport) const {
    return gport < hostPortEnd_;
  }
  [[nodiscard]] std::uint32_t segmentPayload(const Message& m,
                                             std::uint32_t index) const;
  [[nodiscard]] std::uint32_t segmentCountOf(Bytes bytes) const;

  const xgft::Topology* topo_;
  SimConfig cfg_;
  /// serializationNs(segmentBytes), precomputed; fits Segment::serNs.
  TimeNs serFullNs_ = 0;
  TrafficSink* sink_ = nullptr;
  Probe* probe_ = nullptr;     ///< Cached enabled flag: null == disabled.
  bool samplePending_ = false; ///< A kSample event sits in the queue.

  std::vector<std::uint64_t> portBase_;  ///< Per global node id.
  std::vector<std::uint32_t> peer_;      ///< Peer gport per gport.
  std::vector<PortOwner> portOwner_;     ///< Owning node per gport.
  // The static decode's per-hop constants (nextOutput), cached because
  // Topology answers them through bounds-checked vectors.
  std::uint32_t height_ = 0;
  std::vector<std::uint32_t> upPortBase_;  ///< Topology::upPortBase by level.
  /// Topology::ascent(level, 0) by level: where the level's catalogue
  /// ascents start.  The words live as long as the topology.
  std::vector<const std::uint32_t*> levelAscents_;
  /// downPorts_[dst * h + level - 1]: downPort(level, dst), n * h words.
  std::vector<std::uint32_t> downPorts_;
  std::vector<std::uint32_t> adaptiveRR_;  ///< Per-node tie-break rotor.
  std::uint32_t hostPortEnd_ = 0;        ///< Host ports occupy [0, end).

  std::vector<PortState> ports_;
  std::vector<std::uint32_t> waitLink_;  ///< Per-port waiting-list link.
  PagedVector<Message> messages_;        ///< Slot pool; records never move.
  MsgId freeMessages_ = kNil;            ///< Free-list head (nextActive).
  MsgId nextSeq_ = 0;                    ///< Next Message::seq.
  std::vector<Segment> segments_;        ///< Slot pool.
  std::uint32_t freeSegments_ = kNil;    ///< Free-list head (next links).

  EventQueue queue_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> freeCallbackSlots_;
  TimeNs now_ = 0;
  /// The counters; the queue high-water marks here cover only the stretch
  /// since the last markIdle(), and the ones before it are held below.
  NetworkStats stats_;
  std::uint32_t heldMaxOutputQueueDepth_ = 0;
  std::uint32_t heldMaxInputQueueDepth_ = 0;

  // The last markIdle(): its time, its counters and every wire's busy time.
  TimeNs markNs_ = 0;
  NetworkStats markStats_;
  std::vector<TimeNs> markBusyNs_;  ///< Empty until the first mark.

  /// A currently-down link and when its latest outage started (or the last
  /// run() boundary that already accrued it).
  struct DownLink {
    std::uint32_t link = 0;
    TimeNs since = 0;
  };
  std::vector<DownLink> downLinks_;
  FaultPolicy faultPolicy_ = FaultPolicy::kWait;
  bool faultsSeen_ = false;  ///< Any kLinkDown ever processed.
};

/// Wire utilization over @p spanNs from Network::wireBusyNs: the busy
/// fraction of the busiest wire and the mean over wires that carried
/// traffic.  The single implementation behind the engine's util_max /
/// util_mean CSV columns and the open-loop runner.
struct WireUtilization {
  double max = 0.0;
  double mean = 0.0;
};
[[nodiscard]] WireUtilization wireUtilization(const Network& net,
                                              TimeNs spanNs);

}  // namespace sim
