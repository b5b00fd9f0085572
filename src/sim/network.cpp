#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sim/probe.hpp"
#include <stdexcept>
#include <string>

namespace sim {

namespace {
constexpr std::uint32_t kNoPeer = 0xffffffffu;
}  // namespace

Network::Network(const xgft::Topology& topo, SimConfig cfg)
    : topo_(&topo), cfg_(cfg),
      serFullNs_(cfg.serializationNs(cfg.segmentBytes)) {
  // A segment stores its serialization time in 32 bits, and no payload
  // serializes longer than a full segment's.
  if (serFullNs_ > 0xffffffffull) {
    throw std::invalid_argument(
        "Network: a " + std::to_string(cfg.segmentBytes) +
        "-byte segment serializes in " + std::to_string(serFullNs_) +
        " ns — exceeds the 32-bit per-segment time; raise "
        "SimConfig::linkGbps or lower SimConfig::segmentBytes");
  }
  const std::uint32_t h = topo.height();
  // Port bases per global node (hosts first, then switches level by level).
  portBase_.resize(topo.numNodes());
  std::uint64_t base = 0;
  for (std::uint32_t l = 0; l <= h; ++l) {
    const std::uint32_t perNode = topo.numPorts(l);
    for (xgft::NodeIndex idx = 0; idx < topo.nodesAtLevel(l); ++idx) {
      portBase_[topo.globalId(l, idx)] = base;
      base += perNode;
    }
    if (l == 0) hostPortEnd_ = static_cast<std::uint32_t>(base);
  }
  if (base > 0xfffffff0ull) {
    throw std::invalid_argument(
        "Network: topology needs " + std::to_string(base) +
        " global ports — exceeds the 32-bit port-id space");
  }
  ports_.resize(base);
  peer_.assign(base, kNoPeer);
  portOwner_.resize(base);
  for (std::uint32_t l = 0; l <= h; ++l) {
    for (xgft::NodeIndex idx = 0; idx < topo.nodesAtLevel(l); ++idx) {
      const std::uint64_t nodeBase = portBase_[topo.globalId(l, idx)];
      for (std::uint32_t p = 0; p < topo.numPorts(l); ++p) {
        portOwner_[nodeBase + p] = PortOwner{l, idx, p};
      }
    }
  }
  adaptiveRR_.assign(topo.numNodes(), 0);
  // Message::level and Segment::level hold an NCA level in one byte, and
  // Segment::hop counts the at most 2h hops of a minimal route.
  static_assert(2 * 0xff <= std::numeric_limits<decltype(Segment::hop)>::max(),
                "Segment::hop must count 2h hops for every accepted h");
  if (h > 0xff) {
    throw std::invalid_argument("Network: tree higher than 255 levels");
  }
  height_ = h;
  upPortBase_.resize(h + 1);
  levelAscents_.resize(h + 1);
  for (std::uint32_t l = 0; l <= h; ++l) {
    upPortBase_[l] = topo.upPortBase(l);
    levelAscents_[l] = topo.ascent(l, 0).data();
  }
  downPorts_.resize(static_cast<std::size_t>(topo.numHosts()) * h);
  for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
    for (std::uint32_t l = 1; l <= h; ++l) {
      downPorts_[static_cast<std::size_t>(d) * h + l - 1] =
          topo.digit(0, d, l);
    }
  }

  // Wire the peers: every up-link connects (child, upPort) <-> (parent,
  // downPort = child's M_{l+1} digit).
  for (std::uint32_t l = 0; l < h; ++l) {
    for (xgft::NodeIndex idx = 0; idx < topo.nodesAtLevel(l); ++idx) {
      for (std::uint32_t p = 0; p < topo.params().w(l + 1); ++p) {
        const std::uint32_t childGport = static_cast<std::uint32_t>(
            portBase_[topo.globalId(l, idx)] + topo.upPortBase(l) + p);
        const xgft::NodeIndex parent = topo.parentIndex(l, idx, p);
        const std::uint32_t downPort = topo.digit(l, idx, l + 1);
        const std::uint32_t parentGport = static_cast<std::uint32_t>(
            portBase_[topo.globalId(l + 1, parent)] + downPort);
        peer_[childGport] = parentGport;
        peer_[parentGport] = childGport;
      }
    }
  }
  waitLink_.assign(base, kNil);
  for (std::uint32_t g = 0; g < peer_.size(); ++g) {
    if (peer_[g] == kNoPeer) {
      throw std::logic_error("Network: unwired port " + std::to_string(g));
    }
    ports_[g].peer = peer_[g];
    ports_[g].credits = cfg_.inputBufferSegments;
  }
}

std::uint32_t Network::globalPort(std::uint32_t level, xgft::NodeIndex node,
                                  std::uint32_t port) const {
  return static_cast<std::uint32_t>(portBase_[topo_->globalId(level, node)] +
                                    port);
}

std::uint32_t Network::segmentCountOf(Bytes bytes) const {
  const Bytes segments =
      std::max<Bytes>(1, (bytes + cfg_.segmentBytes - 1) / cfg_.segmentBytes);
  if (segments > 0xffffffffull) {
    throw std::invalid_argument(
        "Network: a " + std::to_string(bytes) + "-byte message needs " +
        std::to_string(segments) +
        " segments — exceeds the 32-bit segment counter; split the message "
        "or raise SimConfig::segmentBytes");
  }
  return static_cast<std::uint32_t>(segments);
}

MsgId Network::addRecord(xgft::NodeIndex src, xgft::NodeIndex dst, Bytes bytes,
                         RouteSet routes, SprayPolicy policy,
                         std::uint64_t spraySeed, bool adaptive) {
  if (nextSeq_ == kNil) {
    throw std::length_error(
        "Network: message-id space exhausted (2^32 - 1 messages) — shard "
        "the workload across simulations or widen sim::MsgId");
  }
  Message m;
  m.src = static_cast<std::uint32_t>(src);
  m.dst = static_cast<std::uint32_t>(dst);
  m.seq = nextSeq_;
  m.bytes = bytes;
  m.numSegments = segmentCountOf(bytes);
  m.count = routes.count;
  if (routes.count > 1) {
    m.choices = routes.choices;
  } else {
    m.choice = routes.choice;
  }
  m.level = static_cast<std::uint8_t>(routes.level);
  m.spraySeed = spraySeed;
  m.policy = policy;
  m.state = MsgState::kAdded;
  m.adaptive = adaptive;
  ++nextSeq_;
  // Slots never outnumber sequence numbers, so a new slot index stays
  // below kNil.
  MsgId slot = freeMessages_;
  if (slot != kNil) {
    freeMessages_ = messages_[slot].nextActive;
    messages_[slot] = m;
  } else {
    slot = static_cast<MsgId>(messages_.size());
    messages_.push_back(m);
  }
  return slot;
}

MsgId Network::addMessageSet(xgft::NodeIndex src, xgft::NodeIndex dst,
                             Bytes bytes, RouteSet routes, SprayPolicy policy,
                             std::uint64_t spraySeed) {
  if (routes.empty() != (src == dst)) {
    throw std::invalid_argument(
        "addMessageSet: route set and endpoints disagree (empty iff src == "
        "dst)");
  }
  // Checked where it is free; release builds trust the set's producer.
  assert(routes.level == topo_->ncaLevel(src, dst));
  return addRecord(src, dst, bytes, routes, policy, spraySeed,
                   /*adaptive=*/false);
}

MsgId Network::addMessageAdaptive(xgft::NodeIndex src, xgft::NodeIndex dst,
                                  Bytes bytes) {
  // Adaptive segments pick every switch port on the fly, so the message
  // has no route; only its NIC port is predetermined (hostPortOf).
  return addRecord(src, dst, bytes, RouteSet{}, SprayPolicy::kRoundRobin, 1,
                   /*adaptive=*/true);
}

void Network::release(MsgId msg, TimeNs t) {
  if (msg >= messages_.size() || messages_[msg].state == MsgState::kFree) {
    throw std::out_of_range("release: unknown or already finished message");
  }
  if (t < now_) {
    throw std::invalid_argument("release: time in the past");
  }
  messages_[msg].releaseNs = t;
  schedule(t, Kind::kRelease, msg);
}

void Network::scheduleCallback(TimeNs t, std::function<void()> fn) {
  if (t < now_) {
    throw std::invalid_argument("scheduleCallback: time in the past");
  }
  std::uint32_t slot;
  if (!freeCallbackSlots_.empty()) {
    slot = freeCallbackSlots_.back();
    freeCallbackSlots_.pop_back();
    callbacks_[slot] = std::move(fn);
  } else {
    if (callbacks_.size() >= 0xffffffffull) {
      throw std::length_error(
          "Network: callback-slot space exhausted (2^32 pending callbacks)");
    }
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  }
  schedule(t, Kind::kCallback, slot);
}

std::uint32_t Network::linkChildGport(std::uint32_t link) const {
  const xgft::LinkInfo li = topo_->linkInfo(link);
  return static_cast<std::uint32_t>(
      portBase_[topo_->globalId(li.level, li.child)] +
      topo_->upPortBase(li.level) + li.parentPort);
}

void Network::scheduleLinkDown(TimeNs t, xgft::LinkId link) {
  if (link >= topo_->numLinks()) {
    throw std::invalid_argument(
        "scheduleLinkDown: link " + std::to_string(link) +
        " out of range (topology has " + std::to_string(topo_->numLinks()) +
        " links)");
  }
  if (t < now_) {
    throw std::invalid_argument("scheduleLinkDown: time in the past");
  }
  schedule(t, Kind::kLinkDown, static_cast<std::uint32_t>(link));
}

void Network::scheduleLinkUp(TimeNs t, xgft::LinkId link) {
  if (link >= topo_->numLinks()) {
    throw std::invalid_argument(
        "scheduleLinkUp: link " + std::to_string(link) +
        " out of range (topology has " + std::to_string(topo_->numLinks()) +
        " links)");
  }
  if (t < now_) {
    throw std::invalid_argument("scheduleLinkUp: time in the past");
  }
  schedule(t, Kind::kLinkUp, static_cast<std::uint32_t>(link));
}

bool Network::linkIsDown(xgft::LinkId link) const {
  if (link >= topo_->numLinks()) {
    throw std::invalid_argument("linkIsDown: link " + std::to_string(link) +
                                " out of range");
  }
  return ports_[linkChildGport(static_cast<std::uint32_t>(link))].down;
}

void Network::setProbe(Probe* probe) {
  probe_ = probe;
  if (probe_ == nullptr) return;
  probe_->onAttach(*this);
  if (probe_->samplePeriodNs() > 0 && !samplePending_) scheduleSample();
}

void Network::scheduleSample() {
  const TimeNs period = probe_->samplePeriodNs();
  schedule(now_ + period, Kind::kSample, 0);
  samplePending_ = true;
}

void Network::run(TimeNs until) {
  EventRecord ev;
  while (queue_.popUntil(until, ev)) {
    const TimeNs before = now_;
    now_ = ev.t;
    switch (static_cast<Kind>(ev.kind())) {
      case Kind::kRelease:
        handleRelease(ev.a);
        break;
      case Kind::kWireArrive:
        handleWireArrive(ev.a, ev.seg);
        break;
      case Kind::kWireFree:
        handleWireFree(ev.a);
        break;
      case Kind::kTransfer:
        handleTransfer(ev.a, ev.seg);
        break;
      case Kind::kCallback: {
        // Move the closure out before invoking: the slot is recycled, and
        // the callback may itself schedule new callbacks into it.
        std::function<void()> fn = std::move(callbacks_[ev.a]);
        freeCallbackSlots_.push_back(ev.a);
        fn();
        break;
      }
      case Kind::kSample:
        samplePending_ = false;
        if (probe_ != nullptr) {
          probe_->onSample(*this, now_);
          // Reschedule only while other events remain: the sampler can
          // never keep an otherwise drained queue alive, so termination
          // and the stranded-traffic check are unaffected.
          if (probe_->samplePeriodNs() > 0 && !queue_.empty()) {
            scheduleSample();
          }
        }
        // Sampling must not perturb measured results: a tick is not
        // counted in eventsProcessed, and the clock goes back to the last
        // event's time, so a trailing tick neither lengthens an outage
        // nor moves now().
        now_ = before;
        continue;
      case Kind::kLinkDown:
        handleLinkDown(ev.a);
        break;
      case Kind::kLinkUp:
        handleLinkUp(ev.a);
        break;
    }
    ++stats_.eventsProcessed;
  }
  // Stats are valid at every run() boundary: fold pending outage time in.
  if (!downLinks_.empty()) accrueLinkDownTo(now_);
  if (queue_.empty()) {
    // Completed messages already gave their slots back, so every released
    // live slot that is not dropped holds an undelivered message.
    std::uint64_t stranded = 0;
    for (MsgId i = 0; i < messages_.size(); ++i) {
      const Message& m = messages_[i];
      const bool released =
          m.state == MsgState::kQueued || m.state == MsgState::kSent;
      if (!released || m.dropped) continue;
      if (faultsSeen_) {
        // Expected loss on a faulted run: traffic waiting behind a link
        // that never came back (or whose remaining segments were gated at
        // a down host port).  Segments still inside the network at drain
        // are stranded by definition, but they stay where they sit: the
        // slot is freed by the usual rule only if a restored link later
        // lets them retire and the NIC skips the message.
        stats_.segmentsStranded += m.injectedSegments - m.retiredSegments;
        dropMessage(i);
      } else {
        ++stranded;
      }
    }
    if (stranded > 0) {
      throw std::runtime_error(
          "Network::run: event queue drained with " +
          std::to_string(stranded) +
          " undelivered released message(s) — routing or flow-control bug");
    }
  }
}

void Network::accrueLinkDownTo(TimeNs t) {
  for (DownLink& dl : downLinks_) {
    stats_.linkDownNs += t - dl.since;
    dl.since = t;
  }
}

TimeNs Network::wireBusyNs(std::uint32_t gport) const {
  return ports_.at(gport).busyNs;
}

void Network::handleLinkDown(std::uint32_t link) {
  const std::uint32_t childG = linkChildGport(link);
  const std::uint32_t parentG = ports_[childG].peer;
  if (ports_[childG].down) return;  // Already failed: transition no-op.
  faultsSeen_ = true;
  ports_[childG].down = true;
  ports_[parentG].down = true;
  downLinks_.push_back(DownLink{link, now_});
  if (probe_ != nullptr) probe_->onLinkDown(link, now_);
  if (faultPolicy_ != FaultPolicy::kWait) {
    // Eagerly resolve everything queued at or parked on the dead outputs;
    // under kWait it all simply waits for a restore.
    processDeadOutput(childG);
    processDeadOutput(parentG);
    flushDeadWaiters(childG);
    flushDeadWaiters(parentG);
  }
}

void Network::handleLinkUp(std::uint32_t link) {
  const std::uint32_t childG = linkChildGport(link);
  const std::uint32_t parentG = ports_[childG].peer;
  if (!ports_[childG].down) return;  // Already up: transition no-op.
  for (std::size_t i = 0; i < downLinks_.size(); ++i) {
    if (downLinks_[i].link == link) {
      stats_.linkDownNs += now_ - downLinks_[i].since;
      downLinks_[i] = downLinks_.back();
      downLinks_.pop_back();
      break;
    }
  }
  ports_[childG].down = false;
  ports_[parentG].down = false;
  if (probe_ != nullptr) probe_->onLinkUp(link, now_);
  // Restart both directions: queued output segments transmit again and
  // parked inputs are served as slots free up.
  outputDispatch(childG);
  outputDispatch(parentG);
  serveWaitingInputs(childG);
  serveWaitingInputs(parentG);
}

void Network::dropMessage(MsgId msg) {
  Message& m = messages_[msg];
  assert(m.state != MsgState::kFree);
  if (!m.dropped) {
    m.dropped = true;
    ++stats_.messagesDropped;
  }
  freeIfDrained(msg);
}

void Network::strandSegment(std::uint32_t gport, std::uint32_t seg) {
  const MsgId msg = segments_[seg].msg;
  ++stats_.segmentsStranded;
  ++messages_[msg].retiredSegments;
  if (probe_ != nullptr) {
    probe_->onSegmentStranded(gport, messages_[msg].seq, now_);
  }
  dropMessage(msg);
  freeSegment(seg);
}

std::uint32_t Network::rerouteAlternative(std::uint32_t gOutPort) {
  const PortOwner& owner = portOwner_[gOutPort];
  // Host NICs are gated, not rerouted (the NIC port is fixed per message),
  // and a descending output has a unique minimal continuation.
  if (owner.level == 0) return kNil;
  const std::uint32_t upBase = topo_->upPortBase(owner.level);
  if (owner.localPort < upBase) return kNil;
  // The dead output ascends, so this switch is not an ancestor of the
  // destination and *any* live up-port preserves minimality; pick the
  // least-occupied one like resolveAdaptive does.
  const std::uint32_t numUp = topo_->params().w(owner.level + 1);
  const xgft::GlobalNodeId nid = topo_->globalId(owner.level, owner.node);
  const std::uint32_t start = adaptiveRR_[nid]++ % numUp;
  std::uint32_t best = kNil;
  std::uint64_t bestScore = ~std::uint64_t{0};
  for (std::uint32_t i = 0; i < numUp; ++i) {
    const std::uint32_t p = (start + i) % numUp;
    const std::uint32_t gout = globalPort(owner.level, owner.node, upBase + p);
    const PortState& out = ports_[gout];
    if (out.down) continue;
    const std::uint64_t score =
        (static_cast<std::uint64_t>(out.outCount) + out.reserved) * 2 +
        (out.wireBusy ? 1 : 0);
    if (score < bestScore) {
      bestScore = score;
      best = gout;
    }
  }
  return best;
}

void Network::processDeadOutput(std::uint32_t gOutPort) {
  PortState& port = ports_[gOutPort];
  while (port.outHead != kNil) {
    const std::uint32_t seg = segPopFront(port.outHead, port.outTail);
    --port.outCount;
    if (probe_ != nullptr) {
      probe_->onSegmentDequeued(gOutPort, /*input=*/false, port.outCount,
                                now_);
    }
    std::uint32_t alt = kNil;
    if (faultPolicy_ == FaultPolicy::kReroute) {
      alt = rerouteAlternative(gOutPort);
      if (alt != kNil && ports_[alt].outCount + ports_[alt].reserved >=
                             cfg_.outputBufferSegments) {
        alt = kNil;  // The escape hatch is full; strand instead.
      }
    }
    if (alt == kNil) {
      strandSegment(gOutPort, seg);
      continue;
    }
    segments_[seg].adaptive = true;
    segments_[seg].resolvedOut = alt;
    ++stats_.segmentsRerouted;
    PortState& altPort = ports_[alt];
    segPushBack(altPort.outHead, altPort.outTail, seg);
    ++altPort.outCount;
    stats_.maxOutputQueueDepth =
        std::max(stats_.maxOutputQueueDepth, altPort.outCount);
    if (probe_ != nullptr) {
      probe_->onSegmentRerouted(gOutPort, alt,
                                messages_[segments_[seg].msg].seq, now_);
      probe_->onSegmentEnqueued(alt, /*input=*/false, altPort.outCount, now_);
    }
    tryTransmitSwitch(alt);
  }
}

void Network::flushDeadWaiters(std::uint32_t gOutPort) {
  PortState& port = ports_[gOutPort];
  std::uint32_t in = port.waitHead;
  port.waitHead = kNil;
  port.waitTail = kNil;
  while (in != kNil) {
    const std::uint32_t next = waitLink_[in];
    ports_[in].queuedWaiting = false;
    if (probe_ != nullptr) probe_->onInputWoken(in, now_);
    // The woken input's head still resolves to the dead output, so
    // advanceInputTo's fault branch strands or reroutes it.
    wakeInput(in);
    in = next;
  }
}

void Network::strandInputHead(std::uint32_t gInPort) {
  PortState& port = ports_[gInPort];
  const std::uint32_t seg = segPopFront(port.inHead, port.inTail);
  --port.inCount;
  if (probe_ != nullptr) {
    probe_->onSegmentDequeued(gInPort, /*input=*/true, port.inCount, now_);
  }
  strandSegment(gInPort, seg);
  returnCredit(port.peer);
  tryAdvanceInput(gInPort);
}

void Network::handleRelease(MsgId msg) {
  Message& m = messages_[msg];
  assert(m.state == MsgState::kAdded);
  if (probe_ != nullptr) {
    probe_->onMessageReleased(m.seq, m.src, m.dst, m.bytes, now_);
  }
  if (m.src == m.dst) {
    // Local delivery: never enters the network (Sec. III self-flows).
    completeMessage(msg);
    return;
  }
  m.state = MsgState::kQueued;
  const std::uint32_t hostPort = hostPortOf(m);
  activePushBack(ports_[hostPort], msg);
  tryInjectHost(hostPort);
}

std::uint32_t Network::hostPortOf(const Message& m) const {
  // The host uplink is fixed per message: a static message's candidates
  // share their ascents' word 0; adaptive messages stripe across the NIC
  // ports by sequence number (w1 = 1 in the paper's trees).
  const std::uint32_t port =
      m.adaptive ? m.seq % topo_->params().w(1)
                 : ascent(m.level, m.count == 1 ? m.choice : m.choices[0])[0];
  return globalPort(0, m.src, port);
}

std::uint32_t Network::segmentPayload(const Message& m,
                                      std::uint32_t index) const {
  const Bytes offset = static_cast<Bytes>(index) * cfg_.segmentBytes;
  const Bytes remaining = m.bytes > offset ? m.bytes - offset : 0;
  return static_cast<std::uint32_t>(
      std::min<Bytes>(remaining, cfg_.segmentBytes));
}

std::uint32_t Network::allocSegment(MsgId msg, const Message& m) {
  std::uint32_t idx;
  if (freeSegments_ != kNil) {
    idx = freeSegments_;
    freeSegments_ = segments_[idx].next;
  } else {
    if (segments_.size() >= kNil) {
      throw std::length_error(
          "Network: segment pool exhausted (2^32 - 1 slots)");
    }
    idx = static_cast<std::uint32_t>(segments_.size());
    segments_.emplace_back();
  }
  // Full segments dominate; their time is precomputed, which keeps the
  // floating-point flit arithmetic off the hot path.
  const std::uint32_t bytes = segmentPayload(m, m.injectedSegments);
  const TimeNs ser =
      bytes == cfg_.segmentBytes ? serFullNs_ : cfg_.serializationNs(bytes);
  segments_[idx] = Segment{.msg = msg,
                           .choice = pickChoice(m),
                           .hop = 0,
                           .level = m.level,
                           .adaptive = m.adaptive,
                           .serNs = static_cast<std::uint32_t>(ser),
                           .resolvedOut = 0,
                           .next = kNil,
                           .dst = m.dst};
  return idx;
}

void Network::tryInjectHost(std::uint32_t gOutPort) {
  PortState& port = ports_[gOutPort];
  if (faultsSeen_) {
    if (port.down) return;
    // Skip over messages dropped by a fault: their remaining segments are
    // never injected, and one whose last segment already retired is free
    // to go.
    while (port.activeHead != kNil && messages_[port.activeHead].dropped) {
      const MsgId dead = port.activeHead;
      port.activeHead = messages_[dead].nextActive;
      if (port.activeHead == kNil) port.activeTail = kNil;
      messages_[dead].state = MsgState::kSent;
      freeIfDrained(dead);
    }
  }
  if (port.wireBusy || port.credits == 0 || port.activeHead == kNil) return;
  const MsgId msgId = port.activeHead;
  Message& m = messages_[msgId];
  assert(m.state == MsgState::kQueued);
  port.activeHead = m.nextActive;
  if (port.activeHead == kNil) port.activeTail = kNil;
  const std::uint32_t seg = allocSegment(msgId, m);
  ++m.injectedSegments;
  ++stats_.segmentsInjected;
  // Round robin: messages with segments left rejoin the tail, so concurrent
  // messages interleave segment by segment (Sec. VI-B).
  if (m.injectedSegments < m.numSegments) {
    activePushBack(port, msgId);
  } else {
    m.state = MsgState::kSent;
  }
  startTransmission(gOutPort, seg);
}

void Network::startTransmission(std::uint32_t gOutPort, std::uint32_t seg) {
  PortState& port = ports_[gOutPort];
  assert(!port.wireBusy && port.credits > 0);
  port.wireBusy = true;
  --port.credits;
  const TimeNs ser = segments_[seg].serNs;
  port.busyNs += ser;
  if (probe_ != nullptr) {
    probe_->onWireBusy(gOutPort, messages_[segments_[seg].msg].seq, now_,
                       ser);
  }
  schedule(now_ + ser, Kind::kWireFree, gOutPort);
  schedule(now_ + ser + cfg_.linkLatencyNs, Kind::kWireArrive, port.peer,
           seg);
}

void Network::outputDispatch(std::uint32_t gOutPort) {
  if (isHostPort(gOutPort)) {
    tryInjectHost(gOutPort);
  } else {
    tryTransmitSwitch(gOutPort);
  }
}

void Network::handleWireFree(std::uint32_t gOutPort) {
  ports_[gOutPort].wireBusy = false;
  if (probe_ != nullptr) probe_->onWireIdle(gOutPort, now_);
  outputDispatch(gOutPort);
}

void Network::tryTransmitSwitch(std::uint32_t gOutPort) {
  PortState& port = ports_[gOutPort];
  if (port.wireBusy || port.down || port.credits == 0 || port.outHead == kNil)
    return;
  const std::uint32_t seg = segPopFront(port.outHead, port.outTail);
  --port.outCount;
  if (probe_ != nullptr) {
    probe_->onSegmentDequeued(gOutPort, /*input=*/false, port.outCount, now_);
  }
  startTransmission(gOutPort, seg);
  serveWaitingInputs(gOutPort);
}

void Network::handleWireArrive(std::uint32_t gInPort, std::uint32_t seg) {
  Segment& segment = segments_[seg];
  ++segment.hop;
  if (isHostPort(gInPort)) {
    // Arriving at a host means delivery (the descent always ends at the
    // destination; static routes are catalogue ascents of the pair's NCA
    // level and adaptive segments are minimal by construction).
    deliverSegment(gInPort, seg);
    return;
  }
  PortState& port = ports_[gInPort];
  segPushBack(port.inHead, port.inTail, seg);
  ++port.inCount;
  stats_.maxInputQueueDepth =
      std::max(stats_.maxInputQueueDepth, port.inCount);
  if (probe_ != nullptr) {
    probe_->onSegmentEnqueued(gInPort, /*input=*/true, port.inCount, now_);
  }
  tryAdvanceInput(gInPort);
}

void Network::deliverSegment(std::uint32_t gInPort, std::uint32_t seg) {
  const MsgId msgId = segments_[seg].msg;
  freeSegment(seg);
  returnCredit(ports_[gInPort].peer);
  ++stats_.segmentsDelivered;
  // In-flight invariant (see the NetworkStats contract).
  assert(stats_.segmentsDelivered <= stats_.segmentsInjected);
  Message& m = messages_[msgId];
  assert(m.state != MsgState::kFree);
  ++m.retiredSegments;
  if (m.dropped) {
    // A dropped message never completes, even if its surviving segments all
    // arrive (it lost at least one to a fault); the last one frees it.
    freeIfDrained(msgId);
    return;
  }
  if (m.retiredSegments == m.numSegments) completeMessage(msgId);
}

void Network::completeMessage(MsgId msg) {
  const Message& m = messages_[msg];
  ++stats_.messagesDelivered;
  stats_.lastDeliveryNs = std::max(stats_.lastDeliveryNs, now_);
  // Records never move, so `m` survives a sink that adds messages.
  if (sink_ != nullptr) sink_->onMessageDelivered(msg, now_);
  if (probe_ != nullptr) probe_->onMessageDelivered(m.seq, now_);
  freeMessage(msg);
}

void Network::tryAdvanceInput(std::uint32_t gInPort) {
  PortState& port = ports_[gInPort];
  if (port.transferring || port.inHead == kNil) return;
  const std::uint32_t seg = port.inHead;
  Segment& segment = segments_[seg];
  const std::uint32_t out = nextOutput(gInPort, segment);
  segment.resolvedOut = out;
  advanceInputTo(gInPort, seg, out);
}

std::uint32_t Network::nextOutput(std::uint32_t gInPort, const Segment& seg) {
  if (seg.adaptive) return resolveAdaptive(gInPort, seg);
  // A node's ports are contiguous gports, so this switch's port p is
  // gInPort - localPort + p.  hop counts the arrivals so far (>= 1 here):
  // hops 1 .. level - 1 arrive at levels 1 .. level - 1 on the way up and
  // leave through word hop of the choice's ascent; from the NCA on, every
  // level descends.
  const PortOwner& at = portOwner_[gInPort];
  const std::uint32_t nodeBase = gInPort - at.localPort;
  if (seg.hop < seg.level) {
    return nodeBase + upPortBase_[at.level] +
           ascent(seg.level, seg.choice)[seg.hop];
  }
  return nodeBase + downPort(at.level, seg.dst);
}

void Network::wakeInput(std::uint32_t gInPort) {
  PortState& port = ports_[gInPort];
  if (port.transferring || port.inHead == kNil) return;
  const std::uint32_t seg = port.inHead;
  Segment& segment = segments_[seg];
  // The front segment is unchanged since it blocked (arrivals append, only
  // transfers pop), so a static route's resolved output is still right.
  // Adaptive segments re-pick against current queue occupancies.
  std::uint32_t out = segment.resolvedOut;
  if (segment.adaptive) {
    out = resolveAdaptive(gInPort, segment);
    segment.resolvedOut = out;
  }
  advanceInputTo(gInPort, seg, out);
}

void Network::advanceInputTo(std::uint32_t gInPort, std::uint32_t seg,
                             std::uint32_t out) {
  PortState& port = ports_[gInPort];
  if (ports_[out].down && faultPolicy_ != FaultPolicy::kWait) {
    // Under kWait the segment queues behind the dead output like any full
    // buffer and resumes on restore; otherwise escape or strand it now.
    if (faultPolicy_ == FaultPolicy::kReroute) {
      const std::uint32_t alt = rerouteAlternative(out);
      if (alt != kNil) {
        Segment& segment = segments_[seg];
        segment.adaptive = true;
        segment.resolvedOut = alt;
        ++stats_.segmentsRerouted;
        if (probe_ != nullptr) {
          probe_->onSegmentRerouted(out, alt, messages_[segment.msg].seq,
                                    now_);
        }
        advanceInputTo(gInPort, seg, alt);  // alt is live: no recursion loop.
        return;
      }
    }
    strandInputHead(gInPort);
    return;
  }
  PortState& outPort = ports_[out];
  if (outPort.outCount + outPort.reserved < cfg_.outputBufferSegments) {
    ++outPort.reserved;
    port.transferring = true;
    schedule(now_ + cfg_.switchLatencyNs, Kind::kTransfer, gInPort, seg);
  } else if (!port.queuedWaiting) {
    waitLink_[gInPort] = kNil;
    if (outPort.waitTail == kNil) {
      outPort.waitHead = gInPort;
    } else {
      waitLink_[outPort.waitTail] = gInPort;
    }
    outPort.waitTail = gInPort;
    port.queuedWaiting = true;
    if (probe_ != nullptr) probe_->onInputBlocked(gInPort, out, now_);
  }
}

void Network::handleTransfer(std::uint32_t gInPort, std::uint32_t seg) {
  PortState& port = ports_[gInPort];
  const Segment& segment = segments_[seg];
  const std::uint32_t out = segment.resolvedOut;
  PortState& outPort = ports_[out];
  --outPort.reserved;
  assert(port.inHead == seg);
  const std::uint32_t front = segPopFront(port.inHead, port.inTail);
  (void)front;
  --port.inCount;
  segPushBack(outPort.outHead, outPort.outTail, seg);
  ++outPort.outCount;
  stats_.maxOutputQueueDepth =
      std::max(stats_.maxOutputQueueDepth, outPort.outCount);
  if (probe_ != nullptr) {
    probe_->onSegmentDequeued(gInPort, /*input=*/true, port.inCount, now_);
    probe_->onSegmentEnqueued(out, /*input=*/false, outPort.outCount, now_);
  }
  port.transferring = false;
  returnCredit(port.peer);
  tryAdvanceInput(gInPort);
  tryTransmitSwitch(out);
  // The output may have failed while this transfer was in flight; do not
  // let the segment sit in a dead queue under an eager policy.
  if (outPort.down && faultPolicy_ != FaultPolicy::kWait) {
    processDeadOutput(out);
  }
}

std::uint32_t Network::resolveAdaptive(std::uint32_t gInPort,
                                       const Segment& seg) {
  const PortOwner owner = portOwner_[gInPort];
  const std::uint32_t level = owner.level;
  // Descend as soon as this switch is an ancestor of the destination: all
  // label digits above the switch's level must match the destination's.
  bool ancestor = true;
  for (std::uint32_t i = level + 1; i <= topo_->height(); ++i) {
    if (topo_->digit(level, owner.node, i) != downPort(i, seg.dst)) {
      ancestor = false;
      break;
    }
  }
  if (ancestor) {
    return gInPort - owner.localPort + downPort(level, seg.dst);
  }
  // Ascend through the least-occupied up-port; a per-switch rotor breaks
  // ties round-robin so symmetric traffic does not herd onto port 0.
  const std::uint32_t upBase = topo_->params().m(level);
  const std::uint32_t numUp = topo_->params().w(level + 1);
  const xgft::GlobalNodeId nid = topo_->globalId(level, owner.node);
  const std::uint32_t start = adaptiveRR_[nid]++ % numUp;
  std::uint32_t bestPort = 0;
  std::uint64_t bestScore = ~std::uint64_t{0};
  for (std::uint32_t i = 0; i < numUp; ++i) {
    const std::uint32_t p = (start + i) % numUp;
    const std::uint32_t gout = globalPort(level, owner.node, upBase + p);
    const PortState& out = ports_[gout];
    std::uint64_t score =
        (static_cast<std::uint64_t>(out.outCount) + out.reserved) * 2 +
        (out.wireBusy ? 1 : 0);
    // Any live up-port beats every dead one; if all are dead the pick still
    // resolves and advanceInputTo's fault branch decides what happens.
    if (out.down) score |= std::uint64_t{1} << 63;
    if (score < bestScore) {
      bestScore = score;
      bestPort = gout;
    }
  }
  return bestPort;
}

void Network::returnCredit(std::uint32_t gOutPort) {
  ++ports_[gOutPort].credits;
  outputDispatch(gOutPort);
}

WireUtilization wireUtilization(const Network& net, TimeNs spanNs) {
  WireUtilization out;
  if (spanNs == 0) return out;
  double sum = 0.0;
  std::uint64_t used = 0;
  const double span = static_cast<double>(spanNs);
  for (std::uint32_t g = 0; g < net.numGlobalPorts(); ++g) {
    const TimeNs busy = net.wireBusyNs(g);
    if (busy == 0) continue;
    const double util = static_cast<double>(busy) / span;
    out.max = std::max(out.max, util);
    sum += util;
    ++used;
  }
  if (used > 0) out.mean = sum / static_cast<double>(used);
  return out;
}

void Network::serveWaitingInputs(std::uint32_t gOutPort) {
  PortState& outPort = ports_[gOutPort];
  while (outPort.waitHead != kNil &&
         outPort.outCount + outPort.reserved < cfg_.outputBufferSegments) {
    const std::uint32_t gInPort = outPort.waitHead;
    outPort.waitHead = waitLink_[gInPort];
    if (outPort.waitHead == kNil) outPort.waitTail = kNil;
    ports_[gInPort].queuedWaiting = false;
    if (probe_ != nullptr) probe_->onInputWoken(gInPort, now_);
    wakeInput(gInPort);
  }
}

}  // namespace sim
