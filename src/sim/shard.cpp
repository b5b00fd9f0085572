#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/network.hpp"
#include "xgft/topology.hpp"

namespace sim {

namespace {

/// Below this many events in a batch, the dispatch round-trip costs more
/// than executing inline on the coordinator.  The result is identical
/// either way (the serial core *is* the reference semantics), so this is a
/// pure tuning constant.
constexpr std::size_t kMinParallelBatch = 16;

/// Port count under which shard bookkeeping cannot pay for itself; the
/// plan falls back rather than slow a small simulation down.
constexpr std::uint32_t kMinPortsForSharding = 256;

}  // namespace

/// The parallel engine (friend of Network).  One instance drives one
/// run-to-`until`: it owns the shard map, the K-1 worker threads and the
/// per-shard buffers; the calling thread doubles as the shard-0 worker and
/// the window coordinator.
class ParallelRunner {
 public:
  static ParallelPlan plan(const Network& net, std::uint32_t threads);

  ParallelRunner(Network& net, const ParallelPlan& plan,
                 ParallelRunStats* runStats);
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  void run(TimeNs until);

 private:
  using Kind = Network::Kind;
  static constexpr std::uint32_t kNil = Network::kNil;
  static constexpr std::uint32_t kNoShard = 0xffffffffu;

  /// One buffered event-queue push: replayed by the coordinator in exact
  /// serial order (position, then handler call order within the position).
  struct PushRec {
    TimeNs t = 0;
    std::uint32_t pos = 0;  ///< Batch-relative position that produced it.
    std::uint32_t a = 0;
    std::uint32_t seg = 0;
    std::uint8_t kind = 0;
  };

  /// A completion deferred to the flush point: the sink call, if a sink is
  /// set, then the message's slot free (at most one per position: an event
  /// delivers at most one message).
  struct SinkCall {
    MsgId msg = 0;
    TimeNs time = 0;
    bool pending = false;
  };

  /// Shard assignment of one batch position.  creditOwner is the shard of
  /// the upstream port receiving the zero-latency credit return (kTransfer
  /// and host-arrival kWireArrive only); when it differs from owner the
  /// position is split across the two shards.
  struct PosInfo {
    std::uint32_t owner = 0;
    std::uint32_t creditOwner = kNoShard;
    std::uint32_t creditPort = 0;  ///< Precomputed ports_[a].peer.
  };

  struct Shard {
    /// Epoch gate: the coordinator bumps `go` (release) after publishing a
    /// batch; the worker waits on it and publishes results through done_.
    alignas(64) std::atomic<std::uint64_t> go{0};
    std::vector<PushRec> pushes;
    /// Private segment-slot cache: pre-filled at the barrier so replicated
    /// handlers never touch the global pool; frees recycle into it.
    std::vector<std::uint32_t> segCache;
    std::size_t replayCursor = 0;
    NetworkStats stats;  ///< Per-batch delta; merged and zeroed at barrier.
  };

  /// Execution context threaded through the replicated handlers (one per
  /// participating shard per position — never shared across threads).
  struct Ctx {
    Shard* shard;
    TimeNs now;
    std::uint32_t pos;  ///< Batch-relative position.
  };

  [[nodiscard]] static bool isParallelKind(std::uint8_t kind) {
    switch (static_cast<Kind>(kind)) {
      case Kind::kRelease:
      case Kind::kWireArrive:
      case Kind::kWireFree:
      case Kind::kTransfer:
        return true;
      default:
        return false;
    }
  }

  void buildShardMap();
  void workerLoop(std::uint32_t s);

  /// Executes the chunk (all events of one closed window, already popped,
  /// in (t, tag) order).  Returns false when a mid-run fault schedule
  /// aborted to the serial core (which then ran to @p until).
  bool processChunk(TimeNs windowEnd, TimeNs until);
  void runBatch(std::size_t begin, std::size_t end);
  void classify(std::size_t begin, std::size_t end);
  void refillCaches();
  void executeShard(std::uint32_t s);
  void mergeStats();
  void replayPushes(std::size_t begin, std::size_t end);
  void drainPushes(Shard& sh, std::uint32_t rel);
  void flushSinks(std::size_t begin, std::size_t end);
  void abortToSerial(std::size_t from, TimeNs until);
  /// Returns every cached segment slot to the global free list (run end /
  /// abort) in shard order, keeping the pool state deterministic per
  /// (input, shard count).
  void spliceCaches();
  [[nodiscard]] std::uint32_t rawSegmentSlot();

  // ---- replicated healthy-run handlers --------------------------------
  //
  // Faithful transcriptions of the Network handlers with four systematic
  // substitutions: schedule() -> buffered pPush, stats_ -> per-shard
  // delta, sink_ and freeMessage -> deferred SinkCall slot,
  // allocSegment/freeSegment -> the shard's private cache.  Probe hooks
  // and fault branches are omitted outright — the plan guarantees
  // probe_ == nullptr and that no link ever failed (faultsSeen_ false, no
  // down ports).

  void pPush(Ctx& c, TimeNs t, Kind kind, std::uint32_t a,
             std::uint32_t seg = 0) {
    c.shard->pushes.push_back(
        PushRec{t, c.pos, a, seg, static_cast<std::uint8_t>(kind)});
  }
  [[nodiscard]] std::uint32_t pAllocSegment(Ctx& c, MsgId msg,
                                            std::uint32_t route,
                                            std::uint32_t bytes);
  void pHandleRelease(Ctx& c, MsgId msgId);
  void pHandleWireArrive(Ctx& c, std::uint32_t gInPort, std::uint32_t seg,
                         bool creditLocal);
  void pHandleWireFree(Ctx& c, std::uint32_t gOutPort);
  void pHandleTransfer(Ctx& c, std::uint32_t gInPort, std::uint32_t seg,
                       bool creditLocal);
  void pDeliverSegment(Ctx& c, std::uint32_t gInPort, std::uint32_t seg,
                       bool creditLocal);
  void pTryInjectHost(Ctx& c, std::uint32_t gOutPort);
  void pStartTransmission(Ctx& c, std::uint32_t gOutPort, std::uint32_t seg);
  void pTryTransmitSwitch(Ctx& c, std::uint32_t gOutPort);
  void pTryAdvanceInput(Ctx& c, std::uint32_t gInPort);
  void pWakeInput(Ctx& c, std::uint32_t gInPort);
  void pAdvanceInputTo(Ctx& c, std::uint32_t gInPort, std::uint32_t seg,
                       std::uint32_t out);
  void pServeWaitingInputs(Ctx& c, std::uint32_t gOutPort);
  void pReturnCredit(Ctx& c, std::uint32_t gOutPort);
  void pOutputDispatch(Ctx& c, std::uint32_t gOutPort);

  Network* net_;
  std::uint32_t numShards_;
  TimeNs window_;
  std::vector<std::uint32_t> nodeShard_;  ///< Per global node id.
  std::vector<std::uint32_t> portShard_;  ///< Per global port.
  std::vector<Shard> shards_;

  // Batch state, written by the coordinator between epochs and published
  // to the workers by the release-store on Shard::go.
  std::vector<EventRecord> chunk_;   ///< Current window's events, in order.
  std::vector<EventRecord> repop_;   ///< Scratch: post-callback re-pops.
  std::vector<PosInfo> posInfo_;     ///< Batch-relative.
  std::vector<std::size_t> need_;    ///< Per-shard segment-slot demand.
  std::vector<SinkCall> sinkCalls_;  ///< Batch-relative, one per position.
  std::size_t batchBegin_ = 0;
  std::size_t batchEnd_ = 0;

  std::uint64_t epoch_ = 0;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
  ParallelRunStats* runStats_;  ///< Optional diagnostics; may be null.
};

// ---- planning -----------------------------------------------------------

ParallelPlan ParallelRunner::plan(const Network& net, std::uint32_t threads) {
  ParallelPlan p;
  const auto fallback = [&p](const char* why) {
    p.parallel = false;
    p.shards = 1;
    p.windowNs = 0;
    p.fallbackReason = why;
    return p;
  };
  if (threads <= 1) return fallback("one thread requested");
  if (net.probe_ != nullptr) {
    return fallback("probe attached (hooks must fire in event order)");
  }
  if (net.sink_ != nullptr && !net.sink_->deliveriesDeferrable()) {
    return fallback("sink drives the simulation (closed loop)");
  }
  if (net.faultEventsScheduled_ || net.faultsSeen_ ||
      !net.downLinks_.empty()) {
    return fallback("fault transitions pending or processed (no lookahead)");
  }
  // Every parallel-class handler push lands at least W in the future:
  // kTransfer at +switchLatencyNs, wire events at +serialization (monotone
  // in payload, so the header-only segment bounds it) or later.
  const TimeNs w = std::min<TimeNs>(net.cfg_.switchLatencyNs,
                                    net.cfg_.serializationNs(0));
  if (w < 1) return fallback("zero minimum event latency (no window)");
  if (net.numGlobalPorts() < kMinPortsForSharding) {
    return fallback("topology too small to cut profitably");
  }
  // The cut is by leaf-switch group; more shards than leaves cannot help.
  const std::uint64_t leaves = net.topology().nodesAtLevel(1);
  const std::uint32_t shards =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(threads, leaves));
  if (shards <= 1) return fallback("single leaf switch (nothing to cut)");
  p.parallel = true;
  p.shards = shards;
  p.windowNs = w;
  p.fallbackReason = nullptr;
  return p;
}

// ---- construction / teardown --------------------------------------------

ParallelRunner::ParallelRunner(Network& net, const ParallelPlan& plan,
                               ParallelRunStats* runStats)
    : net_(&net), numShards_(plan.shards), window_(plan.windowNs),
      shards_(plan.shards), need_(plan.shards, 0), runStats_(runStats) {
  assert(plan.parallel && numShards_ >= 2 && window_ >= 1);
  buildShardMap();
  workers_.reserve(numShards_ - 1);
  for (std::uint32_t s = 1; s < numShards_; ++s) {
    workers_.emplace_back(&ParallelRunner::workerLoop, this, s);
  }
}

ParallelRunner::~ParallelRunner() {
  stop_.store(true, std::memory_order_release);
  ++epoch_;
  for (std::uint32_t s = 1; s < numShards_; ++s) {
    shards_[s].go.store(epoch_, std::memory_order_release);
    shards_[s].go.notify_one();
  }
  for (std::thread& t : workers_) t.join();
}

void ParallelRunner::buildShardMap() {
  const xgft::Topology& topo = net_->topology();
  const std::uint32_t h = topo.height();
  nodeShard_.resize(topo.numNodes());
  // Leaves split into K contiguous groups; upper switches likewise by
  // index (their down-ports talk to every group anyway, so any balanced
  // assignment works — contiguity keeps the map trivially reproducible).
  for (std::uint32_t l = 1; l <= h; ++l) {
    const std::uint64_t count = topo.nodesAtLevel(l);
    for (xgft::NodeIndex idx = 0; idx < count; ++idx) {
      nodeShard_[topo.globalId(l, idx)] = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(idx) * numShards_ / count);
    }
  }
  // Hosts co-locate with their first parent leaf, so for w1 == 1 trees the
  // whole NIC<->leaf edge is shard-local; extra NIC ports of w1 > 1 hosts
  // are covered by the split-credit machinery like any cross-shard edge.
  for (xgft::NodeIndex idx = 0; idx < topo.nodesAtLevel(0); ++idx) {
    nodeShard_[topo.globalId(0, idx)] =
        nodeShard_[topo.globalId(1, topo.parentIndex(0, idx, 0))];
  }
  portShard_.resize(net_->numGlobalPorts());
  for (std::uint32_t g = 0; g < portShard_.size(); ++g) {
    const Network::PortOwner& o = net_->portOwnerOf(g);
    portShard_[g] = nodeShard_[topo.globalId(o.level, o.node)];
  }
}

void ParallelRunner::workerLoop(std::uint32_t s) {
  Shard& sh = shards_[s];
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e;
    while ((e = sh.go.load(std::memory_order_acquire)) == seen) {
      sh.go.wait(seen, std::memory_order_acquire);
    }
    seen = e;
    if (stop_.load(std::memory_order_acquire)) return;
    executeShard(s);
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_one();
  }
}

// ---- the window loop ----------------------------------------------------

void ParallelRunner::run(TimeNs until) {
  Network& net = *net_;
  EventRecord ev;
  for (;;) {
    if (!net.queue_.popUntil(until, ev)) break;
    const TimeNs first = ev.t;
    constexpr TimeNs kMaxT = std::numeric_limits<TimeNs>::max();
    const TimeNs horizon =
        first > kMaxT - (window_ - 1) ? kMaxT : first + (window_ - 1);
    const TimeNs windowEnd = std::min(until, horizon);
    // Pop the whole closed window up front: executing these events can
    // only schedule beyond windowEnd (the lookahead argument), so the set
    // is complete — callbacks are the one exception, handled inside.
    chunk_.clear();
    chunk_.push_back(ev);
    while (net.queue_.popUntil(windowEnd, ev)) chunk_.push_back(ev);
    if (runStats_ != nullptr) ++runStats_->windows;
    if (!processChunk(windowEnd, until)) return;  // Aborted; serial ran.
  }
  spliceCaches();
  net.finishRun();
}

bool ParallelRunner::processChunk(TimeNs windowEnd, TimeNs until) {
  Network& net = *net_;
  std::size_t i = 0;
  while (i < chunk_.size()) {
    if (!isParallelKind(chunk_[i].kind())) {
      // Serial-class event (callback; in principle sample/fault edges):
      // shards are parked and all prior effects are merged, so the plain
      // handler runs on canonical state, exactly as in Network::run.
      const EventRecord se = chunk_[i];
      ++i;
      net.now_ = se.t;
      net.handle(se);
      ++net.stats_.eventsProcessed;
      if (runStats_ != nullptr) ++runStats_->serialEvents;
      if (net.faultEventsScheduled_) {
        // The callback scheduled a fault transition: the lookahead bound
        // no longer holds past it.  Hand everything back to the serial
        // core, which is exact under faults.
        if (runStats_ != nullptr) runStats_->aborted = true;
        abortToSerial(i, until);
        return false;
      }
      // The callback may have scheduled events inside this window
      // (releases at now, short-fuse callbacks): pop and merge them into
      // the unexecuted tail.  Their tags are fresh (larger), so a stable
      // (t, tag) merge keeps the total order exact.
      repop_.clear();
      EventRecord ev;
      while (net.queue_.popUntil(windowEnd, ev)) repop_.push_back(ev);
      if (!repop_.empty()) {
        // Take the midpoint as an index *before* inserting: the insert may
        // reallocate, invalidating any iterator taken earlier.
        const auto mid = static_cast<std::ptrdiff_t>(chunk_.size());
        chunk_.insert(chunk_.end(), repop_.begin(), repop_.end());
        std::inplace_merge(
            chunk_.begin() + static_cast<std::ptrdiff_t>(i),
            chunk_.begin() + mid, chunk_.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.t != b.t ? a.t < b.t : a.tag < b.tag;
            });
      }
      continue;
    }
    std::size_t j = i + 1;
    while (j < chunk_.size() && isParallelKind(chunk_[j].kind())) ++j;
    runBatch(i, j);
    i = j;
  }
  return true;
}

void ParallelRunner::abortToSerial(std::size_t from, TimeNs until) {
  Network& net = *net_;
  // Re-push the unexecuted remainder in order.  The tags come out fresh
  // but every other queued event lies beyond the window, and pushing in
  // chunk order keeps the relative order — the total order is unchanged.
  for (std::size_t p = from; p < chunk_.size(); ++p) {
    const EventRecord& e = chunk_[p];
    net.queue_.push(e.t, e.kind(), e.a, e.seg);
  }
  spliceCaches();
  net.run(until);
}

void ParallelRunner::spliceCaches() {
  for (Shard& sh : shards_) {
    for (const std::uint32_t seg : sh.segCache) net_->freeSegment(seg);
    sh.segCache.clear();
  }
}

// ---- one batch ----------------------------------------------------------

void ParallelRunner::runBatch(std::size_t begin, std::size_t end) {
  Network& net = *net_;
  if (end - begin < kMinParallelBatch) {
    // Tiny batch: run it inline on the coordinator through the serial
    // handlers — byte-identical by construction, no dispatch round-trip.
    for (std::size_t p = begin; p < end; ++p) {
      net.now_ = chunk_[p].t;
      net.handle(chunk_[p]);
      ++net.stats_.eventsProcessed;
    }
    if (runStats_ != nullptr) runStats_->inlineEvents += end - begin;
    return;
  }
  if (runStats_ != nullptr) {
    ++runStats_->parallelBatches;
    runStats_->parallelEvents += end - begin;
  }
  classify(begin, end);
  refillCaches();
  batchBegin_ = begin;
  batchEnd_ = end;
  for (Shard& sh : shards_) {
    sh.pushes.clear();
    sh.replayCursor = 0;
    sh.stats = NetworkStats{};
  }
  sinkCalls_.assign(end - begin, SinkCall{});
  done_.store(0, std::memory_order_relaxed);
  ++epoch_;
  for (std::uint32_t s = 1; s < numShards_; ++s) {
    shards_[s].go.store(epoch_, std::memory_order_release);
    shards_[s].go.notify_one();
  }
  executeShard(0);
  const std::uint64_t target = numShards_ - 1;
  std::uint64_t v;
  while ((v = done_.load(std::memory_order_acquire)) != target) {
    done_.wait(v, std::memory_order_acquire);
  }
  // Barrier reached: fold the shard effects back in canonical order.
  mergeStats();
  replayPushes(begin, end);
  net.stats_.eventsProcessed += end - begin;
  flushSinks(begin, end);
  net.now_ = chunk_[end - 1].t;
}

void ParallelRunner::classify(std::size_t begin, std::size_t end) {
  Network& net = *net_;
  posInfo_.resize(end - begin);
  std::fill(need_.begin(), need_.end(), std::size_t{0});
  for (std::size_t p = begin; p < end; ++p) {
    const EventRecord& e = chunk_[p];
    PosInfo info;
    switch (static_cast<Kind>(e.kind())) {
      case Kind::kRelease: {
        const Network::Message& m = net.messages_[e.a];
        info.owner = m.src == m.dst
                         ? nodeShard_[net.topology().globalId(0, m.src)]
                         : portShard_[m.hostPort];
        break;
      }
      case Kind::kWireFree:
        info.owner = portShard_[e.a];
        break;
      case Kind::kWireArrive:
        info.owner = portShard_[e.a];
        if (net.isHostPort(e.a)) {
          // Delivery returns a credit to the upstream switch port.
          info.creditPort = net.ports_[e.a].peer;
          info.creditOwner = portShard_[info.creditPort];
        }
        break;
      case Kind::kTransfer:
        info.owner = portShard_[e.a];
        info.creditPort = net.ports_[e.a].peer;
        info.creditOwner = portShard_[info.creditPort];
        break;
      default:
        assert(false && "serial-class event in a parallel batch");
    }
    posInfo_[p - begin] = info;
    // Each executed part injects at most one segment (tryInjectHost allocs
    // exactly one per call, reachable once per part).
    ++need_[info.owner];
    if (info.creditOwner != kNoShard && info.creditOwner != info.owner) {
      ++need_[info.creditOwner];
    }
  }
}

std::uint32_t ParallelRunner::rawSegmentSlot() {
  Network& net = *net_;
  if (net.freeSegments_ != kNil) {
    const std::uint32_t idx = net.freeSegments_;
    net.freeSegments_ = net.segments_[idx].next;
    return idx;
  }
  if (net.segments_.size() >= kNil) {
    throw std::length_error("Network: segment pool exhausted (2^32 - 1 slots)");
  }
  net.segments_.emplace_back();
  return static_cast<std::uint32_t>(net.segments_.size() - 1);
}

void ParallelRunner::refillCaches() {
  // Top the caches up while the shards are parked (the pool may grow, the
  // caches themselves are the owning shard's private state afterwards).
  for (std::uint32_t s = 0; s < numShards_; ++s) {
    std::vector<std::uint32_t>& cache = shards_[s].segCache;
    while (cache.size() < need_[s]) cache.push_back(rawSegmentSlot());
  }
}

void ParallelRunner::executeShard(std::uint32_t s) {
  Shard& sh = shards_[s];
  Ctx ctx{&sh, 0, 0};
  for (std::size_t p = batchBegin_; p < batchEnd_; ++p) {
    const PosInfo& info = posInfo_[p - batchBegin_];
    const bool ownerHere = info.owner == s;
    const bool creditHere = info.creditOwner == s;
    if (!ownerHere && !creditHere) continue;
    const EventRecord& e = chunk_[p];
    ctx.now = e.t;
    ctx.pos = static_cast<std::uint32_t>(p - batchBegin_);
    if (!ownerHere) {
      // Credit half of a split position: return the credit at the
      // upstream port (this shard's state) and cascade locally.  Its
      // buffered pushes replay before the owner half's — matching the
      // serial handler, where returnCredit precedes the local pushes.
      pReturnCredit(ctx, info.creditPort);
      continue;
    }
    const bool creditLocal = info.creditOwner == kNoShard || creditHere;
    switch (static_cast<Kind>(e.kind())) {
      case Kind::kRelease:
        pHandleRelease(ctx, e.a);
        break;
      case Kind::kWireArrive:
        pHandleWireArrive(ctx, e.a, e.seg, creditLocal);
        break;
      case Kind::kWireFree:
        pHandleWireFree(ctx, e.a);
        break;
      case Kind::kTransfer:
        pHandleTransfer(ctx, e.a, e.seg, creditLocal);
        break;
      default:
        break;
    }
  }
}

void ParallelRunner::mergeStats() {
  NetworkStats& g = net_->stats_;
  for (Shard& sh : shards_) {
    const NetworkStats& d = sh.stats;
    g.segmentsInjected += d.segmentsInjected;
    g.segmentsDelivered += d.segmentsDelivered;
    g.messagesDelivered += d.messagesDelivered;
    g.lastDeliveryNs = std::max(g.lastDeliveryNs, d.lastDeliveryNs);
    g.maxOutputQueueDepth =
        std::max(g.maxOutputQueueDepth, d.maxOutputQueueDepth);
    g.maxInputQueueDepth =
        std::max(g.maxInputQueueDepth, d.maxInputQueueDepth);
  }
  // The in-flight invariant only holds on the merged totals, which is why
  // the replicated deliver handler cannot assert it per shard.
  assert(g.segmentsDelivered <= g.segmentsInjected);
}

void ParallelRunner::drainPushes(Shard& sh, std::uint32_t rel) {
  while (sh.replayCursor < sh.pushes.size() &&
         sh.pushes[sh.replayCursor].pos == rel) {
    const PushRec& r = sh.pushes[sh.replayCursor++];
    net_->queue_.push(r.t, r.kind, r.a, r.seg);
  }
}

void ParallelRunner::replayPushes(std::size_t begin, std::size_t end) {
  // Replaying in position order, credit half before owner half, repeats
  // the serial push sequence exactly — so the queue's insertion-sequence
  // tags (and therefore all later tie-breaks) come out bit-identical.
  for (std::size_t p = begin; p < end; ++p) {
    const PosInfo& info = posInfo_[p - begin];
    const std::uint32_t rel = static_cast<std::uint32_t>(p - begin);
    if (info.creditOwner != kNoShard && info.creditOwner != info.owner) {
      drainPushes(shards_[info.creditOwner], rel);
    }
    drainPushes(shards_[info.owner], rel);
  }
}

void ParallelRunner::flushSinks(std::size_t begin, std::size_t end) {
  Network& net = *net_;
  // A sink may add messages, which can grow the message pool's page table
  // that the shards read through; it runs here, with every shard parked.
  // The shard handlers only read and update records in place.
  for (std::size_t p = begin; p < end; ++p) {
    const SinkCall& call = sinkCalls_[p - begin];
    if (!call.pending) continue;
    if (net.sink_ != nullptr) {
      net.now_ = call.time;
      net.sink_->onMessageDelivered(call.msg, call.time);
    }
    // The serial core frees a completed message right after its sink call;
    // freeing here, in position order, leaves the same free list.
    net.freeMessage(call.msg);
  }
}

// ---- replicated handlers ------------------------------------------------

std::uint32_t ParallelRunner::pAllocSegment(Ctx& c, MsgId msg,
                                            std::uint32_t route,
                                            std::uint32_t bytes) {
  std::vector<std::uint32_t>& cache = c.shard->segCache;
  assert(!cache.empty() && "segment cache underfilled for this batch");
  const std::uint32_t idx = cache.back();
  cache.pop_back();
  net_->segments_[idx] = Network::Segment{msg, route, 0, bytes, 0, kNil};
  return idx;
}

void ParallelRunner::pHandleRelease(Ctx& c, MsgId msgId) {
  Network& n = *net_;
  Network::Message& m = n.messages_[msgId];
  if (m.src == m.dst) {
    ++c.shard->stats.messagesDelivered;
    c.shard->stats.lastDeliveryNs =
        std::max(c.shard->stats.lastDeliveryNs, c.now);
    sinkCalls_[c.pos] = SinkCall{msgId, c.now, true};
    return;
  }
  m.state = Network::MsgState::kQueued;
  const std::uint32_t hostPort = m.hostPort;
  n.activePushBack(n.ports_[hostPort], msgId);
  pTryInjectHost(c, hostPort);
}

void ParallelRunner::pTryInjectHost(Ctx& c, std::uint32_t gOutPort) {
  Network& n = *net_;
  Network::PortState& port = n.ports_[gOutPort];
  if (port.wireBusy || port.credits == 0 || port.activeHead == kNil) return;
  const MsgId msgId = port.activeHead;
  Network::Message& m = n.messages_[msgId];
  port.activeHead = m.nextActive;
  if (port.activeHead == kNil) port.activeTail = kNil;
  const std::uint32_t payload = n.segmentPayload(m, m.injectedSegments);
  const std::uint32_t seg =
      pAllocSegment(c, msgId, Network::pickRoute(m), payload);
  ++m.injectedSegments;
  ++c.shard->stats.segmentsInjected;
  if (m.injectedSegments < m.numSegments) {
    n.activePushBack(port, msgId);
  } else {
    m.state = Network::MsgState::kSent;
  }
  pStartTransmission(c, gOutPort, seg);
}

void ParallelRunner::pStartTransmission(Ctx& c, std::uint32_t gOutPort,
                                        std::uint32_t seg) {
  Network& n = *net_;
  Network::PortState& port = n.ports_[gOutPort];
  assert(!port.wireBusy && port.credits > 0);
  port.wireBusy = true;
  --port.credits;
  const std::uint32_t payload = n.segments_[seg].payloadBytes;
  const TimeNs ser = payload == n.cfg_.segmentBytes
                         ? n.serFullNs_
                         : n.cfg_.serializationNs(payload);
  port.busyNs += ser;
  pPush(c, c.now + ser, Kind::kWireFree, gOutPort);
  pPush(c, c.now + ser + n.cfg_.linkLatencyNs, Kind::kWireArrive, port.peer,
        seg);
}

void ParallelRunner::pOutputDispatch(Ctx& c, std::uint32_t gOutPort) {
  if (net_->isHostPort(gOutPort)) {
    pTryInjectHost(c, gOutPort);
  } else {
    pTryTransmitSwitch(c, gOutPort);
  }
}

void ParallelRunner::pHandleWireFree(Ctx& c, std::uint32_t gOutPort) {
  net_->ports_[gOutPort].wireBusy = false;
  pOutputDispatch(c, gOutPort);
}

void ParallelRunner::pTryTransmitSwitch(Ctx& c, std::uint32_t gOutPort) {
  Network& n = *net_;
  Network::PortState& port = n.ports_[gOutPort];
  if (port.wireBusy || port.credits == 0 || port.outHead == kNil) return;
  const std::uint32_t seg = n.segPopFront(port.outHead, port.outTail);
  --port.outCount;
  pStartTransmission(c, gOutPort, seg);
  pServeWaitingInputs(c, gOutPort);
}

void ParallelRunner::pHandleWireArrive(Ctx& c, std::uint32_t gInPort,
                                       std::uint32_t seg, bool creditLocal) {
  Network& n = *net_;
  ++n.segments_[seg].hop;
  if (n.isHostPort(gInPort)) {
    pDeliverSegment(c, gInPort, seg, creditLocal);
    return;
  }
  Network::PortState& port = n.ports_[gInPort];
  n.segPushBack(port.inHead, port.inTail, seg);
  ++port.inCount;
  c.shard->stats.maxInputQueueDepth =
      std::max(c.shard->stats.maxInputQueueDepth, port.inCount);
  pTryAdvanceInput(c, gInPort);
}

void ParallelRunner::pDeliverSegment(Ctx& c, std::uint32_t gInPort,
                                     std::uint32_t seg, bool creditLocal) {
  Network& n = *net_;
  const MsgId msgId = n.segments_[seg].msg;
  c.shard->segCache.push_back(seg);  // Freed slots recycle shard-locally.
  if (creditLocal) pReturnCredit(c, n.ports_[gInPort].peer);
  ++c.shard->stats.segmentsDelivered;
  Network::Message& m = n.messages_[msgId];
  ++m.retiredSegments;
  if (m.retiredSegments == m.numSegments && !m.dropped) {
    ++c.shard->stats.messagesDelivered;
    c.shard->stats.lastDeliveryNs =
        std::max(c.shard->stats.lastDeliveryNs, c.now);
    sinkCalls_[c.pos] = SinkCall{msgId, c.now, true};
  }
}

void ParallelRunner::pTryAdvanceInput(Ctx& c, std::uint32_t gInPort) {
  Network& n = *net_;
  Network::PortState& port = n.ports_[gInPort];
  if (port.transferring || port.inHead == kNil) return;
  const std::uint32_t seg = port.inHead;
  Network::Segment& segment = n.segments_[seg];
  const std::uint32_t out = n.nextOutput(gInPort, segment);
  segment.resolvedOut = out;
  pAdvanceInputTo(c, gInPort, seg, out);
}

void ParallelRunner::pWakeInput(Ctx& c, std::uint32_t gInPort) {
  Network& n = *net_;
  Network::PortState& port = n.ports_[gInPort];
  if (port.transferring || port.inHead == kNil) return;
  const std::uint32_t seg = port.inHead;
  Network::Segment& segment = n.segments_[seg];
  std::uint32_t out = segment.resolvedOut;
  if (n.segAdaptive(segment)) {
    out = n.resolveAdaptive(gInPort, segment);
    segment.resolvedOut = out;
  }
  pAdvanceInputTo(c, gInPort, seg, out);
}

void ParallelRunner::pAdvanceInputTo(Ctx& c, std::uint32_t gInPort,
                                     std::uint32_t seg, std::uint32_t out) {
  Network& n = *net_;
  // No fault branch: the plan guarantees no link has ever failed.
  Network::PortState& port = n.ports_[gInPort];
  Network::PortState& outPort = n.ports_[out];
  if (outPort.outCount + outPort.reserved < n.cfg_.outputBufferSegments) {
    ++outPort.reserved;
    port.transferring = true;
    pPush(c, c.now + n.cfg_.switchLatencyNs, Kind::kTransfer, gInPort, seg);
  } else if (!port.queuedWaiting) {
    n.waitLink_[gInPort] = kNil;
    if (outPort.waitTail == kNil) {
      outPort.waitHead = gInPort;
    } else {
      n.waitLink_[outPort.waitTail] = gInPort;
    }
    outPort.waitTail = gInPort;
    port.queuedWaiting = true;
  }
}

void ParallelRunner::pHandleTransfer(Ctx& c, std::uint32_t gInPort,
                                     std::uint32_t seg, bool creditLocal) {
  Network& n = *net_;
  Network::PortState& port = n.ports_[gInPort];
  const Network::Segment& segment = n.segments_[seg];
  const std::uint32_t out = segment.resolvedOut;
  Network::PortState& outPort = n.ports_[out];
  --outPort.reserved;
  assert(port.inHead == seg);
  const std::uint32_t front = n.segPopFront(port.inHead, port.inTail);
  (void)front;
  --port.inCount;
  n.segPushBack(outPort.outHead, outPort.outTail, seg);
  ++outPort.outCount;
  c.shard->stats.maxOutputQueueDepth =
      std::max(c.shard->stats.maxOutputQueueDepth, outPort.outCount);
  port.transferring = false;
  if (creditLocal) pReturnCredit(c, port.peer);
  pTryAdvanceInput(c, gInPort);
  pTryTransmitSwitch(c, out);
}

void ParallelRunner::pServeWaitingInputs(Ctx& c, std::uint32_t gOutPort) {
  Network& n = *net_;
  Network::PortState& outPort = n.ports_[gOutPort];
  while (outPort.waitHead != kNil &&
         outPort.outCount + outPort.reserved < n.cfg_.outputBufferSegments) {
    const std::uint32_t gInPort = outPort.waitHead;
    outPort.waitHead = n.waitLink_[gInPort];
    if (outPort.waitHead == kNil) outPort.waitTail = kNil;
    n.ports_[gInPort].queuedWaiting = false;
    pWakeInput(c, gInPort);
  }
}

void ParallelRunner::pReturnCredit(Ctx& c, std::uint32_t gOutPort) {
  ++net_->ports_[gOutPort].credits;
  pOutputDispatch(c, gOutPort);
}

// ---- public entry points ------------------------------------------------

ParallelPlan planParallelRun(const Network& net, std::uint32_t threads) {
  return ParallelRunner::plan(net, threads);
}

void runParallel(Network& net, TimeNs until, std::uint32_t threads,
                 ParallelRunStats* runStats) {
  if (runStats != nullptr) *runStats = ParallelRunStats{};
  const ParallelPlan plan = ParallelRunner::plan(net, threads);
  if (!plan.parallel) {
    if (runStats != nullptr) runStats->fellBack = true;
    net.run(until);
    return;
  }
  ParallelRunner runner(net, plan, runStats);
  runner.run(until);
}

}  // namespace sim
